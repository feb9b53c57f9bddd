/**
 * @file
 * Self-profiling support for the bench/selfprof lane (ISSUE 7): the
 * simulator measures its *own* host-side execution efficiency so that
 * tick-loop regressions show up as data, not anecdotes.
 *
 * Three pieces:
 *  - HostProfiler: hardware counters for a code region via
 *    perf_event_open when the kernel allows it, degrading to a
 *    wall-clock-only measurement everywhere else (containers commonly
 *    deny perf_event_open; CI must work in both worlds).
 *  - calibrateSpinRate(): a fixed integer spin loop whose iters/sec
 *    anchors cross-host comparisons — regression checks compare
 *    sim-cycles/s *normalized by* the host's spin rate, so a slower
 *    CI machine does not read as a simulator regression.
 *  - Validation (the committed schema, run by common/json) and
 *    comparison routines for BENCH_selfprof.json, so the schema gate
 *    and the >20% regression gate run from the same binary with no
 *    external tooling.
 */

#ifndef ICICLE_SELFPROF_SELFPROF_HH
#define ICICLE_SELFPROF_SELFPROF_HH

#include <string>

#include "common/json.hh"
#include "common/types.hh"

namespace icicle
{

/** Host-side hardware counters for one measured region. */
struct HostCounters
{
    /** Did perf_event_open deliver real counts? */
    bool available = false;
    u64 instructions = 0;
    u64 cycles = 0;
    u64 branchMisses = 0;
    u64 cacheMisses = 0;
};

/**
 * Measures a region with perf_event_open counter groups. Construct
 * once, then begin()/end() around each region. If the syscall is
 * unavailable (seccomp, perf_event_paranoid, non-Linux), begin/end
 * are cheap no-ops and results report available == false.
 */
class HostProfiler
{
  public:
    HostProfiler();
    ~HostProfiler();
    HostProfiler(const HostProfiler &) = delete;
    HostProfiler &operator=(const HostProfiler &) = delete;

    /** Is the perf_event backend live (vs the wall-clock fallback)? */
    bool perfAvailable() const { return fds[0] >= 0; }

    void begin();
    HostCounters end();

  private:
    /** instructions, cpu-cycles, branch-misses, cache-misses. */
    int fds[4] = {-1, -1, -1, -1};
};

/**
 * Calibration spin: iterations/second of a fixed LCG-feedback integer
 * loop (nothing the compiler can vectorize away). Used to normalize
 * throughput numbers across hosts of different speeds.
 */
double calibrateSpinRate();

/**
 * Validate a parsed BENCH_selfprof.json report against
 * bench/BENCH_selfprof.schema.json (compiled into the library).
 * Returns true when valid; otherwise fills *error.
 */
bool validateSelfprofReport(const JsonValue &report,
                            std::string *error);

/** Outcome of a baseline-vs-current throughput comparison. */
struct SelfprofComparison
{
    bool ok = true;
    /** Human-readable per-lane verdicts. */
    std::string report;
};

/**
 * Compare two valid reports lane by lane on calibration-normalized
 * sim-cycles/s. A lane regresses when
 *   current_norm < (1 - tolerance) * baseline_norm.
 * Lanes present in only one report are noted but do not fail.
 */
SelfprofComparison compareSelfprofReports(const JsonValue &baseline,
                                          const JsonValue &current,
                                          double tolerance);

} // namespace icicle

#endif // ICICLE_SELFPROF_SELFPROF_HH
