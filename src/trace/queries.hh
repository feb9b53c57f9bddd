/**
 * @file
 * The temporal TMA query layer (§V-B, Table VI, Fig. 8b), written
 * once for every trace engine.
 *
 * TraceQueries holds the three derived queries — windowed TMA, the
 * recovery-sequence CDF and the class-overlap upper bound — on top
 * of two primitives each engine implements its own way: any-lane
 * signal runs and per-field set-cycle counts over a window. The
 * in-memory TraceAnalyzer (trace.hh) scans packed words; the
 * StoreReader (store/store.hh) serves the same primitives from block
 * footers and decodes only boundary blocks. Both therefore return
 * the same answers by construction.
 */

#ifndef ICICLE_TRACE_QUERIES_HH
#define ICICLE_TRACE_QUERIES_HH

#include <utility>
#include <vector>

#include "pmu/event.hh"
#include "tma/tma.hh"

namespace icicle
{

struct TraceSpec;

/** A contiguous run of cycles where a signal was high. */
struct SignalRun
{
    u64 start = 0;
    u64 length = 0;
};

/** Result of the Table VI overlap upper-bound analysis. */
struct OverlapBound
{
    /** Cycles analyzed. */
    u64 cycles = 0;
    /** Slots in windows where I$-refill and Recovering overlap. */
    u64 overlapSlots = 0;
    /** Fraction of total slots that may be misclassified. */
    double overlapFraction = 0;
    /** Frontend fraction measured from the trace. */
    double frontendFraction = 0;
    /** Bad-speculation (recovering) fraction from the trace. */
    double badSpecFraction = 0;
    /** Worst-case perturbation of the Frontend class (±). */
    double frontendPerturbation = 0;
    /** Worst-case perturbation of Bad Speculation (±). */
    double badSpecPerturbation = 0;
};

/** Cumulative distribution of recovery-sequence lengths (Fig. 8b). */
struct RecoveryCdf
{
    /** Sorted sequence lengths. */
    std::vector<u64> lengths;

    u64 sequences() const
    { return static_cast<u64>(lengths.size()); }
    /** Length at a given cumulative fraction (0..1). */
    u64 percentile(double fraction) const;
    /** Most common length (the paper finds 4). */
    u64 mode() const;
    u64 max() const { return lengths.empty() ? 0 : lengths.back(); }
};

/** Temporal TMA queries shared by the in-memory and store engines. */
class TraceQueries
{
  public:
    /**
     * Contiguous runs where *any* traced lane of the event is high.
     * Multi-lane bundles (e.g. Recovering traced per decode lane)
     * must use this rather than lane 0 alone, or sequences that only
     * assert on other lanes are silently dropped.
     */
    virtual std::vector<SignalRun> runsOfAny(EventId event) const = 0;

    /**
     * Temporal TMA over a cycle window: recompute counter values from
     * trace bits and apply the Table II model. The engine validates
     * the window: an empty window, a begin at or past the trace end,
     * or a zero-cycle trace is a fatal() error, not a silently empty
     * result; an end past the trace is clamped.
     */
    TmaResult windowTma(u64 begin, u64 end, u32 core_width) const;

    /**
     * As above, with full model-parameter control (recovery length,
     * TMA-005 paper-literal M_nf_r formula, ...).
     */
    TmaResult windowTma(u64 begin, u64 end,
                        const TmaParams &params) const;

    /** Fig. 8b: lengths of all Recovering sequences. */
    RecoveryCdf recoveryCdf() const;

    /**
     * Table VI: scan for overlaps between I$-refill activity and
     * Recovering using a rolling window padded by `pad` cycles; any
     * fetch bubble inside such a window could belong to either class.
     * The whole trace is validated as one window first.
     */
    OverlapBound overlapUpperBound(u32 core_width, u32 pad = 50) const;

  protected:
    /** Engines are never deleted through this base. */
    ~TraceQueries() = default;

    virtual u64 numCycles() const = 0;
    virtual const TraceSpec &spec() const = 0;

    /**
     * Per-field set-cycle counts over [begin, end), which lies inside
     * a window checkWindow() accepted, for the fields in `field_mask`
     * (other entries are 0); one entry per traced field.
     */
    virtual std::vector<u64> fieldCountsInWindow(u64 begin, u64 end,
                                                 u64 field_mask) const = 0;

    /**
     * Validate [begin, end) for the named query ("windowTma", ...)
     * and return the clamped end; throws on an invalid window.
     */
    virtual u64 checkWindow(u64 begin, u64 end,
                            const char *query) const = 0;

    /** Merge-union of absolute [start, end) intervals, sorted. */
    static std::vector<std::pair<u64, u64>>
    mergeIntervals(std::vector<std::pair<u64, u64>> spans);
};

} // namespace icicle

#endif // ICICLE_TRACE_QUERIES_HH
