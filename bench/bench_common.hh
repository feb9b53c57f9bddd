/**
 * @file
 * Shared helpers for the experiment-reproduction benches. Each bench
 * binary regenerates one table or figure of the paper's evaluation
 * and prints measured values next to the paper's reported ones where
 * applicable.
 */

#ifndef ICICLE_BENCH_COMMON_HH
#define ICICLE_BENCH_COMMON_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "boom/boom.hh"
#include "core/session.hh"
#include "isa/builder.hh"
#include "rocket/rocket.hh"
#include "sweep/sweep.hh"
#include "tma/tma.hh"
#include "workloads/workloads.hh"

namespace icicle
{
namespace bench
{

constexpr u64 kMaxCycles = 80'000'000;

/**
 * Mixed ALU/memory/branch loop that runs until the cycle cap: the
 * fixed program of the simulator-throughput lanes (bench_selfprof,
 * bench_sim_throughput).
 */
inline Program
mixLoop()
{
    using namespace reg;
    ProgramBuilder b("mix");
    Label buf = b.space(8192);
    Label loop = b.newLabel(), skip = b.newLabel();
    b.la(s0, buf);
    b.li(t2, 1'000'000'000); // effectively endless; capped by cycles
    b.bind(loop);
    b.andi(t0, t2, 1023);
    b.slli(t0, t0, 3);
    b.add(t1, s0, t0);
    b.ld(t3, t1, 0);
    b.add(t3, t3, t2);
    b.sd(t3, t1, 0);
    b.andi(t4, t2, 7);
    b.beqz(t4, skip);
    b.addi(t5, t5, 1);
    b.bind(skip);
    b.addi(t2, t2, -1);
    b.bnez(t2, loop);
    b.halt();
    return b.build();
}

/**
 * Worker-pool width for sweep-driven benches: the machine's
 * concurrency, bounded so small grids don't spawn idle threads.
 * Override with ICICLE_BENCH_WORKERS.
 */
inline u32
defaultWorkers()
{
    if (const char *env = std::getenv("ICICLE_BENCH_WORKERS")) {
        const long parsed = std::strtol(env, nullptr, 10);
        if (parsed > 0)
            return static_cast<u32>(parsed);
    }
    const u32 hw = std::thread::hardware_concurrency();
    return hw ? std::min(hw, 16u) : 4u;
}

/** Mirror runRocket/runBoom's health warnings for a sweep row. */
inline void
warnIfUnhealthy(const SweepResult &row)
{
    if (row.status != SweepStatus::Ok)
        std::printf("  (warning: %s %s: %s)\n", row.label.c_str(),
                    sweepStatusName(row.status), row.error.c_str());
    else if (!row.finished)
        std::printf("  (warning: %s hit the cycle cap)\n",
                    row.label.c_str());
    else if (row.exitCode != 0)
        std::printf("  (warning: %s failed self-check: %llu)\n",
                    row.label.c_str(),
                    static_cast<unsigned long long>(row.exitCode));
}

inline void
header(const std::string &title)
{
    std::printf("\n================================================"
                "====================\n%s\n"
                "================================================"
                "====================\n",
                title.c_str());
}

/** Run a program on Rocket and return the TMA breakdown. */
inline TmaResult
runRocket(const Program &program, const RocketConfig &cfg = {})
{
    RocketCore core(cfg, program);
    core.run(kMaxCycles);
    if (!core.done())
        std::printf("  (warning: %s hit the cycle cap)\n",
                    program.name.c_str());
    if (core.executor().halted() && core.executor().exitCode() != 0)
        std::printf("  (warning: %s failed self-check: %llu)\n",
                    program.name.c_str(),
                    static_cast<unsigned long long>(
                        core.executor().exitCode()));
    return analyzeTma(core);
}

/** Run a program on BOOM and return the TMA breakdown. */
inline TmaResult
runBoom(const Program &program,
        const BoomConfig &cfg = BoomConfig::large())
{
    BoomCore core(cfg, program);
    core.run(kMaxCycles);
    if (!core.done())
        std::printf("  (warning: %s hit the cycle cap)\n",
                    program.name.c_str());
    if (core.executor().halted() && core.executor().exitCode() != 0)
        std::printf("  (warning: %s failed self-check: %llu)\n",
                    program.name.c_str(),
                    static_cast<unsigned long long>(
                        core.executor().exitCode()));
    return analyzeTma(core);
}

/** Print a one-line top-level TMA row. */
inline void
tmaRow(const std::string &name, const TmaResult &r)
{
    std::printf("  %-18s %s\n", name.c_str(),
                formatTmaLine(r).c_str());
}

/** Print a second-level row (frontend / badspec / backend split). */
inline void
tmaSecondLevelRow(const std::string &name, const TmaResult &r)
{
    std::printf("  %-18s brMisp=%5.1f%% machClr=%5.1f%% | "
                "fetchLat=%5.1f%% pcRes=%5.1f%% | core=%5.1f%% "
                "mem=%5.1f%%\n",
                name.c_str(), r.branchMispredicts * 100,
                r.machineClears * 100, r.fetchLatency * 100,
                r.pcResteer * 100, r.coreBound * 100, r.memBound * 100);
}

} // namespace bench
} // namespace icicle

#endif // ICICLE_BENCH_COMMON_HH
