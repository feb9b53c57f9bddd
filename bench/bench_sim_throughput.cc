/**
 * @file
 * E17 — Simulator throughput microbenchmarks (google-benchmark):
 * cycles/second for each core configuration, the overhead of
 * attaching counters and the tracer, and multi-worker *sweep*
 * throughput (grid points/second at 1/2/4/8 workers). Not a paper
 * artifact; it documents the cost of using this library. BENCH_*.json
 * thereby tracks both single-core simulation speed and campaign
 * throughput.
 */

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_common.hh"
#include "perf/harness.hh"
#include "trace/trace.hh"

namespace
{

using namespace icicle;

/** Cycles to simulate before the timed region starts. */
constexpr u64 kWarmupCycles = 10'000;

/**
 * Run the simulated-cold-start transient (empty caches, untrained
 * predictors) outside the timed region and report its rate
 * separately, so "cycles/s" measures steady state only instead of
 * folding one-time warm-up into the first iteration.
 */
double
timedWarmup(Core &core, u64 cycles)
{
    const auto start = std::chrono::steady_clock::now();
    core.run(cycles);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (elapsed.count() <= 0)
        return 0;
    return static_cast<double>(cycles) / elapsed.count();
}

void
BM_Rocket(benchmark::State &state)
{
    RocketCore core(RocketConfig{}, bench::mixLoop());
    const double warmup = timedWarmup(core, kWarmupCycles);
    for (auto _ : state) {
        core.run(state.range(0));
        benchmark::DoNotOptimize(core.cycle());
    }
    state.counters["warmup_cycles/s"] = warmup;
    state.counters["cycles/s"] = benchmark::Counter(
        static_cast<double>(state.iterations() * state.range(0)),
        benchmark::Counter::kIsRate);
}

void
BM_BoomSize(benchmark::State &state)
{
    const BoomConfig cfg =
        BoomConfig::allSizes()[static_cast<u64>(state.range(1))];
    BoomCore core(cfg, bench::mixLoop());
    const double warmup = timedWarmup(core, kWarmupCycles);
    for (auto _ : state) {
        core.run(state.range(0));
        benchmark::DoNotOptimize(core.cycle());
    }
    state.SetLabel(cfg.name);
    state.counters["warmup_cycles/s"] = warmup;
    state.counters["cycles/s"] = benchmark::Counter(
        static_cast<double>(state.iterations() * state.range(0)),
        benchmark::Counter::kIsRate);
}

void
BM_BoomWithHarness(benchmark::State &state)
{
    BoomConfig cfg = BoomConfig::large();
    cfg.counterArch = CounterArch::Distributed;
    BoomCore core(cfg, bench::mixLoop());
    PerfHarness harness(core);
    harness.addTmaEvents();
    const double warmup = timedWarmup(core, kWarmupCycles);
    for (auto _ : state) {
        harness.run(state.range(0));
        benchmark::DoNotOptimize(core.cycle());
    }
    state.counters["warmup_cycles/s"] = warmup;
    state.counters["cycles/s"] = benchmark::Counter(
        static_cast<double>(state.iterations() * state.range(0)),
        benchmark::Counter::kIsRate);
}

void
BM_BoomWithTracer(benchmark::State &state)
{
    BoomCore core(BoomConfig::large(), bench::mixLoop());
    const TraceSpec spec = TraceSpec::tmaBundle(core);
    // Trace construction (and its backing-store growth) is one-time
    // setup: hoist it so iterations measure capture cost only.
    Trace trace(spec);
    const double warmup = timedWarmup(core, kWarmupCycles);
    for (auto _ : state) {
        trace.clear();
        core.runLoop(state.range(0),
                     [&trace](Cycle, const EventBus &bus) {
                         trace.capture(bus);
                     });
        benchmark::DoNotOptimize(trace.numCycles());
    }
    state.counters["warmup_cycles/s"] = warmup;
    state.counters["cycles/s"] = benchmark::Counter(
        static_cast<double>(state.iterations() * state.range(0)),
        benchmark::Counter::kIsRate);
}

/**
 * Sweep-engine scaling: a fixed 8-point grid (one core model, eight
 * long-running proxies, equal 200k-cycle budgets so jobs are
 * near-uniform) at 1/2/4/8 workers. Wall-clock real time is the
 * measurement; ideal scaling is linear up to the machine's hardware
 * threads.
 */
void
BM_SweepScaling(benchmark::State &state)
{
    GridSpec grid;
    grid.cores = {"rocket"};
    grid.workloads = {"505.mcf_r",       "502.gcc_r",
                      "523.xalancbmk_r", "525.x264_r",
                      "531.deepsjeng_r", "541.leela_r",
                      "548.exchange2_r", "557.xz_r"};
    grid.maxCycles = 200'000;
    SweepOptions options;
    options.workers = static_cast<u32>(state.range(0));
    u64 points = 0;
    u64 cycles = 0;
    for (auto _ : state) {
        const std::vector<SweepResult> results =
            runSweep(grid, options);
        benchmark::DoNotOptimize(results.data());
        points += results.size();
        for (const SweepResult &r : results)
            cycles += r.cycles;
    }
    state.counters["points/s"] = benchmark::Counter(
        static_cast<double>(points), benchmark::Counter::kIsRate);
    state.counters["cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}

BENCHMARK(BM_Rocket)->Arg(50000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SweepScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BoomSize)
    ->Args({50000, 0})
    ->Args({50000, 2})
    ->Args({50000, 4})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BoomWithHarness)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BoomWithTracer)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
