/**
 * @file
 * bench/selfprof — the simulator profiles its own host-side
 * execution (ISSUE 7). Three fixed lanes (Rocket, BOOM large, BOOM
 * large + tracer) run a mixed ALU/memory/branch loop for a fixed
 * number of simulated cycles; the binary records simulated cycles per
 * host second plus hardware counters when perf_event_open works, and
 * emits BENCH_selfprof.json.
 *
 * Modes:
 *   bench_selfprof [--out FILE] [--sim-cycles N]   run + emit JSON
 *   bench_selfprof --validate FILE                 schema-check
 *   bench_selfprof --check BASELINE CURRENT [--tolerance T]
 *       calibration-normalized throughput gate: exit 1 when any lane
 *       drops more than T (default 0.20) below the baseline.
 *
 * All three modes live in this one binary so CI needs no Python or
 * jq: bench/BENCH_selfprof.schema.json, compiled into the library,
 * is the contract.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_common.hh"
#include "selfprof/selfprof.hh"
#include "trace/trace.hh"

namespace
{

using namespace icicle;

struct LaneResult
{
    std::string name;
    u64 simCycles = 0;
    double wallSeconds = 0;
    HostCounters counters;
};

/** Warm the core (cold caches/predictors), then measure a region. */
template <typename F>
LaneResult
measureLane(const std::string &name, u64 sim_cycles,
            HostProfiler &profiler, Core &core, F &&run)
{
    core.run(10'000); // warm-up outside the measured region
    LaneResult lane;
    lane.name = name;
    lane.simCycles = sim_cycles;
    profiler.begin();
    const auto start = std::chrono::steady_clock::now();
    run(sim_cycles);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    lane.counters = profiler.end();
    lane.wallSeconds = elapsed.count();
    return lane;
}

std::string
renderReport(const std::vector<LaneResult> &lanes, double spin_rate,
             bool perf_available)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\n";
    os << "  \"schema_version\": 1,\n";
    os << "  \"counter_source\": \""
       << (perf_available ? "perf_event" : "wall_clock") << "\",\n";
    os << "  \"calibration\": {\"spin_iters_per_sec\": " << spin_rate
       << "},\n";
    os << "  \"lanes\": [\n";
    for (u64 i = 0; i < lanes.size(); i++) {
        const LaneResult &lane = lanes[i];
        const double rate =
            static_cast<double>(lane.simCycles) / lane.wallSeconds;
        os << "    {\"name\": \"" << lane.name << "\", "
           << "\"sim_cycles\": " << lane.simCycles << ", "
           << "\"wall_seconds\": " << lane.wallSeconds << ", "
           << "\"sim_cycles_per_sec\": " << rate;
        if (lane.counters.available) {
            const double per_cycle =
                static_cast<double>(lane.counters.instructions) /
                static_cast<double>(lane.simCycles);
            os << ",\n     \"host_instructions\": "
               << lane.counters.instructions
               << ", \"host_cycles\": " << lane.counters.cycles
               << ", \"host_branch_misses\": "
               << lane.counters.branchMisses
               << ", \"host_cache_misses\": "
               << lane.counters.cacheMisses
               << ", \"host_instructions_per_sim_cycle\": "
               << per_cycle;
            if (lane.counters.cycles > 0)
                os << ", \"host_ipc\": "
                   << static_cast<double>(
                          lane.counters.instructions) /
                          static_cast<double>(lane.counters.cycles);
        }
        os << "}" << (i + 1 < lanes.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

bool
loadAndValidate(const std::string &path, JsonValue &out)
{
    std::string error;
    out = parseJsonFile(path, &error);
    if (error.empty() && !validateSelfprofReport(out, &error))
        error = path + ": invalid report: " + error;
    if (!error.empty()) {
        std::fprintf(stderr, "selfprof: %s\n", error.c_str());
        return false;
    }
    return true;
}

int
runLanes(const std::string &out_path, u64 sim_cycles)
{
    HostProfiler profiler;
    std::vector<LaneResult> lanes;

    {
        RocketCore core(RocketConfig{}, bench::mixLoop());
        lanes.push_back(measureLane(
            "rocket_mix", sim_cycles, profiler, core,
            [&core](u64 cycles) { core.run(cycles); }));
    }
    {
        BoomCore core(BoomConfig::large(), bench::mixLoop());
        lanes.push_back(measureLane(
            "boom_large_mix", sim_cycles, profiler, core,
            [&core](u64 cycles) { core.run(cycles); }));
    }
    {
        BoomCore core(BoomConfig::large(), bench::mixLoop());
        const TraceSpec spec = TraceSpec::tmaBundle(core);
        Trace trace(spec);
        lanes.push_back(measureLane(
            "boom_large_traced", sim_cycles, profiler, core,
            [&core, &trace](u64 cycles) {
                core.runLoop(cycles,
                             [&trace](Cycle, const EventBus &bus) {
                                 trace.capture(bus);
                             });
            }));
    }

    const double spin_rate = calibrateSpinRate();
    const std::string report =
        renderReport(lanes, spin_rate, profiler.perfAvailable());

    // The emitted report must pass its own schema gate.
    std::string error;
    const JsonValue parsed = parseJson(report, &error);
    if (!validateSelfprofReport(parsed, &error)) {
        std::fprintf(stderr,
                     "selfprof: generated report is invalid: %s\n",
                     error.c_str());
        return 1;
    }

    if (out_path.empty()) {
        std::fputs(report.c_str(), stdout);
    } else {
        std::ofstream out(out_path);
        out << report;
        if (!out) {
            std::fprintf(stderr, "selfprof: cannot write %s\n",
                         out_path.c_str());
            return 1;
        }
        std::printf("selfprof: wrote %s (%s counters)\n",
                    out_path.c_str(),
                    profiler.perfAvailable() ? "perf_event"
                                             : "wall_clock");
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path;
    u64 sim_cycles = 1'000'000;
    double tolerance = 0.20;

    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--validate" && i + 1 < argc) {
            JsonValue report;
            if (!loadAndValidate(argv[i + 1], report))
                return 1;
            std::printf("selfprof: %s is valid\n", argv[i + 1]);
            return 0;
        }
        if (arg == "--check" && i + 2 < argc) {
            for (int j = i + 3; j + 1 < argc; j += 2)
                if (std::string(argv[j]) == "--tolerance")
                    tolerance = std::atof(argv[j + 1]);
            JsonValue baseline, current;
            if (!loadAndValidate(argv[i + 1], baseline) ||
                !loadAndValidate(argv[i + 2], current))
                return 1;
            const SelfprofComparison cmp = compareSelfprofReports(
                baseline, current, tolerance);
            std::fputs(cmp.report.c_str(), stdout);
            if (!cmp.ok) {
                std::fprintf(stderr,
                             "selfprof: throughput regression "
                             "beyond %.0f%%\n",
                             tolerance * 100);
                return 1;
            }
            std::printf("selfprof: within tolerance\n");
            return 0;
        }
        if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
            continue;
        }
        if (arg == "--sim-cycles" && i + 1 < argc) {
            sim_cycles = std::strtoull(argv[++i], nullptr, 10);
            continue;
        }
        std::fprintf(
            stderr,
            "usage: bench_selfprof [--out FILE] [--sim-cycles N]\n"
            "       bench_selfprof --validate FILE\n"
            "       bench_selfprof --check BASELINE CURRENT "
            "[--tolerance T]\n");
        return 2;
    }
    return runLanes(out_path, sim_cycles);
}
