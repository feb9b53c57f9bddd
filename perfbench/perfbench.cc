/**
 * @file
 * perfbench: the measuring half of the repository benchmark.
 *
 *   $ perfbench campaign --seconds 35 --seed 1 --trace 0 \
 *       --run-dir .bench_run/x --icicled .bench_build/icicled
 *
 * Runs one workload (campaign, longsim or serve) for the given
 * number of seconds and prints one JSON object with the raw samples,
 * counters, observed outputs and failures. run.py turns those into
 * the named metrics and compares the observed outputs with the
 * recorded ones; all percentile and share arithmetic lives there, so
 * it can be tested without a build.
 *
 * Layer timings (--trace 1) come only from calls this file makes
 * into the library's public functions; nothing inside the library is
 * instrumented. Every check on outputs runs outside the timed
 * regions.
 */

#include <sched.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "core/session.hh"
#include "serve/cache.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "store/store.hh"
#include "sweep/sweep.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

using namespace icicle;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
microsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     start)
        .count();
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

/**
 * Set-up samples taken before the first timed operation; the rest
 * are spread over the run (one before each grid, round or run), so
 * a host episode at start-up does not move the whole median.
 * Set-up time is the median of all of them.
 */
constexpr int kSetupRepeats = 3;
/** Serve set-up samples taken after the phases, with fresh daemons. */
constexpr int kServeLateSetupRepeats = 8;

/** Everything one invocation reports; serialized for run.py. */
struct Report
{
    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, double> values;
    std::map<std::string, std::string> observed;
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<std::string> failures;

    void
    sample(const std::string &name, double value)
    {
        samples[name].push_back(value);
    }

    void
    add(const std::string &name, double value)
    {
        values[name] += value;
    }

    void
    fail(const std::string &why, u64 count = 1)
    {
        if (count == 0)
            return;
        failed += count;
        if (failures.size() < 20)
            failures.push_back(why);
    }

    /**
     * Record an observed output. The same name observed twice with
     * different text is itself a failure: every repetition of a
     * deterministic simulation must produce the same result.
     */
    void
    observe(const std::string &name, const std::string &text)
    {
        auto [it, fresh] = observed.emplace(name, text);
        if (!fresh && it->second != text)
            fail(name + " differs between repetitions");
    }

    std::string
    json() const
    {
        std::ostringstream os;
        os << "{\"attempted\": " << attempted
           << ", \"failed\": " << failed << ", \"failures\": [";
        for (size_t i = 0; i < failures.size(); i++)
            os << (i ? ", " : "") << jsonString(failures[i]);
        os << "], \"samples\": {";
        bool first = true;
        for (const auto &[name, list] : samples) {
            os << (first ? "" : ", ") << jsonString(name) << ": [";
            for (size_t i = 0; i < list.size(); i++)
                os << (i ? "," : "") << jsonNumber(list[i]);
            os << "]";
            first = false;
        }
        os << "}, \"values\": {";
        first = true;
        for (const auto &[name, value] : values) {
            os << (first ? "" : ", ") << jsonString(name) << ": "
               << jsonNumber(value);
            first = false;
        }
        os << "}, \"observed\": {";
        first = true;
        for (const auto &[name, text] : observed) {
            os << (first ? "" : ", ") << jsonString(name) << ": "
               << jsonString(text);
            first = false;
        }
        os << "}}";
        return os.str();
    }
};

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string runDir;
    std::string icicled;
};

/** FNV-1a, 64 bit: the digest recorded for the campaign CSV. */
std::string
fnv1a(const std::string &text)
{
    u64 hash = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

/** Every TMA field at full precision: the identity key for checks. */
std::string
tmaKey(const TmaResult &tma)
{
    std::ostringstream os;
    for (double field :
         {tma.retiring, tma.badSpeculation, tma.frontend, tma.backend,
          tma.machineClears, tma.branchMispredicts, tma.resteers,
          tma.recoveryBubbles, tma.fetchLatency, tma.pcResteer,
          tma.coreBound, tma.memBound, tma.memBoundL2,
          tma.memBoundDram, tma.ipc})
        os << jsonNumber(field) << ' ';
    os << tma.totalSlots << ' ' << tma.cycles;
    return os.str();
}

/**
 * Reset this process's peak resident set, so the next peakRssMb
 * covers only what follows. Best effort: without it the peak covers
 * the whole process.
 */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** VmHWM (peak resident set) of a process, in MiB; 0 if unknown. */
double
peakRssMb(const std::string &pid)
{
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0;
}

// ============================================================ campaign

/** The campaign grid: 3 cores x micro+composite x 3 architectures. */
GridSpec
campaignGrid()
{
    GridSpec grid;
    grid.cores = {"rocket", "boom-small", "boom-large"};
    grid.workloads = workloadNames("micro");
    for (const std::string &name : workloadNames("composite"))
        grid.workloads.push_back(name);
    grid.counterArchs = {CounterArch::Scalar, CounterArch::AddWires,
                         CounterArch::Distributed};
    return grid;
}

constexpr u32 kCampaignWorkers = 2;

/** Host time one traced point spent in each layer it called. */
struct PointLayers
{
    double buildUs = 0;
    double constructUs = 0;
    double tickUs = 0;
    double analyzeUs = 0;
};

/**
 * A Core that forwards every call to the real one and times the
 * tick loop (Core::run). On destruction — after the sweep engine has
 * read its result — it repeats the engine's analysis calls on the
 * finished core and times them.
 */
class TimedCore : public Core
{
  public:
    TimedCore(std::unique_ptr<Core> inner, PointLayers &layers)
        : inner(std::move(inner)), layers(layers)
    {
    }

    ~TimedCore() override
    {
        try {
            const Clock::time_point start = Clock::now();
            gatherTmaCounters(*inner);
            analyzeTma(*inner);
            layers.analyzeUs = microsSince(start);
        } catch (const std::exception &) {
            // A failed attempt's core: the point is reported failed.
        }
    }

    TimedCore(const TimedCore &) = delete;
    TimedCore &operator=(const TimedCore &) = delete;

    void tick() override { inner->tick(); }
    bool done() const override { return inner->done(); }

    u64
    run(u64 max_cycles,
        const std::function<void(Cycle, const EventBus &)> &on_cycle)
        override
    {
        const Clock::time_point start = Clock::now();
        const u64 cycles = inner->run(max_cycles, on_cycle);
        layers.tickUs += microsSince(start);
        return cycles;
    }

    Cycle cycle() const override { return inner->cycle(); }
    const EventBus &bus() const override { return inner->bus(); }
    CsrFile &csrFile() override { return inner->csrFile(); }
    Executor &executor() override { return inner->executor(); }
    CoreKind kind() const override { return inner->kind(); }
    u32 coreWidth() const override { return inner->coreWidth(); }
    u32 issueWidth() const override { return inner->issueWidth(); }
    const char *name() const override { return inner->name(); }
    u64 total(EventId id) const override { return inner->total(id); }

    u64
    laneTotal(EventId id, u32 lane) const override
    {
        return inner->laneTotal(id, lane);
    }

  private:
    std::unique_ptr<Core> inner;
    PointLayers &layers;
};

/** Jobs for the grid whose factories time build and construction. */
std::vector<SweepJob>
timedJobs(const GridSpec &grid, std::vector<PointLayers> &layers)
{
    const std::vector<SweepPoint> points = grid.expand();
    layers.assign(points.size(), PointLayers{});
    std::vector<SweepJob> jobs;
    for (size_t i = 0; i < points.size(); i++) {
        SweepJob job;
        job.label = sweepPointLabel(points[i]);
        job.maxCycles = points[i].maxCycles;
        job.point = points[i];
        PointLayers *slot = &layers[i];
        const SweepPoint point = points[i];
        job.make = [slot, point]() -> std::unique_ptr<Core> {
            *slot = PointLayers{};
            Clock::time_point start = Clock::now();
            Program program = buildWorkload(point.workload);
            slot->buildUs = microsSince(start);
            start = Clock::now();
            std::unique_ptr<Core> core = makeSweepCore(
                point.core, point.counterArch, program);
            slot->constructUs = microsSince(start);
            return std::make_unique<TimedCore>(std::move(core), *slot);
        };
        jobs.push_back(std::move(job));
    }
    return jobs;
}

/**
 * Output checks on one grid's results (outside any timed region):
 * every point ok with self-check exit 0, and cycles + TMA identical
 * across the counter architectures of each (core, workload) group.
 */
void
checkGrid(const std::vector<SweepResult> &results, Report &report)
{
    std::map<std::string, std::string> group_outcome;
    std::set<std::string> distinct;
    for (const SweepResult &r : results) {
        const std::string group = r.point.core + "/" + r.point.workload;
        const std::string outcome =
            std::to_string(r.cycles) + " " + tmaKey(r.tma);
        distinct.insert(group + " " + outcome);
        bool ok = r.status == SweepStatus::Ok && r.finished &&
                  r.exitCode == 0;
        if (!ok) {
            report.fail(r.label + ": status " +
                        sweepStatusName(r.status) + " exit " +
                        std::to_string(r.exitCode) + " " + r.error);
            continue;
        }
        auto [it, fresh] = group_outcome.emplace(group, outcome);
        if (!fresh && it->second != outcome)
            report.fail(r.label +
                        ": cycles/TMA differ across counter archs");
    }
    report.sample("sweep.distinct_result_share",
                  static_cast<double>(distinct.size()) /
                      static_cast<double>(results.size()));
}

/** One grid through runSweep; returns its wall time in seconds. */
double
campaignPass(const GridSpec &grid, bool timed_layers, Report &report)
{
    std::vector<PointLayers> layers;
    std::vector<SweepResult> results;
    SweepOptions options;
    options.workers = kCampaignWorkers;
    Clock::time_point start;
    double wall = 0;
    resetPeakRss();
    if (timed_layers) {
        const std::vector<SweepJob> jobs = timedJobs(grid, layers);
        start = Clock::now();
        results = runSweepJobs(jobs, options);
        wall = secondsSince(start);
    } else {
        start = Clock::now();
        results = runSweep(grid, options);
        wall = secondsSince(start);
    }
    report.attempted += results.size();
    if (!timed_layers)
        report.sample("peak_rss_mb", peakRssMb("self"));

    start = Clock::now();
    const std::string csv = formatSweepCsv(results);
    report.sample("sweep.render_ms", microsSince(start) / 1000.0);
    report.observe("campaign.csv_fnv1a", fnv1a(csv));
    checkGrid(results, report);

    double wall_ms_sum = 0;
    u64 cycles = 0;
    for (const SweepResult &r : results) {
        wall_ms_sum += r.wallMs;
        cycles += r.cycles;
    }
    const std::string mode = timed_layers ? "traced." : "";
    report.sample(mode + "grid_s", wall);
    report.sample(mode + "sweep.busy_share",
                  wall_ms_sum / (wall * 1000.0 * kCampaignWorkers));
    if (!timed_layers) {
        report.add("points", static_cast<double>(results.size()));
        report.add("sim_cycles", static_cast<double>(cycles));
        report.add("measured_s", wall);
        return wall;
    }
    for (size_t i = 0; i < results.size(); i++) {
        const PointLayers &l = layers[i];
        const std::string &core = results[i].point.core;
        report.sample("workloads.build_us", l.buildUs);
        report.sample("core.construct_us." + core, l.constructUs);
        if (results[i].cycles > 0)
            report.sample("tick.ns_per_cycle." + core,
                          l.tickUs * 1000.0 /
                              static_cast<double>(results[i].cycles));
        report.sample("tma.analyze_us", l.analyzeUs);
        report.add("sweep.sum_ms.wall", results[i].wallMs);
        report.add("sweep.sum_ms.build", l.buildUs / 1000.0);
        report.add("sweep.sum_ms.construct", l.constructUs / 1000.0);
        report.add("sweep.sum_ms.tick", l.tickUs / 1000.0);
        report.add("sweep.sum_ms.analyze", l.analyzeUs / 1000.0);
    }
    report.add("sweep.points", static_cast<double>(results.size()));
    report.add("sweep.sim_cycles", static_cast<double>(cycles));
    return wall;
}

/**
 * Set-up as icicle-sweep pays it before the first point: expand the
 * grid and validate every axis value, workloads by building them.
 */
void
campaignSetup(const GridSpec &grid)
{
    const std::vector<std::string> known = sweepCoreNames();
    for (const std::string &core : grid.cores) {
        if (std::find(known.begin(), known.end(), core) == known.end())
            fatal("unknown core ", core);
    }
    for (const std::string &workload : grid.workloads)
        buildWorkload(workload);
    if (grid.expand().empty())
        fatal("empty campaign grid");
}

void
runCampaign(const Args &args, Report &report)
{
    const GridSpec grid = campaignGrid();
    auto setup = [&] {
        const Clock::time_point start = Clock::now();
        campaignSetup(grid);
        report.sample("setup_s", secondsSince(start));
    };
    for (int i = 0; i < kSetupRepeats; i++)
        setup();
    // A traced run spends half its time untraced, so the two halves
    // give the tracing overhead on identical work.
    const double untraced_budget =
        args.trace ? args.seconds / 2 : args.seconds;
    double spent = 0;
    do {
        spent += campaignPass(grid, false, report);
        setup();
    } while (spent < untraced_budget);
    if (args.trace) {
        spent = 0;
        do {
            spent += campaignPass(grid, true, report);
            setup();
        } while (spent < args.seconds - untraced_budget);
    }
}

// ============================================================ longsim

constexpr const char *kLongWorkload = "541.leela_r";
constexpr u64 kLongMaxCycles = 200'000'000;

/**
 * Moves the calling thread to the next allowed CPU, round robin. Host
 * noise on a shared machine differs per CPU and lasts seconds, so a
 * serial run the scheduler leaves on one CPU inherits that CPU's
 * noise; rotating before every timed run samples the CPUs evenly
 * (interleaved runs on a 4-CPU host: 0.075 run-to-run spread with
 * rotation, 0.14 without).
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (::sched_getaffinity(0, sizeof(set), &set) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
            if (CPU_ISSET(cpu, &set))
                cpus.push_back(cpu);
        }
    }

    void
    next()
    {
        if (cpus.empty())
            return;
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus[cursor++ % cpus.size()], &set);
        ::sched_setaffinity(0, sizeof(set), &set);
    }

  private:
    std::vector<int> cpus;
    size_t cursor = 0;
};

/**
 * The longsim set-up: the program build plus construction of a
 * round's three cores. `perfbench longsim-setup` runs it in a fresh
 * process, as a real run pays it.
 */
double
longsimSetupOnce()
{
    const Clock::time_point start = Clock::now();
    const Program program = buildWorkload(kLongWorkload);
    for (const char *name : {"rocket", "boom-large", "boom-large"})
        makeSweepCore(name, CounterArch::AddWires, program);
    return secondsSince(start);
}

/**
 * One longsim set-up sample from a fresh `perfbench longsim-setup`
 * process. In-process repeats reuse the allocator's warm heap, so
 * their cost flips between heap states instead of showing what a
 * run pays. posix_spawn (vfork semantics) leaves this process's
 * pages untouched, so the timed run that follows is not disturbed.
 */
double
freshSetupSample()
{
    int fds[2];
    if (::pipe(fds) != 0)
        fatal("cannot create a pipe for the set-up probe");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    char self[] = "perfbench";
    char mode[] = "longsim-setup";
    char *argv[] = {self, mode, nullptr};
    pid_t pid = -1;
    const int err = ::posix_spawn(&pid, "/proc/self/exe", &actions,
                                  nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    std::string out;
    if (err == 0) {
        char buf[64];
        ssize_t n;
        while ((n = ::read(fds[0], buf, sizeof(buf))) > 0)
            out.append(buf, static_cast<size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    if (err != 0 || ::waitpid(pid, &status, 0) != pid ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0 || out.empty())
        fatal("longsim set-up probe failed");
    return std::stod(out);
}

/** Sink that keeps nothing: isolates trace packing from storage. */
class DiscardSink : public TraceSink
{
  public:
    void append(u64 word) override { last ^= word; }

    void
    appendBlock(const u64 *words, u64 count) override
    {
        for (u64 i = 0; i < count; i++)
            last ^= words[i];
    }

    void finish() override {}

  private:
    u64 last = 0;
};

/** Check one finished run, then record its simulated outcome. */
void
checkLongRun(Core &core, const std::string &kind, u64 cycles,
             Report &report)
{
    Executor &exec = core.executor();
    if (!core.done() || !exec.halted() || exec.exitCode() != 0) {
        report.fail("longsim " + kind + ": did not halt with exit 0");
        return;
    }
    const TmaCounters counters = gatherTmaCounters(core);
    report.observe("longsim.cycles." + kind, std::to_string(cycles));
    report.observe("longsim.uops." + kind,
                   std::to_string(counters.retiredUops));
    report.observe("longsim.tma." + kind, tmaKey(analyzeTma(core)));
    report.values["cycles." + kind] = static_cast<double>(cycles);
    report.values["uops." + kind] =
        static_cast<double>(counters.retiredUops);
}

std::string
queriesKey(const RecoveryCdf &cdf, const OverlapBound &o,
           const TmaResult &window)
{
    std::ostringstream os;
    os << cdf.sequences() << ' ' << cdf.max() << ' ' << cdf.mode();
    for (u64 length : cdf.lengths)
        os << ',' << length;
    os << " | " << o.cycles << ' ' << o.overlapSlots << ' '
       << jsonNumber(o.overlapFraction) << ' '
       << jsonNumber(o.frontendFraction) << ' '
       << jsonNumber(o.badSpecFraction) << ' '
       << jsonNumber(o.frontendPerturbation) << ' '
       << jsonNumber(o.badSpecPerturbation) << " | " << tmaKey(window);
    return os.str();
}

struct LongRound
{
    /** Timed work: the three runs and the store analysis. */
    double seconds = 0;
    /** Core width of the traced BOOM-large run. */
    u32 width = 1;
};

/**
 * The store-engine queries against TraceAnalyzer on the in-memory
 * Trace of the same store: they must agree. With `layers`, the
 * TraceAnalyzer queries are timed.
 */
void
compareEngines(const std::string &store_path, u32 width, bool layers,
               Report &report)
{
    const StoreReader reader(store_path);
    const std::string store_key = queriesKey(
        reader.recoveryCdf(), reader.overlapUpperBound(width),
        reader.windowTma(0, reader.numCycles(), width));
    const Trace trace = Trace::fromStore(store_path);
    const TraceAnalyzer analyzer(trace);
    Clock::time_point start = Clock::now();
    const RecoveryCdf cdf = analyzer.recoveryCdf();
    const double cdf_ms = microsSince(start) / 1000.0;
    start = Clock::now();
    const OverlapBound overlap = analyzer.overlapUpperBound(width);
    const double overlap_ms = microsSince(start) / 1000.0;
    start = Clock::now();
    const TmaResult window = analyzer.windowTma(0, trace.numCycles(),
                                                width);
    const double window_ms = microsSince(start) / 1000.0;
    if (queriesKey(cdf, overlap, window) != store_key)
        report.fail("store engine and TraceAnalyzer disagree");
    if (layers) {
        report.sample("trace.analyze_ms.recovery_cdf", cdf_ms);
        report.sample("trace.analyze_ms.overlap", overlap_ms);
        report.sample("trace.analyze_ms.window_full", window_ms);
    }
}

/**
 * One longsim round: Rocket and BOOM-large from reset, then
 * BOOM-large streamed into a StoreWriter, then the store-engine
 * analysis of the reopened store. `layers` adds the traced-only
 * runs: packing into a discarding sink, and the same queries on the
 * in-memory Trace through TraceAnalyzer.
 */
LongRound
longRound(const Program &program, const std::string &store_path,
          bool layers, CpuRotation &cpus, Report &report)
{
    LongRound round;
    if (layers) {
        const Clock::time_point start = Clock::now();
        buildWorkload(kLongWorkload);
        report.sample("workloads.build_us", microsSince(start));
    }
    // Before each timed run: move to the next CPU and take a set-up
    // sample there, so set-up samples spread over the run and CPUs.
    auto next_run = [&] {
        cpus.next();
        report.sample("setup_s", freshSetupSample());
    };
    auto timed_run = [&](const char *core_name) {
        next_run();
        Clock::time_point start = Clock::now();
        std::unique_ptr<Core> core = makeSweepCore(
            core_name, CounterArch::AddWires, program);
        if (layers)
            report.sample("core.construct_us." + std::string(core_name),
                          microsSince(start));
        start = Clock::now();
        const u64 cycles = core->run(kLongMaxCycles);
        const double seconds = secondsSince(start);
        round.seconds += seconds;
        const std::string kind = core_name;
        report.attempted++;
        checkLongRun(*core, kind, cycles, report);
        report.sample("run_s." + kind, seconds);
        const double uops = report.values["uops." + kind];
        if (layers && uops > 0)
            report.sample("tick.ns_per_uop." + kind, seconds * 1e9 / uops);
    };
    timed_run("rocket");
    timed_run("boom-large");

    if (layers) {
        next_run();
        std::unique_ptr<Core> core = makeSweepCore(
            "boom-large", CounterArch::AddWires, program);
        const TraceSpec spec = TraceSpec::tmaBundle(*core);
        DiscardSink sink;
        const Clock::time_point start = Clock::now();
        const u64 cycles = streamTraceRun(*core, spec, kLongMaxCycles,
                                          sink);
        report.sample("discard_s", secondsSince(start));
        report.attempted++;
        checkLongRun(*core, "boom-large", cycles, report);
    }

    u32 width = 1;
    {
        next_run();
        std::unique_ptr<Core> core = makeSweepCore(
            "boom-large", CounterArch::AddWires, program);
        width = core->coreWidth();
        const TraceSpec spec = TraceSpec::tmaBundle(*core);
        StoreWriter sink(spec, store_path);
        const Clock::time_point start = Clock::now();
        const u64 cycles = streamTraceRun(*core, spec, kLongMaxCycles,
                                          sink);
        const double seconds = secondsSince(start);
        round.seconds += seconds;
        report.attempted++;
        checkLongRun(*core, "boom-large", cycles, report);
        report.sample("run_s.traced", seconds);
        report.values["cycles.traced"] = static_cast<double>(cycles);
    }

    // Analysis of the reopened store: the figure trace_analyze_ms.
    cpus.next();
    report.attempted++;
    Clock::time_point start = Clock::now();
    StoreReader reader(store_path);
    const double open_ms = microsSince(start) / 1000.0;
    start = Clock::now();
    const RecoveryCdf cdf = reader.recoveryCdf();
    const double cdf_ms = microsSince(start) / 1000.0;
    start = Clock::now();
    const OverlapBound overlap = reader.overlapUpperBound(width);
    const double overlap_ms = microsSince(start) / 1000.0;
    start = Clock::now();
    const TmaResult window = reader.windowTma(0, reader.numCycles(),
                                              width);
    const double window_ms = microsSince(start) / 1000.0;
    round.seconds += (open_ms + cdf_ms + overlap_ms + window_ms) / 1000.0;
    report.sample("analyze_ms", cdf_ms + overlap_ms + window_ms);

    // Checks, untimed.
    const std::string store_key = queriesKey(cdf, overlap, window);
    report.observe("longsim.store_queries_fnv1a", fnv1a(store_key));
    try {
        reader.verify();
    } catch (const FatalError &err) {
        report.fail(std::string("store verify: ") + err.what());
    }
    if (layers) {
        report.sample("store.open_ms", open_ms);
        report.sample("store.analyze_ms.recovery_cdf", cdf_ms);
        report.sample("store.analyze_ms.overlap", overlap_ms);
        report.sample("store.analyze_ms.window_full", window_ms);
        report.values["store.blocks_decoded"] =
            static_cast<double>(reader.blocksDecoded());
        report.values["store.bytes"] =
            static_cast<double>(reader.fileBytes());
    }
    if (layers)
        compareEngines(store_path, width, true, report);
    round.width = width;
    return round;
}

void
runLongsim(const Args &args, Report &report)
{
    const std::string store_path = args.runDir + "/longsim.icst";
    // Set-up samples come from fresh processes: a few here, then one
    // before each timed run (longRound).
    for (int i = 0; i < kSetupRepeats; i++)
        report.sample("setup_s", freshSetupSample());
    const Program program = buildWorkload(kLongWorkload);

    // Untraced rounds until their timed work reaches the budget, then
    // (traced runs) as much again with layer timings.
    CpuRotation cpus;
    const double untraced_budget =
        args.trace ? args.seconds / 2 : args.seconds;
    u32 width = 1;
    double spent = 0;
    resetPeakRss();
    do {
        const LongRound round =
            longRound(program, store_path, false, cpus, report);
        report.sample("round_s", round.seconds);
        spent += round.seconds;
        width = round.width;
    } while (spent < untraced_budget);
    if (args.trace) {
        spent = 0;
        do {
            const LongRound round =
                longRound(program, store_path, true, cpus, report);
            report.sample("traced.round_s", round.seconds);
            spent += round.seconds;
        } while (spent < args.seconds - untraced_budget);
    } else {
        // Traced rounds compare the engines as they go; otherwise
        // once, outside the peak-memory window.
        report.sample("peak_rss_mb", peakRssMb("self"));
        compareEngines(store_path, width, false, report);
    }
}

// ============================================================== serve

constexpr const char *kServeCore = "rocket";
/** Closed-loop client connections, each on its own thread. */
constexpr u32 kServeClients = 2;
constexpr u32 kServeShards = 2;
constexpr u32 kWindowEvery = 4;
constexpr u32 kWindowCount = 64;
/**
 * CPUs the serve workload runs on. With more CPUs than runnable
 * threads, every request wakes an idle vCPU, and that wake-up cost
 * follows the host's load: hit p50 read 0.16-0.26 ms in runs minutes
 * apart on a 4-vCPU host, and 0.13-0.16 ms interleaved with them on
 * two CPUs.
 */
constexpr u32 kServeCpus = 2;
/** The store the window queries read: a rocket run captured at setup. */
constexpr const char *kWindowWorkload = "coremark";

/**
 * A live `icicled serve` child. The destructor always shuts it down,
 * reaps it (SIGKILL after a grace period) and removes its socket and
 * cache directory.
 */
class Daemon
{
  public:
    Daemon(const std::string &binary, const std::string &dir)
        : socketPath(dir + "/d.sock"), cacheDir(dir + "/cache"),
          logPath(dir + "/icicled.log")
    {
        std::filesystem::remove_all(cacheDir);
        std::filesystem::remove(socketPath);
        pid = ::fork();
        if (pid < 0)
            fatal("cannot fork icicled");
        if (pid == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            std::FILE *log = std::fopen(logPath.c_str(), "w");
            if (log) {
                ::dup2(::fileno(log), 1);
                ::dup2(::fileno(log), 2);
            }
            const std::string shards = std::to_string(kServeShards);
            ::execl(binary.c_str(), binary.c_str(), "serve",
                    "--socket", socketPath.c_str(), "--cache-dir",
                    cacheDir.c_str(), "--shards", shards.c_str(),
                    static_cast<char *>(nullptr));
            ::_exit(127);
        }
    }

    ~Daemon()
    {
        if (pid > 0) {
            try {
                ClientOptions options;
                options.maxRetries = 0;
                options.attemptTimeoutMs = 2'000;
                ServeClient(socketPath, options).shutdown();
            } catch (const std::exception &) {
                // Not answering: the kill below reaps it.
            }
            const Clock::time_point start = Clock::now();
            int status = 0;
            while (::waitpid(pid, &status, WNOHANG) == 0) {
                if (secondsSince(start) > 5) {
                    ::kill(pid, SIGKILL);
                    ::waitpid(pid, &status, 0);
                    break;
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
            }
        }
        std::error_code ignored;
        std::filesystem::remove(socketPath, ignored);
        std::filesystem::remove_all(cacheDir, ignored);
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Poll until the daemon answers a ping (fatal after 30 s). */
    void
    waitReady() const
    {
        const Clock::time_point start = Clock::now();
        ClientOptions options;
        options.maxRetries = 0;
        for (;;) {
            try {
                if (ServeClient(socketPath, options).ping("ready") ==
                    "ready")
                    return;
            } catch (const FatalError &) {
            }
            int status = 0;
            if (::waitpid(pid, &status, WNOHANG) == pid) {
                pid = -1;
                fatal("icicled exited during start-up (see ", logPath,
                      ")");
            }
            if (secondsSince(start) > 30)
                fatal("icicled did not answer a ping within 30 s");
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
        }
    }

    /** The daemon's `stats` counters. */
    std::map<std::string, double>
    stats() const
    {
        std::map<std::string, double> counters;
        std::istringstream in(ServeClient(socketPath).stats());
        std::string line;
        while (std::getline(in, line)) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                counters[line.substr(0, colon)] =
                    std::stod(line.substr(colon + 1));
        }
        return counters;
    }

    std::string socketPath;
    std::string cacheDir;
    std::string logPath;
    mutable pid_t pid = -1;
};

/** The single-point grid a cold or hot request names. */
GridSpec
pointGrid(const std::string &workload)
{
    GridSpec grid;
    grid.cores = {kServeCore};
    grid.workloads = {workload};
    grid.counterArchs = {CounterArch::AddWires};
    return grid;
}

/** Warm in-process runSweep repeats behind serve.miss_overhead_us. */
constexpr int kReferenceRepeats = 5;

SweepQuery
pointQuery(const std::string &workload, u64 seed)
{
    SweepQuery query;
    query.cores = {kServeCore};
    query.workloads = {workload};
    query.archs = {CounterArch::AddWires};
    query.seed = seed;
    query.format = "csv";
    return query;
}

/** In-process result of one single-point sweep: the oracle. */
struct Reference
{
    std::string csv;
    SweepResult result;
};

struct ColdKey
{
    u32 workload = 0;
    u64 seed = 0;
};

/** What one client thread saw during a phase. */
struct ClientLog
{
    std::vector<ColdKey> keys;
    u64 retries = 0;
    u64 sheds = 0;
    u64 timeouts = 0;
    std::vector<std::string> failures;
    std::vector<double> hitUs;
    std::vector<double> windowUs;
    /** Latency of each accepted miss, aligned with `keys`. */
    std::vector<double> missUs;
    /** Requests sent, and replies received. */
    u64 attempts = 0;
    u64 requests = 0;
    /** Traced hot phase: in-process hit-path layer timings. */
    std::map<std::string, std::vector<double>> layers;
};

struct ServeContext
{
    std::string socketPath;
    std::string cacheDir;
    std::string scratchCacheDir;
    std::string storePath;
    u32 storeWidth = 1;
    std::vector<std::string> workloads;
    std::vector<Reference> references;
    std::vector<std::pair<u64, u64>> windows;
    std::vector<std::string> windowKeys;
};

/** Frame header (magic u32, type u8, length u32) and CRC trailer. */
constexpr size_t kFrameHeader = 9;
constexpr size_t kFrameTrailer = 4;

std::string
framePayload(const std::string &frame)
{
    return frame.substr(kFrameHeader,
                        frame.size() - kFrameHeader - kFrameTrailer);
}

/**
 * The hit path as the daemon runs it, timed layer by layer on the
 * real query and reply: protocol, validation, cache key, lookup,
 * render. Runs on the client thread between requests, so it never
 * overlaps the request it describes.
 */
void
timeHitLayers(const SweepQuery &query,
              const SweepReply &reply, const ResultCache &cache,
              ClientLog &log)
{
    Clock::time_point start = Clock::now();
    const std::string query_frame =
        encodeFrame(MsgType::SweepRequest, encodeSweepQuery(query));
    SweepQuery decoded;
    bool decoded_ok = decodeSweepQuery(framePayload(query_frame), decoded);
    const std::string reply_frame =
        encodeFrame(MsgType::SweepResponse, encodeSweepReply(reply));
    SweepReply reply_decoded;
    decoded_ok &= decodeSweepReply(framePayload(reply_frame), reply_decoded);
    log.layers["serve.protocol_us"].push_back(microsSince(start));
    if (!decoded_ok || reply_decoded.report != reply.report)
        log.failures.push_back("in-process protocol round trip failed");

    start = Clock::now();
    const std::vector<std::string> known = sweepCoreNames();
    for (const std::string &core : decoded.cores) {
        if (std::find(known.begin(), known.end(), core) == known.end())
            log.failures.push_back("unknown core " + core);
    }
    const Clock::time_point build = Clock::now();
    for (const std::string &workload : decoded.workloads)
        buildWorkload(workload);
    log.layers["workloads.build_us"].push_back(microsSince(build));
    log.layers["serve.validate_us"].push_back(microsSince(start));

    GridSpec grid;
    grid.cores = decoded.cores;
    grid.workloads = decoded.workloads;
    grid.counterArchs = decoded.archs;
    grid.maxCycles = decoded.maxCycles;
    const SweepPoint point = grid.expand().at(0);
    start = Clock::now();
    const ServeKey key = serveCacheKey(point, decoded.seed);
    log.layers["serve.cache.key_us"].push_back(microsSince(start));

    std::vector<SweepResult> results(1);
    start = Clock::now();
    const bool found = cache.lookup(key, results[0]);
    log.layers["serve.cache.lookup_us"].push_back(microsSince(start));
    if (!found)
        log.failures.push_back("in-process lookup missed a hot key");
    results[0].index = 0;
    results[0].point = point;
    results[0].label = sweepPointLabel(point);

    start = Clock::now();
    const std::string csv = formatSweepCsv(results, false);
    log.layers["serve.render_us"].push_back(microsSince(start));
    if (csv != reply.report)
        log.failures.push_back("in-process render differs from reply");
}

/**
 * The cold phase: every request is a single-point sweep under a
 * fresh seed, so it misses and simulates. Workloads rotate round
 * robin, so the latency mix is the same in every run.
 */
void
coldClient(const ServeContext &ctx, u32 client, u64 seed_base,
           double seconds, ClientLog &log)
{
    ServeClient conn(ctx.socketPath);
    const u32 n = static_cast<u32>(ctx.workloads.size());
    const Clock::time_point phase = Clock::now();
    for (u64 i = 0; secondsSince(phase) < seconds; i++) {
        ColdKey key;
        key.workload = static_cast<u32>((i + client * (n / 2)) % n);
        key.seed = seed_base + (i << 8) + client;
        const Clock::time_point start = Clock::now();
        SweepReply reply;
        log.attempts++;
        try {
            reply = conn.sweep(pointQuery(ctx.workloads[key.workload],
                                          key.seed));
        } catch (const FatalError &err) {
            log.failures.push_back(std::string("cold: ") + err.what());
            continue;
        }
        const double us = microsSince(start);
        log.requests++;
        const Reference &ref = ctx.references[key.workload];
        if (reply.report != ref.csv || reply.points != 1 ||
            !reply.allOk) {
            log.failures.push_back("cold reply differs for " +
                                   ctx.workloads[key.workload]);
            continue;
        }
        if (reply.simulated != 1) {
            log.failures.push_back("cold request did not miss");
            continue;
        }
        log.missUs.push_back(us);
        log.keys.push_back(key);
    }
    log.retries += conn.retries();
    log.sheds += conn.shedsSeen();
    log.timeouts += conn.timeouts();
}

/**
 * The hot phase: the cold keys again in a seeded order, so every
 * sweep should hit, with a window query every kWindowEvery requests.
 */
void
hotClient(const ServeContext &ctx, const std::vector<ColdKey> &keys,
          u64 seed, double seconds, bool traced, ClientLog &log)
{
    ServeClient conn(ctx.socketPath);
    std::mt19937_64 rng(seed);
    std::vector<ColdKey> order = keys;
    std::shuffle(order.begin(), order.end(), rng);
    const ResultCache cache(ctx.cacheDir);
    u64 sweeps = 0;
    const Clock::time_point phase = Clock::now();
    for (u64 i = 0; secondsSince(phase) < seconds; i++) {
        if (i % kWindowEvery == kWindowEvery - 1) {
            const size_t w = rng() % ctx.windows.size();
            WindowQuery query;
            query.storePath = ctx.storePath;
            query.begin = ctx.windows[w].first;
            query.end = ctx.windows[w].second;
            query.coreWidth = ctx.storeWidth;
            const Clock::time_point start = Clock::now();
            WindowReply reply;
            log.attempts++;
            try {
                reply = conn.windowTma(query);
            } catch (const FatalError &err) {
                log.failures.push_back(std::string("window: ") +
                                       err.what());
                continue;
            }
            const double us = microsSince(start);
            log.requests++;
            if (tmaKey(reply.tma) != ctx.windowKeys[w]) {
                log.failures.push_back("window reply differs");
                continue;
            }
            log.windowUs.push_back(us);
            continue;
        }
        const ColdKey &key = order[sweeps++ % order.size()];
        const SweepQuery query =
            pointQuery(ctx.workloads[key.workload], key.seed);
        const Clock::time_point start = Clock::now();
        SweepReply reply;
        log.attempts++;
        try {
            reply = conn.sweep(query);
        } catch (const FatalError &err) {
            log.failures.push_back(std::string("hot: ") + err.what());
            continue;
        }
        const double us = microsSince(start);
        log.requests++;
        if (reply.report != ctx.references[key.workload].csv ||
            reply.points != 1 || !reply.allOk) {
            log.failures.push_back("hot reply differs for " +
                                   ctx.workloads[key.workload]);
            continue;
        }
        if (reply.cacheHits != 1) {
            log.failures.push_back("hot request missed the cache");
            continue;
        }
        log.hitUs.push_back(us);
        if (traced)
            timeHitLayers(query, reply, cache, log);
    }
    log.retries += conn.retries();
    log.sheds += conn.shedsSeen();
    log.timeouts += conn.timeouts();
}

/** Fold the client logs of one phase into the report. */
void
mergeLogs(std::vector<ClientLog> &logs, const std::string &prefix,
          Report &report)
{
    for (ClientLog &log : logs) {
        report.attempted += log.attempts;
        for (const std::string &failure : log.failures)
            report.fail(failure);
        for (double us : log.hitUs)
            report.sample(prefix + "hit_us", us);
        for (double us : log.windowUs)
            report.sample(prefix + "window_us", us);
        for (double us : log.missUs)
            report.sample("miss_us", us);
        for (const auto &[name, list] : log.layers) {
            for (double us : list)
                report.sample(name, us);
        }
        report.add("client.retries", static_cast<double>(log.retries));
        report.add("client.sheds", static_cast<double>(log.sheds));
        report.add("client.timeouts",
                   static_cast<double>(log.timeouts));
        // Retries, sheds and timeouts count against the run.
        report.fail("client retry, shed or timeout",
                    log.retries + log.sheds + log.timeouts);
    }
}

/** Run `body(client, log)` on kServeClients threads; returns wall s. */
template <typename Body>
double
runClients(std::vector<ClientLog> &logs, Body body)
{
    logs.assign(kServeClients, ClientLog{});
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (u32 c = 0; c < kServeClients; c++)
        threads.emplace_back([&, c] {
            try {
                body(c, logs[c]);
            } catch (const std::exception &err) {
                logs[c].failures.push_back(err.what());
            }
        });
    for (std::thread &thread : threads)
        thread.join();
    return secondsSince(start);
}

/** Capture the store the window queries read. */
u32
captureWindowStore(const std::string &path)
{
    const Program program = buildWorkload(kWindowWorkload);
    std::unique_ptr<Core> core =
        makeSweepCore(kServeCore, CounterArch::AddWires, program);
    const TraceSpec spec = TraceSpec::tmaBundle(*core);
    StoreWriter sink(spec, path);
    streamTraceRun(*core, spec, kLongMaxCycles, sink);
    return core->coreWidth();
}

/**
 * Confine this thread, and so every thread and process it starts
 * later (the daemon, its workers, the clients), to the first
 * kServeCpus CPUs it may use.
 */
void
confineServeCpus()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    u32 kept = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE && kept < kServeCpus; cpu++) {
        if (CPU_ISSET(cpu, &allowed)) {
            CPU_SET(cpu, &set);
            kept++;
        }
    }
    ::sched_setaffinity(0, sizeof(set), &set);
}

void
runServe(const Args &args, Report &report)
{
    confineServeCpus();
    ServeContext ctx;
    ctx.workloads = workloadNames("micro");
    ctx.storePath = std::filesystem::absolute(args.runDir + "/window.icst");
    ctx.scratchCacheDir = args.runDir + "/publish-cache";

    // Reference outputs first: they are the oracle, not part of the
    // system's set-up or of any timing.
    for (const std::string &workload : ctx.workloads) {
        Reference ref;
        std::vector<SweepResult> results = runSweep(pointGrid(workload));
        ref.csv = formatSweepCsv(results, false);
        ref.result = results.at(0);
        if (ref.result.status != SweepStatus::Ok)
            fatal("reference run of ", workload, " failed");
        ctx.references.push_back(ref);
    }

    // Set-up: spawn the daemon, wait for its ping, capture the
    // window store. Repeated here and again after the phases; the
    // last daemon set up here serves the phases.
    std::unique_ptr<Daemon> daemon;
    auto setup = [&] {
        daemon.reset();
        const Clock::time_point start = Clock::now();
        daemon = std::make_unique<Daemon>(args.icicled, args.runDir);
        daemon->waitReady();
        ctx.storeWidth = captureWindowStore(ctx.storePath);
        report.sample("setup_s", secondsSince(start));
    };
    for (int i = 0; i < kSetupRepeats; i++)
        setup();
    ctx.socketPath = daemon->socketPath;
    ctx.cacheDir = daemon->cacheDir;

    // Window positions from the seed, and their in-process answers.
    {
        const StoreReader reader(ctx.storePath);
        std::mt19937_64 rng(args.seed * 0x9e3779b97f4a7c15ull + 7);
        const u64 cycles = reader.numCycles();
        for (u32 i = 0; i < kWindowCount; i++) {
            const u64 length = 2'000 + rng() % (cycles / 4);
            const u64 begin = rng() % (cycles - length);
            ctx.windows.emplace_back(begin, begin + length);
            ctx.windowKeys.push_back(
                tmaKey(reader.windowTma(begin, begin + length,
                                        ctx.storeWidth)));
        }
    }

    // Cold phase a third of the time, hot phase the rest; a traced
    // run splits the hot phase into an untraced and a traced half.
    const double cold_s = args.seconds / 3;
    const double hot_s = args.seconds - cold_s;
    const u64 seed_base = (args.seed & 0xffffffffull) << 24;

    std::map<std::string, double> before = daemon->stats();
    std::vector<ClientLog> logs;
    runClients(logs, [&](u32 c, ClientLog &log) {
        coldClient(ctx, c, seed_base, cold_s, log);
    });
    std::map<std::string, double> after = daemon->stats();
    std::vector<ColdKey> keys;
    std::vector<double> miss_us;
    for (const ClientLog &log : logs) {
        keys.insert(keys.end(), log.keys.begin(), log.keys.end());
        miss_us.insert(miss_us.end(), log.missUs.begin(),
                       log.missUs.end());
    }
    mergeLogs(logs, "", report);
    report.values["serve.jobs_per_miss"] =
        (after["jobs_simulated"] - before["jobs_simulated"]) /
        std::max(1.0, after["cache_misses"] - before["cache_misses"]);
    if (keys.empty())
        fatal("the cold phase completed no request");

    auto hot_phase = [&](const std::string &prefix, double seconds,
                         bool traced) {
        before = daemon->stats();
        const double wall =
            runClients(logs, [&](u32 c, ClientLog &log) {
                hotClient(ctx, keys, args.seed * 31 + c, seconds,
                          traced, log);
            });
        after = daemon->stats();
        u64 requests = 0;
        for (const ClientLog &log : logs)
            requests += log.requests;
        mergeLogs(logs, prefix, report);
        report.values[prefix + "hot_s"] = wall;
        report.values[prefix + "hot_requests"] =
            static_cast<double>(requests);
        const double points = after["points"] - before["points"];
        const double hits = after["cache_hits"] - before["cache_hits"];
        report.values[prefix + "serve.hit_share"] =
            points > 0 ? hits / points : 0;
        report.fail("hot-phase cache miss",
                    static_cast<u64>(after["cache_misses"] -
                                     before["cache_misses"]));
    };
    hot_phase("", args.trace ? hot_s / 2 : hot_s, false);
    if (args.trace)
        hot_phase("traced.", hot_s / 2, true);

    const std::map<std::string, double> final_stats = daemon->stats();
    report.values["serve.errors"] = final_stats.at("errors");
    report.values["serve.sheds"] =
        final_stats.at("shed_conns") + final_stats.at("shed_requests");
    report.values["serve.worker_restarts"] =
        final_stats.at("worker_restarts");
    for (const char *counter :
         {"errors", "shed_conns", "shed_requests", "worker_restarts",
          "publish_failures"}) {
        report.fail(std::string("daemon ") + counter,
                    static_cast<u64>(final_stats.at(counter)));
    }
    report.sample("peak_rss_mb", peakRssMb(std::to_string(daemon->pid)));

    if (args.trace) {
        // Store-engine cost of the same windows, in-process.
        const StoreReader reader(ctx.storePath);
        for (const auto &[begin, end] : ctx.windows) {
            const Clock::time_point start = Clock::now();
            reader.windowTma(begin, end, ctx.storeWidth);
            report.sample("store.window_us", microsSince(start));
        }
        // Publish cost on the miss path, into a scratch directory.
        const ResultCache scratch(ctx.scratchCacheDir);
        for (size_t i = 0; i < keys.size(); i++) {
            const ColdKey &key = keys[i];
            SweepPoint point;
            point.core = kServeCore;
            point.workload = ctx.workloads[key.workload];
            point.counterArch = CounterArch::AddWires;
            const ServeKey cache_key = serveCacheKey(point, key.seed);
            const Clock::time_point start = Clock::now();
            scratch.publish(cache_key,
                            ctx.references[key.workload].result);
            report.sample("serve.cache.publish_us", microsSince(start));
        }
        // Miss overhead: each miss minus the warm in-process runSweep
        // time of the same point (median of kReferenceRepeats).
        std::vector<double> warm_us;
        for (const std::string &workload : ctx.workloads) {
            std::vector<double> times;
            for (int i = 0; i < kReferenceRepeats; i++) {
                const Clock::time_point start = Clock::now();
                runSweep(pointGrid(workload));
                times.push_back(microsSince(start));
            }
            std::sort(times.begin(), times.end());
            warm_us.push_back(times[times.size() / 2]);
        }
        for (size_t i = 0; i < keys.size(); i++)
            report.sample("serve.miss_overhead_us",
                          miss_us[i] - warm_us[keys[i].workload]);
    }
    for (int i = 0; i < kServeLateSetupRepeats; i++)
        setup();
    daemon.reset();
    std::error_code ignored;
    std::filesystem::remove_all(ctx.scratchCacheDir, ignored);
    std::filesystem::remove(ctx.storePath, ignored);
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    if (argc < 2)
        return false;
    args.workload = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--seed")
            args.seed = std::stoull(value);
        else if (flag == "--seconds")
            args.seconds = std::stod(value);
        else if (flag == "--trace")
            args.trace = value == "1";
        else if (flag == "--run-dir")
            args.runDir = value;
        else if (flag == "--icicled")
            args.icicled = value;
        else
            return false;
    }
    return !args.runDir.empty() && args.seconds > 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::string(argv[1]) == "longsim-setup") {
        try {
            std::printf("%s\n", jsonNumber(longsimSetupOnce()).c_str());
            return 0;
        } catch (const std::exception &err) {
            std::fprintf(stderr, "perfbench: %s\n", err.what());
            return 1;
        }
    }
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench campaign|longsim|serve "
                     "--run-dir DIR [--seed N] [--seconds S] "
                     "[--trace 0|1] [--icicled PATH]\n");
        return 2;
    }
    std::filesystem::create_directories(args.runDir);
    Report report;
    try {
        if (args.workload == "campaign")
            runCampaign(args, report);
        else if (args.workload == "longsim")
            runLongsim(args, report);
        else if (args.workload == "serve")
            runServe(args, report);
        else
            fatal("unknown workload ", args.workload);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "perfbench: %s\n", err.what());
        return 1;
    }
    std::printf("%s\n", report.json().c_str());
    return 0;
}
