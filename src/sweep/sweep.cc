#include "sweep/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>

#include "boom/boom.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/sync.hh"
#include "core/session.hh"
#include "fault/fault.hh"
#include "rocket/rocket.hh"
#include "sweep/journal.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

namespace icicle
{

const char *
sweepStatusName(SweepStatus status)
{
    switch (status) {
      case SweepStatus::Ok: return "ok";
      case SweepStatus::Failed: return "failed";
      case SweepStatus::Timeout: return "timeout";
      default: return "?";
    }
}

// ------------------------------------------------- named core configs

std::vector<std::string>
sweepCoreNames()
{
    return {"rocket",    "boom-small", "boom-medium",
            "boom-large", "boom-mega",  "boom-giga"};
}

std::unique_ptr<Core>
makeSweepCore(const std::string &name, CounterArch arch,
              const Program &program)
{
    if (name == "rocket") {
        RocketConfig config;
        config.counterArch = arch;
        return std::make_unique<RocketCore>(config, program);
    }
    BoomConfig config;
    if (name == "boom-small")
        config = BoomConfig::small();
    else if (name == "boom-medium")
        config = BoomConfig::medium();
    else if (name == "boom-large")
        config = BoomConfig::large();
    else if (name == "boom-mega")
        config = BoomConfig::mega();
    else if (name == "boom-giga")
        config = BoomConfig::giga();
    else
        fatal("unknown core config '", name,
              "' (try icicle-sweep --list)");
    config.counterArch = arch;
    return std::make_unique<BoomCore>(config, program);
}

CounterArch
parseCounterArch(const std::string &name)
{
    if (name == "scalar")
        return CounterArch::Scalar;
    if (name == "addwires" || name == "add-wires")
        return CounterArch::AddWires;
    if (name == "distributed")
        return CounterArch::Distributed;
    fatal("unknown counter architecture '", name,
          "' (scalar, addwires, distributed)");
}

std::string
sweepTracePath(const std::string &dir, const std::string &label)
{
    std::string name = label;
    for (char &c : name) {
        if (c == '/' || c == ' ')
            c = '_';
    }
    return dir + "/" + name + ".icst";
}

std::string
sweepPointLabel(const SweepPoint &point)
{
    return point.core + "/" + point.workload + "/" +
           counterArchName(point.counterArch);
}

// ----------------------------------------------------- grid expansion

std::vector<SweepPoint>
GridSpec::expand() const
{
    std::vector<SweepPoint> points;
    points.reserve(cores.size() * workloads.size() *
                   counterArchs.size());
    for (const std::string &core : cores) {
        for (const std::string &workload : workloads) {
            for (CounterArch arch : counterArchs) {
                SweepPoint point;
                point.core = core;
                point.workload = workload;
                point.counterArch = arch;
                point.maxCycles = maxCycles;
                point.withTrace = withTrace;
                points.push_back(point);
            }
        }
    }
    return points;
}

namespace
{

SweepJob
jobForPoint(const SweepPoint &point,
            const std::function<Program(const std::string &)> &programFor)
{
    SweepJob job;
    job.label = sweepPointLabel(point);
    job.maxCycles = point.maxCycles;
    job.withTrace = point.withTrace;
    job.point = point;
    job.make = [point, programFor] {
        return makeSweepCore(point.core, point.counterArch,
                             programFor ? programFor(point.workload)
                                        : buildWorkload(point.workload));
    };
    return job;
}

// ------------------------------------------------------ job execution

using Clock = std::chrono::steady_clock;

/**
 * One attempt for `members` (indices into `jobs` that differ only in
 * counter architecture): build members[0]'s core, run it in chunks
 * against the deadline, analyze, and fan the result out to every
 * member. If the program read an HPM counter its timing may depend on
 * the architecture, so the result covers members[0] only. Throws
 * FatalError upward; the retry loop in runJob() handles it.
 */
std::vector<SweepResult>
runAttempt(const std::vector<SweepJob> &jobs,
           const std::vector<u64> &members, const SweepOptions &options,
           FaultPlan::JobDecision decision)
{
    const u64 index = members[0];
    const SweepJob &job = jobs[index];
    SweepResult result;
    const Clock::time_point start = Clock::now();
    const bool bounded = options.timeoutSec > 0;
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        bounded ? options.timeoutSec : 0));

    // Fault hooks, keyed on the grid index so they are reproducible
    // at any worker count: an injected failure exercises the retry
    // path, an injected hang exercises the timeout path.
    if (decision.fail)
        fatal("sweep job '", job.label,
              "': injected fault (fail@job#", index, ")");

    std::unique_ptr<Core> core = job.make();
    if (!core)
        fatal("sweep job '", job.label, "': factory returned null");

    std::unique_ptr<Trace> trace;
    std::function<void(Cycle, const EventBus &)> hook;
    if (job.withTrace) {
        trace = std::make_unique<Trace>(TraceSpec::tmaBundle(*core));
        hook = [&trace](Cycle, const EventBus &bus) {
            trace->capture(bus);
        };
    }

    // Run in chunkCycles slices so a pathological config hits the
    // deadline between slices instead of hanging the worker.
    const u64 chunk = std::max<u64>(1, options.chunkCycles);
    u64 simulated = 0;
    bool timed_out = false;
    if (decision.hang) {
        // An injected hang: stall to the deadline when the job is
        // bounded (so the cooperative timeout fires), or for a
        // bounded beat when it is not (so unbounded campaigns still
        // terminate).
        if (bounded) {
            while (Clock::now() < deadline)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            timed_out = true;
        } else {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(200));
        }
    }
    while (!timed_out && !core->done() && simulated < job.maxCycles) {
        const u64 step = std::min(chunk, job.maxCycles - simulated);
        simulated += core->run(step, hook);
        if (bounded && Clock::now() >= deadline && !core->done()) {
            timed_out = true;
            break;
        }
    }

    result.cycles = simulated;
    result.finished = core->done();
    result.exitCode =
        core->executor().halted() ? core->executor().exitCode() : 0;
    result.counters = gatherTmaCounters(*core);
    result.tma = analyzeTma(*core);
    result.ipc = result.cycles
                     ? static_cast<double>(result.counters.retiredUops) /
                           static_cast<double>(result.cycles)
                     : 0.0;
    if (trace) {
        TraceAnalyzer analyzer(*trace);
        result.recoverySequences = analyzer.recoveryCdf().sequences();
        result.overlapFraction =
            analyzer.overlapUpperBound(core->coreWidth())
                .overlapFraction;
    }
    result.status =
        timed_out ? SweepStatus::Timeout : SweepStatus::Ok;
    if (timed_out)
        result.error = "exceeded per-job timeout";

    const u64 fanout =
        core->csrFile().hpmReadInBand() ? 1 : members.size();
    std::vector<SweepResult> results(fanout, result);
    for (u64 m = 0; m < fanout; m++) {
        results[m].index = members[m];
        if (!trace || options.traceOutDir.empty())
            continue;
        if (timed_out) {
            // Timed-out traces are wall-clock dependent; writing them
            // would break the byte-identical guarantee across
            // workers. The skip is recorded, not silent.
            results[m].traceSkipped = "timeout: partial trace not stored";
            continue;
        }
        const std::string path =
            sweepTracePath(options.traceOutDir, jobs[members[m]].label);
        trace->toStore(path);
        const auto slash = path.find_last_of('/');
        results[m].traceStore =
            slash == std::string::npos ? path : path.substr(slash + 1);
    }
    const double wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    for (SweepResult &row : results)
        row.wallMs = wall_ms / static_cast<double>(fanout);
    return results;
}

/**
 * Attempt/retry loop: never throws. Attempt 1 uses `first`, the fault
 * decision already drawn for members[0]. Returns a prefix of
 * `members`' results (all of them unless the HPM-read guard fired).
 */
std::vector<SweepResult>
runJob(const std::vector<SweepJob> &jobs,
       const std::vector<u64> &members, const SweepOptions &options,
       FaultPlan::JobDecision first)
{
    const u32 max_attempts = std::max(1u, options.maxAttempts);
    std::string error;
    for (u32 attempt = 1; attempt <= max_attempts; attempt++) {
        try {
            std::vector<SweepResult> results = runAttempt(
                jobs, members, options,
                attempt == 1 ? first : faultPlan().onJob(members[0]));
            for (SweepResult &result : results)
                result.attempts = attempt;
            return results;
        } catch (const std::exception &err) {
            error = err.what();
        }
    }
    std::vector<SweepResult> results(members.size());
    for (u64 m = 0; m < members.size(); m++) {
        results[m].index = members[m];
        results[m].status = SweepStatus::Failed;
        results[m].attempts = max_attempts;
        results[m].error = error;
    }
    return results;
}

/**
 * Run the unrestored jobs of one unit (jobs [begin, end), which
 * differ only in counter architecture) and return their results in
 * index order. A job with an injected fault runs alone; the rest
 * share one simulation, and any the HPM-read guard leaves out go
 * round again with the next of them as lead.
 */
std::vector<SweepResult>
runUnit(const std::vector<SweepJob> &jobs, u64 begin, u64 end,
        const std::vector<bool> &restored, const SweepOptions &options)
{
    std::vector<SweepResult> results;
    std::vector<u64> shared;
    for (u64 i = begin; i < end; i++) {
        if (restored[i])
            continue;
        const FaultPlan::JobDecision decision = faultPlan().onJob(i);
        if (decision.fail || decision.hang) {
            results.push_back(
                std::move(runJob(jobs, {i}, options, decision)[0]));
        } else {
            shared.push_back(i);
        }
    }
    while (!shared.empty()) {
        std::vector<SweepResult> part = runJob(jobs, shared, options, {});
        shared.erase(shared.begin(), shared.begin() + part.size());
        for (SweepResult &result : part)
            results.push_back(std::move(result));
    }
    std::sort(results.begin(), results.end(),
              [](const SweepResult &a, const SweepResult &b) {
                  return a.index < b.index;
              });
    return results;
}

// ------------------------------------------------------------ engine

/**
 * Run `jobs` as units: unit u is jobs [starts[u], starts[u + 1]),
 * the last one ending at jobs.size(). Results come back in job order.
 */
std::vector<SweepResult>
runUnits(const std::vector<SweepJob> &jobs, const std::vector<u64> &starts,
         const SweepOptions &options)
{
    const u64 num_jobs = jobs.size();
    std::vector<SweepResult> results(num_jobs);
    if (num_jobs == 0)
        return results;

    // Journal: restore completed points before any worker starts.
    // Only Ok points are served from the journal; Failed/Timeout
    // rows re-run (that is the point of resuming).
    SweepJournal journal;
    std::vector<bool> restored(num_jobs, false);
    if (!options.journalPath.empty()) {
        const u32 grid_hash = sweepGridHash(jobs);
        if (options.resume) {
            u64 reused = 0;
            for (SweepResult &result : journal.resume(
                     options.journalPath, grid_hash, num_jobs)) {
                const u64 index = result.index;
                if (result.status != SweepStatus::Ok)
                    continue;
                result.label = jobs[index].label;
                result.point = jobs[index].point;
                if (!restored[index])
                    reused++;
                restored[index] = true;
                results[index] = std::move(result);
            }
            if (reused)
                inform("sweep journal: restored ", reused, " of ",
                       num_jobs, " points; re-running the rest");
            if (options.onResult) {
                for (u64 i = 0; i < num_jobs; i++) {
                    if (restored[i])
                        options.onResult(results[i]);
                }
            }
        } else {
            journal.create(options.journalPath, grid_hash, num_jobs);
        }
    }

    const u64 num_units = starts.size();
    std::atomic<u64> cursor{0};
    Mutex callback_mutex("sweep.callback", lockrank::kSweepCallback);

    auto work = [&] {
        for (;;) {
            const u64 unit =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (unit >= num_units)
                return;
            const u64 end =
                unit + 1 < num_units ? starts[unit + 1] : num_jobs;
            for (SweepResult &result :
                 runUnit(jobs, starts[unit], end, restored, options)) {
                const u64 index = result.index;
                result.label = jobs[index].label;
                result.point = jobs[index].point;
                // Distinct slots: no lock needed for the store itself.
                results[index] = std::move(result);
                if (journal.isOpen() || options.onResult) {
                    LockGuard lock(callback_mutex);
                    // Journal first: a record implies the row (and
                    // its trace store, already renamed into place) is
                    // durable before the user sees it reported.
                    journal.append(results[index]);
                    if (options.onResult)
                        options.onResult(results[index]);
                }
            }
        }
    };

    const u32 workers = static_cast<u32>(std::min<u64>(
        std::max(1u, options.workers), num_units));
    if (workers <= 1) {
        work();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (u32 w = 0; w < workers; w++)
            pool.emplace_back(work);
        for (std::thread &thread : pool)
            thread.join();
    }
    return results;
}

} // namespace

std::vector<SweepResult>
runSweepJobs(const std::vector<SweepJob> &jobs,
             const SweepOptions &options)
{
    // Caller-built factories are opaque: one job per unit.
    std::vector<u64> starts(jobs.size());
    for (u64 i = 0; i < starts.size(); i++)
        starts[i] = i;
    return runUnits(jobs, starts, options);
}

std::vector<SweepResult>
runSweep(const GridSpec &grid, const SweepOptions &options,
         const std::function<Program(const std::string &)> &programFor)
{
    // Points that differ only in counterArch (adjacent: archs are the
    // innermost axis; budget and trace flag are grid-wide) form one
    // unit. The architecture observes the event bus and never changes
    // timing, so the unit simulates once (see runAttempt for the
    // guard).
    std::vector<SweepJob> jobs;
    std::vector<u64> starts;
    for (const SweepPoint &point : grid.expand()) {
        const SweepPoint *prev =
            jobs.empty() ? nullptr : &jobs.back().point;
        if (!prev || prev->core != point.core ||
            prev->workload != point.workload)
            starts.push_back(jobs.size());
        jobs.push_back(jobForPoint(point, programFor));
    }
    return runUnits(jobs, starts, options);
}

// ----------------------------------------------------- serialization

namespace
{

/**
 * Locale-independent shortest-round-trip double. Deterministic for a
 * given value, which is what the byte-identical guarantee needs.
 */
std::string
fmtDouble(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    return buf;
}

std::string
csvEscape(const std::string &text)
{
    if (text.find_first_of(",\"\n") == std::string::npos)
        return text;
    std::string escaped = "\"";
    for (char c : text) {
        if (c == '"')
            escaped += '"';
        escaped += c;
    }
    escaped += '"';
    return escaped;
}

} // namespace

std::string
formatSweepTable(const std::vector<SweepResult> &results, bool timing)
{
    std::ostringstream os;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  %-4s %-36s %-8s %12s %7s %7s %7s %7s %7s\n",
                  "idx", "label", "status", "cycles", "ipc", "ret%",
                  "bad%", "fe%", "be%");
    os << line;
    for (const SweepResult &r : results) {
        std::snprintf(line, sizeof(line),
                      "  %-4llu %-36s %-8s %12llu %7.3f %7.2f %7.2f "
                      "%7.2f %7.2f",
                      static_cast<unsigned long long>(r.index),
                      r.label.c_str(), sweepStatusName(r.status),
                      static_cast<unsigned long long>(r.cycles), r.ipc,
                      r.tma.retiring * 100, r.tma.badSpeculation * 100,
                      r.tma.frontend * 100, r.tma.backend * 100);
        os << line;
        if (timing) {
            std::snprintf(line, sizeof(line), "  %8.1fms", r.wallMs);
            os << line;
        }
        if (!r.error.empty())
            os << "  [" << r.error << "]";
        os << "\n";
    }
    return os.str();
}

std::string
formatSweepCsv(const std::vector<SweepResult> &results, bool timing)
{
    std::ostringstream os;
    os << "index,label,core,workload,arch,status,attempts,cycles,"
          "finished,exit_code,ipc,retiring,bad_speculation,frontend,"
          "backend,"
          "machine_clears,branch_mispredicts,fetch_latency,pc_resteer,"
          "core_bound,mem_bound,recovery_sequences,overlap_fraction,"
          "trace_store,error";
    if (timing)
        os << ",wall_ms";
    os << "\n";
    for (const SweepResult &r : results) {
        os << r.index << ',' << csvEscape(r.label) << ','
           << csvEscape(r.point.core) << ','
           << csvEscape(r.point.workload) << ','
           << counterArchName(r.point.counterArch) << ','
           << sweepStatusName(r.status) << ',' << r.attempts << ','
           << r.cycles << ',' << (r.finished ? 1 : 0) << ','
           << r.exitCode << ','
           << fmtDouble(r.ipc) << ',' << fmtDouble(r.tma.retiring)
           << ',' << fmtDouble(r.tma.badSpeculation) << ','
           << fmtDouble(r.tma.frontend) << ','
           << fmtDouble(r.tma.backend) << ','
           << fmtDouble(r.tma.machineClears) << ','
           << fmtDouble(r.tma.branchMispredicts) << ','
           << fmtDouble(r.tma.fetchLatency) << ','
           << fmtDouble(r.tma.pcResteer) << ','
           << fmtDouble(r.tma.coreBound) << ','
           << fmtDouble(r.tma.memBound) << ','
           << r.recoverySequences << ','
           << fmtDouble(r.overlapFraction) << ','
           << csvEscape(r.traceStore) << ','
           << csvEscape(r.error);
        if (timing)
            os << ',' << fmtDouble(r.wallMs);
        os << "\n";
    }
    return os.str();
}

std::string
formatSweepJson(const std::vector<SweepResult> &results, bool timing)
{
    std::ostringstream os;
    os << "[\n";
    for (u64 i = 0; i < results.size(); i++) {
        const SweepResult &r = results[i];
        os << "  {\"index\": " << r.index << ", \"label\": \""
           << jsonEscape(r.label) << "\", \"core\": \""
           << jsonEscape(r.point.core) << "\", \"workload\": \""
           << jsonEscape(r.point.workload) << "\", \"arch\": \""
           << counterArchName(r.point.counterArch) << "\", "
           << "\"status\": \"" << sweepStatusName(r.status)
           << "\", \"attempts\": " << r.attempts << ", \"cycles\": "
           << r.cycles << ", \"finished\": "
           << (r.finished ? "true" : "false") << ", \"ipc\": "
           << fmtDouble(r.ipc) << ",\n   \"tma\": {\"retiring\": "
           << fmtDouble(r.tma.retiring) << ", \"bad_speculation\": "
           << fmtDouble(r.tma.badSpeculation) << ", \"frontend\": "
           << fmtDouble(r.tma.frontend) << ", \"backend\": "
           << fmtDouble(r.tma.backend) << ", \"core_bound\": "
           << fmtDouble(r.tma.coreBound) << ", \"mem_bound\": "
           << fmtDouble(r.tma.memBound) << "},\n   "
           << "\"recovery_sequences\": " << r.recoverySequences
           << ", \"overlap_fraction\": "
           << fmtDouble(r.overlapFraction);
        if (!r.traceStore.empty())
            os << ", \"trace_store\": \"" << jsonEscape(r.traceStore)
               << "\"";
        else if (!r.traceSkipped.empty())
            os << ", \"trace_store\": null, \"trace_skipped\": \""
               << jsonEscape(r.traceSkipped) << "\"";
        if (timing)
            os << ", \"wall_ms\": " << fmtDouble(r.wallMs);
        if (!r.error.empty())
            os << ", \"error\": \"" << jsonEscape(r.error) << "\"";
        os << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "]\n";
    return os.str();
}

} // namespace icicle
