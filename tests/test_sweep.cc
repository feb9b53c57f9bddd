/**
 * @file
 * Sweep-engine tests: grid expansion order, deterministic aggregation
 * across worker counts (the byte-identical guarantee), retry and
 * timeout handling, custom-job campaigns, the named-config /
 * axis-value helpers, and the counter-architecture grouping (one
 * simulation per (core, workload) must match per-point runs).
 */

#include <atomic>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

#include "common/logging.hh"
#include "fault/fault.hh"
#include "isa/builder.hh"
#include "rocket/rocket.hh"
#include "store/store.hh"
#include "sweep/journal.hh"
#include "sweep/sweep.hh"
#include "workloads/workloads.hh"

namespace icicle
{
namespace
{

using namespace reg;

/** A tiny deterministic loop that halts after `iterations`. */
Program
countLoop(u64 iterations)
{
    ProgramBuilder b("count");
    Label loop = b.newLabel();
    b.li(t2, static_cast<i64>(iterations));
    b.bind(loop);
    b.addi(t2, t2, -1);
    b.bnez(t2, loop);
    b.halt();
    return b.build();
}

/** A program that never halts (timeout fodder). */
Program
endlessLoop()
{
    ProgramBuilder b("endless");
    Label loop = b.newLabel();
    b.bind(loop);
    b.addi(t0, t0, 1);
    b.j(loop);
    return b.build();
}

GridSpec
smallGrid()
{
    GridSpec grid;
    grid.cores = {"rocket", "boom-small"};
    grid.workloads = {"vvadd", "towers"};
    grid.counterArchs = {CounterArch::Scalar, CounterArch::AddWires};
    grid.maxCycles = 400'000; // vvadd on Rocket needs ~210k
    return grid;
}

TEST(GridSpec, ExpandsRowMajor)
{
    const GridSpec grid = smallGrid();
    const std::vector<SweepPoint> points = grid.expand();
    ASSERT_EQ(points.size(), 8u);
    for (const SweepPoint &point : points)
        EXPECT_EQ(point.maxCycles, 400'000u);
    // cores outermost, archs innermost.
    EXPECT_EQ(points[0].core, "rocket");
    EXPECT_EQ(points[0].workload, "vvadd");
    EXPECT_EQ(points[0].counterArch, CounterArch::Scalar);
    EXPECT_EQ(points[1].counterArch, CounterArch::AddWires);
    EXPECT_EQ(points[2].workload, "towers");
    EXPECT_EQ(points[4].core, "boom-small");
    EXPECT_EQ(points[7].core, "boom-small");
    EXPECT_EQ(points[7].workload, "towers");
    EXPECT_EQ(points[7].counterArch, CounterArch::AddWires);
    for (const SweepPoint &point : points)
        EXPECT_FALSE(point.withTrace);
}

TEST(SweepEngine, ResultsArriveInGridOrder)
{
    SweepOptions options;
    options.workers = 4;
    const std::vector<SweepResult> results =
        runSweep(smallGrid(), options);
    ASSERT_EQ(results.size(), 8u);
    for (u64 i = 0; i < results.size(); i++) {
        EXPECT_EQ(results[i].index, i);
        EXPECT_EQ(results[i].status, SweepStatus::Ok);
        EXPECT_TRUE(results[i].finished) << results[i].label;
        EXPECT_GT(results[i].cycles, 0u);
        EXPECT_GT(results[i].ipc, 0.0);
        EXPECT_EQ(results[i].attempts, 1u);
    }
    // Labels follow the row-major expansion.
    EXPECT_EQ(results[0].label, "rocket/vvadd/scalar");
    EXPECT_EQ(results[7].label, "boom-small/towers/add-wires");
}

// The acceptance property: an 8-point grid with 4 workers produces
// byte-identical aggregated output to the same grid with 1 worker.
TEST(SweepEngine, ParallelOutputMatchesSerialByteForByte)
{
    const GridSpec grid = smallGrid();
    SweepOptions serial;
    serial.workers = 1;
    SweepOptions parallel;
    parallel.workers = 4;
    const std::vector<SweepResult> a = runSweep(grid, serial);
    const std::vector<SweepResult> b = runSweep(grid, parallel);
    EXPECT_EQ(formatSweepTable(a), formatSweepTable(b));
    EXPECT_EQ(formatSweepCsv(a), formatSweepCsv(b));
    EXPECT_EQ(formatSweepJson(a), formatSweepJson(b));
    // And the measurements themselves are identical.
    ASSERT_EQ(a.size(), b.size());
    for (u64 i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].cycles, b[i].cycles);
        EXPECT_EQ(a[i].counters.retiredUops,
                  b[i].counters.retiredUops);
        EXPECT_DOUBLE_EQ(a[i].tma.retiring, b[i].tma.retiring);
    }
}

TEST(SweepEngine, MoreWorkersThanJobs)
{
    GridSpec grid;
    grid.cores = {"rocket"};
    grid.workloads = {"vvadd"};
    grid.maxCycles = 100'000;
    SweepOptions options;
    options.workers = 16;
    const std::vector<SweepResult> results = runSweep(grid, options);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, SweepStatus::Ok);
}

TEST(SweepEngine, EmptyJobListIsFine)
{
    EXPECT_TRUE(runSweepJobs({}).empty());
}

TEST(SweepEngine, FailedJobIsRetriedThenRecorded)
{
    SweepJob bad;
    bad.label = "always-fails";
    bad.make = []() -> std::unique_ptr<Core> {
        fatal("deliberate test failure");
    };
    SweepOptions options;
    options.maxAttempts = 3;
    const std::vector<SweepResult> results =
        runSweepJobs({bad}, options);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, SweepStatus::Failed);
    EXPECT_EQ(results[0].attempts, 3u);
    EXPECT_NE(results[0].error.find("deliberate test failure"),
              std::string::npos);
}

TEST(SweepEngine, FlakyJobSucceedsOnRetry)
{
    auto flaky_count = std::make_shared<std::atomic<u32>>(0);
    SweepJob flaky;
    flaky.label = "flaky";
    flaky.maxCycles = 100'000;
    flaky.make = [flaky_count]() -> std::unique_ptr<Core> {
        if (flaky_count->fetch_add(1) == 0)
            fatal("first attempt fails");
        return std::make_unique<RocketCore>(RocketConfig{},
                                            countLoop(100));
    };
    SweepOptions options;
    options.maxAttempts = 2;
    const std::vector<SweepResult> results =
        runSweepJobs({flaky}, options);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, SweepStatus::Ok);
    EXPECT_EQ(results[0].attempts, 2u);
    EXPECT_TRUE(results[0].finished);
}

TEST(SweepEngine, PathologicalJobTimesOutWithoutHangingCampaign)
{
    SweepJob endless;
    endless.label = "endless";
    endless.maxCycles = ~0ull; // would run forever
    endless.make = [] {
        return std::make_unique<RocketCore>(RocketConfig{},
                                            endlessLoop());
    };
    SweepJob good;
    good.label = "good";
    good.maxCycles = 100'000;
    good.make = [] {
        return std::make_unique<RocketCore>(RocketConfig{},
                                            countLoop(100));
    };
    SweepOptions options;
    options.workers = 2;
    options.timeoutSec = 0.05;
    options.chunkCycles = 4096;
    const std::vector<SweepResult> results =
        runSweepJobs({endless, good}, options);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].status, SweepStatus::Timeout);
    EXPECT_FALSE(results[0].finished);
    EXPECT_GT(results[0].cycles, 0u);
    EXPECT_EQ(results[1].status, SweepStatus::Ok);
}

TEST(SweepEngine, CompletionCallbackSeesEveryJobExactlyOnce)
{
    std::atomic<u32> calls{0};
    std::atomic<u64> index_mask{0};
    SweepOptions options;
    options.workers = 4;
    options.onResult = [&](const SweepResult &r) {
        calls++;
        index_mask |= 1ull << r.index;
    };
    const std::vector<SweepResult> results =
        runSweep(smallGrid(), options);
    EXPECT_EQ(calls.load(), results.size());
    EXPECT_EQ(index_mask.load(), (1ull << results.size()) - 1);
}

TEST(SweepEngine, TracePointsCarryTraceMetrics)
{
    GridSpec grid;
    grid.cores = {"boom-small"};
    grid.workloads = {"towers"};
    grid.maxCycles = 300'000;
    grid.withTrace = true;
    SweepOptions options;
    options.workers = 2;
    const std::vector<SweepResult> results = runSweep(grid, options);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, SweepStatus::Ok);
    // A branchy recursive workload recovers at least once.
    EXPECT_GT(results[0].recoverySequences, 0u);
}

TEST(SweepEngine, TraceOutWritesDeterministicStores)
{
    GridSpec grid;
    grid.cores = {"rocket"};
    grid.workloads = {"vvadd", "towers"};
    grid.maxCycles = 300'000;
    grid.withTrace = true;

    const std::string dir1 = "/tmp/icicle_sweep_store_w1";
    const std::string dir4 = "/tmp/icicle_sweep_store_w4";
    for (const std::string &dir : {dir1, dir4}) {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
    }
    SweepOptions options;
    options.workers = 1;
    options.traceOutDir = dir1;
    const std::vector<SweepResult> serial = runSweep(grid, options);
    options.workers = 4;
    options.traceOutDir = dir4;
    runSweep(grid, options);

    for (const SweepResult &row : serial) {
        SCOPED_TRACE(row.label);
        const std::string p1 = sweepTracePath(dir1, row.label);
        const std::string p4 = sweepTracePath(dir4, row.label);
        ASSERT_TRUE(std::filesystem::exists(p1));
        auto slurp = [](const std::string &path) {
            std::ifstream in(path, std::ios::binary);
            return std::string(
                (std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
        };
        // The store writer is deterministic: 1-worker and 4-worker
        // campaigns must produce byte-identical files.
        EXPECT_EQ(slurp(p1), slurp(p4));
        // And the store agrees with the row's trace-derived metrics.
        StoreReader reader(p1);
        EXPECT_EQ(reader.numCycles(), row.cycles);
        EXPECT_EQ(reader.recoveryCdf().sequences(),
                  row.recoverySequences);
    }
    std::filesystem::remove_all(dir1);
    std::filesystem::remove_all(dir4);
}

TEST(SweepCore, NamedConfigsAllConstruct)
{
    const Program program = countLoop(10);
    for (const std::string &name : sweepCoreNames()) {
        auto core =
            makeSweepCore(name, CounterArch::Distributed, program);
        ASSERT_NE(core, nullptr) << name;
    }
    EXPECT_THROW(
        makeSweepCore("boom-colossal", CounterArch::Scalar, program),
        FatalError);
}

TEST(SweepCore, ParseCounterArch)
{
    EXPECT_EQ(parseCounterArch("scalar"), CounterArch::Scalar);
    EXPECT_EQ(parseCounterArch("addwires"), CounterArch::AddWires);
    EXPECT_EQ(parseCounterArch("add-wires"), CounterArch::AddWires);
    EXPECT_EQ(parseCounterArch("distributed"),
              CounterArch::Distributed);
    EXPECT_THROW(parseCounterArch("quantum"), FatalError);
}

TEST(SweepFormat, CsvEscapesAndJsonIsWellFormedish)
{
    SweepResult r;
    r.index = 0;
    r.label = "evil,\"label\"";
    r.status = SweepStatus::Failed;
    r.error = "line1\nline2";
    const std::string csv = formatSweepCsv({r});
    EXPECT_NE(csv.find("\"evil,\"\"label\"\"\""), std::string::npos);
    const std::string json = formatSweepJson({r});
    EXPECT_NE(json.find("\\n"), std::string::npos);
    // Timing column only appears when asked for.
    EXPECT_EQ(csv.find("wall_ms"), std::string::npos);
    EXPECT_NE(formatSweepCsv({r}, true).find("wall_ms"),
              std::string::npos);
}

TEST(SweepEngine, TimedOutTracedJobSkipIsVisibleNotSilent)
{
    // Regression: a traced job that timed out under --trace-out used
    // to silently write no store — the row looked like every other
    // and the missing file surfaced only when a consumer went
    // looking. The skip must be visible in the result and reports.
    SweepJob endless;
    endless.label = "endless-traced";
    endless.maxCycles = ~0ull;
    endless.withTrace = true;
    endless.make = [] {
        return std::make_unique<RocketCore>(RocketConfig{},
                                            endlessLoop());
    };
    const std::string dir = "/tmp/icicle_sweep_timeout_trace";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    SweepOptions options;
    options.timeoutSec = 0.05;
    options.chunkCycles = 4096;
    options.maxAttempts = 1;
    options.traceOutDir = dir;
    const std::vector<SweepResult> results =
        runSweepJobs({endless}, options);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, SweepStatus::Timeout);
    EXPECT_TRUE(results[0].traceStore.empty());
    EXPECT_FALSE(results[0].traceSkipped.empty());
    EXPECT_FALSE(std::filesystem::exists(
        sweepTracePath(dir, endless.label)));
    // The skip reaches both serialized reports.
    const std::string json = formatSweepJson(results);
    EXPECT_NE(json.find("\"trace_store\": null"), std::string::npos);
    EXPECT_NE(json.find("trace_skipped"), std::string::npos);
    const std::string csv = formatSweepCsv(results);
    EXPECT_NE(csv.find("trace_store"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(SweepEngine, TracedOkRowNamesItsStoreInReports)
{
    GridSpec grid;
    grid.cores = {"rocket"};
    grid.workloads = {"vvadd"};
    grid.maxCycles = 300'000;
    grid.withTrace = true;
    const std::string dir = "/tmp/icicle_sweep_named_store";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    SweepOptions options;
    options.traceOutDir = dir;
    const std::vector<SweepResult> results = runSweep(grid, options);
    ASSERT_EQ(results.size(), 1u);
    // Basename only: reports stay byte-identical across directories.
    EXPECT_EQ(results[0].traceStore, "rocket_vvadd_add-wires.icst");
    EXPECT_NE(formatSweepJson(results)
                  .find("\"trace_store\": \"rocket_vvadd_add-wires"
                        ".icst\""),
              std::string::npos);
    std::filesystem::remove_all(dir);
}

// ---- journal / resume ------------------------------------------------

std::vector<SweepJob>
twoCountJobs()
{
    std::vector<SweepJob> jobs;
    for (const char *label : {"count-a", "count-b"}) {
        SweepJob job;
        job.label = label;
        job.maxCycles = 100'000;
        job.make = [] {
            return std::make_unique<RocketCore>(RocketConfig{},
                                                countLoop(500));
        };
        jobs.push_back(std::move(job));
    }
    return jobs;
}

TEST(SweepJournalFile, ResumeRestoresRecordsBitExactly)
{
    const std::string path = "/tmp/icicle_journal_unit.bin";
    std::remove(path.c_str());
    const std::vector<SweepJob> jobs = twoCountJobs();
    const u32 hash = sweepGridHash(jobs);

    // Run the full grid with a journal.
    SweepOptions options;
    options.journalPath = path;
    const std::vector<SweepResult> first =
        runSweepJobs(jobs, options);
    ASSERT_EQ(first.size(), 2u);

    // Resuming the finished journal restores both points without
    // re-running anything, bit-exactly.
    SweepJournal journal;
    const std::vector<SweepResult> restored =
        journal.resume(path, hash, jobs.size());
    journal.close();
    ASSERT_EQ(restored.size(), 2u);
    for (u64 i = 0; i < 2; i++) {
        EXPECT_EQ(restored[i].index, first[i].index);
        EXPECT_EQ(restored[i].status, first[i].status);
        EXPECT_EQ(restored[i].cycles, first[i].cycles);
        // Doubles travel as raw bit patterns: exact, not approximate.
        EXPECT_EQ(restored[i].ipc, first[i].ipc);
        EXPECT_EQ(restored[i].tma.retiring, first[i].tma.retiring);
        EXPECT_EQ(restored[i].counters.retiredUops,
                  first[i].counters.retiredUops);
    }
    std::remove(path.c_str());
}

TEST(SweepJournalFile, TornTailIsDroppedOnResume)
{
    const std::string path = "/tmp/icicle_journal_torn.bin";
    std::remove(path.c_str());
    const std::vector<SweepJob> jobs = twoCountJobs();
    const u32 hash = sweepGridHash(jobs);
    SweepOptions options;
    options.journalPath = path;
    runSweepJobs(jobs, options);

    // Tear the last record: chop 7 bytes off the file.
    const auto size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size - 7);

    SweepJournal journal;
    const std::vector<SweepResult> restored =
        journal.resume(path, hash, jobs.size());
    journal.close();
    ASSERT_EQ(restored.size(), 1u);
    EXPECT_EQ(restored[0].index, 0u);
    // The torn bytes were truncated away: a second resume sees a
    // clean single-record journal.
    SweepJournal again;
    EXPECT_EQ(again.resume(path, hash, jobs.size()).size(), 1u);
    std::remove(path.c_str());
}

TEST(SweepJournalFile, RefusesAForeignGrid)
{
    const std::string path = "/tmp/icicle_journal_foreign.bin";
    std::remove(path.c_str());
    const std::vector<SweepJob> jobs = twoCountJobs();
    SweepOptions options;
    options.journalPath = path;
    runSweepJobs(jobs, options);

    SweepJournal journal;
    // Wrong hash, wrong job count: both must refuse loudly.
    EXPECT_THROW(journal.resume(path, sweepGridHash(jobs) ^ 1,
                                jobs.size()),
                 FatalError);
    EXPECT_THROW(journal.resume(path, sweepGridHash(jobs),
                                jobs.size() + 1),
                 FatalError);
    std::remove(path.c_str());
}

TEST(SweepJournalFile, ForeignGridDiagnosticNamesPathAndBothHashes)
{
    // Regression: the mismatch diagnostic used to say only "grid
    // hash mismatch", leaving the user to guess which journal and
    // which grids. It must name the journal path and print both
    // hashes in hex so the two campaigns can actually be compared.
    const std::string path = "/tmp/icicle_journal_diag.bin";
    std::remove(path.c_str());
    const std::vector<SweepJob> jobs = twoCountJobs();
    const u32 journal_hash = sweepGridHash(jobs);
    const u32 campaign_hash = journal_hash ^ 0x5a5a;
    SweepOptions options;
    options.journalPath = path;
    runSweepJobs(jobs, options);

    auto hex = [](u32 hash) {
        char text[16];
        std::snprintf(text, sizeof text, "0x%08x", hash);
        return std::string(text);
    };
    SweepJournal journal;
    try {
        journal.resume(path, campaign_hash, jobs.size());
        FAIL() << "foreign grid resumed";
    } catch (const FatalError &err) {
        const std::string diag = err.what();
        EXPECT_NE(diag.find(path), std::string::npos) << diag;
        EXPECT_NE(diag.find(hex(journal_hash)), std::string::npos)
            << diag;
        EXPECT_NE(diag.find(hex(campaign_hash)), std::string::npos)
            << diag;
        EXPECT_NE(diag.find("refusing to resume"),
                  std::string::npos)
            << diag;
    }
    std::remove(path.c_str());
}

TEST(SweepEngine, ResumeAfterInjectedFailureIsByteIdentical)
{
    // A point that fails on every attempt of the first campaign is
    // journaled as Failed; the resumed campaign re-runs only that
    // point (now healthy) and the final report is byte-identical to
    // an uninterrupted clean run.
    const std::string path = "/tmp/icicle_journal_resume.bin";
    std::remove(path.c_str());
    const std::vector<SweepJob> jobs = twoCountJobs();

    SweepOptions clean_options;
    const std::vector<SweepResult> golden =
        runSweepJobs(jobs, clean_options);

    setFaultSpec("fail@job#1=2");
    SweepOptions first_options;
    first_options.journalPath = path;
    first_options.maxAttempts = 2;
    const std::vector<SweepResult> first =
        runSweepJobs(jobs, first_options);
    setFaultSpec("");
    ASSERT_EQ(first[0].status, SweepStatus::Ok);
    ASSERT_EQ(first[1].status, SweepStatus::Failed);
    EXPECT_NE(first[1].error.find("injected fault"),
              std::string::npos);

    SweepOptions resume_options;
    resume_options.journalPath = path;
    resume_options.resume = true;
    u32 reran = 0;
    resume_options.onResult = [&](const SweepResult &r) {
        if (r.index == 1)
            reran++;
    };
    const std::vector<SweepResult> resumed =
        runSweepJobs(jobs, resume_options);
    EXPECT_EQ(reran, 1u);
    EXPECT_EQ(formatSweepCsv(resumed), formatSweepCsv(golden));
    EXPECT_EQ(formatSweepJson(resumed), formatSweepJson(golden));
    EXPECT_EQ(formatSweepTable(resumed), formatSweepTable(golden));
    std::remove(path.c_str());
}

TEST(SweepEngine, InjectedHangTimesOutInsteadOfWedging)
{
    setFaultSpec("hang@job#0");
    std::vector<SweepJob> jobs = twoCountJobs();
    SweepOptions options;
    options.timeoutSec = 0.05;
    options.maxAttempts = 1;
    const std::vector<SweepResult> results =
        runSweepJobs(jobs, options);
    setFaultSpec("");
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].status, SweepStatus::Timeout);
    EXPECT_EQ(results[1].status, SweepStatus::Ok);
}

TEST(SweepEngine, UnknownWorkloadBecomesFailedRow)
{
    GridSpec grid;
    grid.cores = {"rocket"};
    grid.workloads = {"no-such-workload"};
    const std::vector<SweepResult> results = runSweep(grid, {});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, SweepStatus::Failed);
    EXPECT_NE(results[0].error.find("no-such-workload"),
              std::string::npos);
}

// ---- one simulation per (core, workload) -----------------------------

using ProgramFor = std::function<Program(const std::string &)>;

/**
 * The grid as per-point jobs: one simulation per point, the engine
 * runSweep used before it grouped the counter-architecture axis.
 */
std::vector<SweepJob>
perPointJobs(const GridSpec &grid, const ProgramFor &program_for = {})
{
    std::vector<SweepJob> jobs;
    for (const SweepPoint &point : grid.expand()) {
        SweepJob job;
        job.label = sweepPointLabel(point);
        job.maxCycles = point.maxCycles;
        job.withTrace = point.withTrace;
        job.point = point;
        job.make = [point, program_for] {
            return makeSweepCore(point.core, point.counterArch,
                                 program_for
                                     ? program_for(point.workload)
                                     : buildWorkload(point.workload));
        };
        jobs.push_back(std::move(job));
    }
    return jobs;
}

void
expectSameReports(const std::vector<SweepResult> &grouped,
                  const std::vector<SweepResult> &per_point)
{
    EXPECT_EQ(formatSweepCsv(grouped), formatSweepCsv(per_point));
    EXPECT_EQ(formatSweepJson(grouped), formatSweepJson(per_point));
    EXPECT_EQ(formatSweepTable(grouped), formatSweepTable(per_point));
}

const std::vector<CounterArch> kAllArchs = {
    CounterArch::Scalar, CounterArch::AddWires, CounterArch::Distributed};

GridSpec
archGrid()
{
    GridSpec grid;
    grid.cores = {"rocket", "boom-small", "boom-large"};
    grid.workloads = {"towers", "icache-stress"};
    grid.counterArchs = kAllArchs;
    grid.maxCycles = 300'000;
    return grid;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

std::string
tempPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

TEST(SweepGrouping, MatchesPerPointAtOneAndFourWorkers)
{
    const GridSpec grid = archGrid();
    for (u32 workers : {1u, 4u}) {
        SCOPED_TRACE(workers);
        SweepOptions options;
        options.workers = workers;
        u32 callbacks = 0;
        options.onResult = [&](const SweepResult &) { callbacks++; };
        const std::vector<SweepResult> grouped = runSweep(grid, options);
        EXPECT_EQ(callbacks, grouped.size());
        expectSameReports(grouped,
                          runSweepJobs(perPointJobs(grid), options));
        // One simulation per group: its wall time is split evenly,
        // so every member carries the same share.
        ASSERT_EQ(grouped.size(), 18u);
        for (u64 i = 0; i < grouped.size(); i++)
            EXPECT_EQ(grouped[i].wallMs, grouped[i - i % 3].wallMs);
    }
}

TEST(SweepGrouping, TraceOutStoresMatchPerPoint)
{
    GridSpec grid;
    grid.cores = {"rocket", "boom-small"};
    grid.workloads = {"towers"};
    grid.counterArchs = kAllArchs;
    grid.maxCycles = 300'000;
    grid.withTrace = true;

    const std::string grouped_dir = tempPath("icicle_group_stores");
    const std::string point_dir = tempPath("icicle_point_stores");
    for (const std::string &dir : {grouped_dir, point_dir}) {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
    }
    SweepOptions options;
    options.workers = 2;
    options.traceOutDir = grouped_dir;
    const std::vector<SweepResult> grouped = runSweep(grid, options);
    options.traceOutDir = point_dir;
    expectSameReports(grouped, runSweepJobs(perPointJobs(grid), options));
    for (const SweepResult &row : grouped) {
        SCOPED_TRACE(row.label);
        ASSERT_EQ(row.traceStore,
                  sweepTracePath("", row.label).substr(1));
        const std::string bytes =
            slurp(sweepTracePath(grouped_dir, row.label));
        EXPECT_FALSE(bytes.empty());
        EXPECT_EQ(bytes, slurp(sweepTracePath(point_dir, row.label)));
    }
    std::filesystem::remove_all(grouped_dir);
    std::filesystem::remove_all(point_dir);
}

TEST(SweepGrouping, JournalAndResumeMatchPerPoint)
{
    const GridSpec grid = archGrid();
    const std::vector<SweepResult> golden = runSweep(grid);
    const std::string grouped_path = tempPath("icicle_group.jnl");
    const std::string point_path = tempPath("icicle_point.jnl");
    std::remove(grouped_path.c_str());
    std::remove(point_path.c_str());

    // A clean journal holds the same records, byte for byte.
    SweepOptions options;
    options.journalPath = grouped_path;
    runSweep(grid, options);
    options.journalPath = point_path;
    runSweepJobs(perPointJobs(grid), options);
    EXPECT_EQ(slurp(grouped_path), slurp(point_path));

    // Resuming a finished journal restores every row and re-runs
    // nothing.
    SweepOptions resume;
    resume.journalPath = grouped_path;
    resume.resume = true;
    u32 reported = 0;
    resume.onResult = [&](const SweepResult &) { reported++; };
    expectSameReports(runSweep(grid, resume), golden);
    EXPECT_EQ(reported, golden.size());

    // A per-point journal with a failed row resumes under grouping:
    // only that row re-runs, inside a partly restored group.
    std::remove(point_path.c_str());
    setFaultSpec("fail@job#4=2");
    options.maxAttempts = 2;
    const std::vector<SweepResult> first =
        runSweepJobs(perPointJobs(grid), options);
    setFaultSpec("");
    ASSERT_EQ(first[4].status, SweepStatus::Failed);
    resume.journalPath = point_path;
    u32 reran = 0;
    resume.onResult = [&](const SweepResult &r) {
        if (r.index == 4)
            reran++;
    };
    expectSameReports(runSweep(grid, resume), golden);
    EXPECT_EQ(reran, 1u);
    std::remove(grouped_path.c_str());
    std::remove(point_path.c_str());
}

TEST(SweepGrouping, InjectedFaultsHitOnlyTheirRow)
{
    GridSpec grid;
    grid.cores = {"rocket"};
    grid.workloads = {"towers", "icache-stress"};
    grid.counterArchs = kAllArchs;
    grid.maxCycles = 300'000;
    const std::vector<SweepJob> jobs = perPointJobs(grid);

    auto both = [&](const std::string &spec,
                    const SweepOptions &options) {
        setFaultSpec(spec);
        std::vector<SweepResult> grouped = runSweep(grid, options);
        setFaultSpec(spec);
        const std::vector<SweepResult> per_point =
            runSweepJobs(jobs, options);
        setFaultSpec("");
        expectSameReports(grouped, per_point);
        return grouped;
    };

    SweepOptions options;
    options.maxAttempts = 2;
    std::vector<SweepResult> rows = both("fail@job#2=2", options);
    for (const SweepResult &row : rows) {
        SCOPED_TRACE(row.label);
        const bool hit = row.index == 2;
        EXPECT_EQ(row.status,
                  hit ? SweepStatus::Failed : SweepStatus::Ok);
        EXPECT_EQ(row.attempts, hit ? 2u : 1u);
    }
    options.maxAttempts = 3;
    rows = both("fail@job#2=2", options);
    EXPECT_EQ(rows[2].status, SweepStatus::Ok);
    EXPECT_EQ(rows[2].attempts, 3u);

    options.maxAttempts = 1;
    options.timeoutSec = 0.5;
    rows = both("hang@job#4", options);
    for (const SweepResult &row : rows) {
        SCOPED_TRACE(row.label);
        EXPECT_EQ(row.status, row.index == 4 ? SweepStatus::Timeout
                                             : SweepStatus::Ok);
    }
}

/**
 * Software that programs mhpmevent3 for the multi-lane BOOM
 * uops-retired event, counts a loop, and exits with hpmcounter3: its
 * exit code depends on the counter architecture.
 */
Program
readsHpmCounter(const std::string &)
{
    const EventInfo info = eventInfo(CoreKind::Boom, EventId::UopsRetired);
    const int bit = maskBitOf(CoreKind::Boom, EventId::UopsRetired);
    ProgramBuilder b("hpm-read");
    b.li(t0, static_cast<i64>(csr::selector(info.set, 1ull << bit)));
    b.csrrw(zero, csr::mhpmevent3, t0);
    b.csrrwi(zero, csr::mcountinhibit, 0);
    b.li(t2, 200);
    Label loop = b.newLabel();
    b.bind(loop);
    b.addi(t3, t3, 1);
    b.addi(t4, t4, 1);
    b.addi(t5, t5, 1);
    b.addi(t2, t2, -1);
    b.bnez(t2, loop);
    b.csrrs(a0, csr::hpmcounter3, zero);
    b.halt();
    return b.build();
}

TEST(SweepGrouping, HpmCounterReadFallsBackToPerPoint)
{
    GridSpec grid;
    grid.cores = sweepCoreNames();
    grid.workloads = {"hpm-read"};
    grid.counterArchs = kAllArchs;
    grid.maxCycles = 100'000;
    SweepOptions options;
    options.workers = 2;
    const std::vector<SweepResult> grouped =
        runSweep(grid, options, readsHpmCounter);
    expectSameReports(
        grouped,
        runSweepJobs(perPointJobs(grid, readsHpmCounter), options));

    // Had the group shared one simulation, every arch row would
    // carry the lead's counter value.
    ASSERT_EQ(grouped.size(), 3 * sweepCoreNames().size());
    bool some_boom_differs = false;
    for (u64 i = 0; i < grouped.size(); i += 3) {
        SCOPED_TRACE(grouped[i].label);
        for (u64 m = i; m < i + 3; m++) {
            EXPECT_EQ(grouped[m].status, SweepStatus::Ok);
            EXPECT_TRUE(grouped[m].finished);
        }
        if (grouped[i].point.core != "rocket")
            some_boom_differs |=
                grouped[i].exitCode != grouped[i + 1].exitCode ||
                grouped[i + 1].exitCode != grouped[i + 2].exitCode;
    }
    EXPECT_TRUE(some_boom_differs);
}

} // namespace
} // namespace icicle
