/**
 * @file
 * Byte-identity harness for the core tick paths (ISSUE 7 gate).
 *
 * The SoA/ring-buffer refactor of the Rocket and BOOM tick loops is
 * required to have *zero* behavioural drift: every guest-visible
 * counter, trace word, and TMA number must stay bit-identical to the
 * pre-refactor model. This suite pins that property with golden
 * hashes generated from the pre-refactor code (the same pattern the
 * icestore equivalence suite uses): 110 seeded synthetic workloads x
 * {Rocket, BOOM} x {Scalar, Distributed} counters, each run with a
 * TMA trace bundle attached and a representative set of programmed
 * HPM counters, folded into one CRC32 per (seed, config).
 *
 * The fold covers, in fixed order:
 *   - simulated cycle count and executor exit state,
 *   - host-side event totals for every EventId,
 *   - per-lane totals for every multi-source event,
 *   - raw CSR counter values AND corrected (residue-summed) values,
 *   - every packed trace word of the run,
 *   - the full TmaResult (bit-cast doubles).
 *
 * A second table (golden_tick_coverage.inc) uses the same fold on the
 * paths the synthetic loops never reach: stores, fences, fence.i and
 * machine clears. Its rows are rocket, boom-small and boom-large x
 * {every micro and composite registry workload, every litmus program,
 * a fence.i loop}, each capped at kCoverageCycles. Next to the hash,
 * each row records its Flush, FenceRetired and ICacheMiss totals, so
 * the table itself shows that those paths ran.
 *
 * Regenerating goldens (only legitimate when the *model* changes, in
 * which case the diff must be explainable event by event) rewrites
 * both tables; the coverage table lands next to the named file:
 *
 *   ICICLE_TICK_IDENTITY_REGEN=/path/to/golden_tick_identity.inc \
 *     ./build/tests/test_tick_identity
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "boom/boom.hh"
#include "common/crc32.hh"
#include "common/random.hh"
#include "core/session.hh"
#include "isa/builder.hh"
#include "rocket/rocket.hh"
#include "sweep/sweep.hh"
#include "trace/trace.hh"
#include "workloads/generator.hh"
#include "workloads/litmus.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace icicle;

#include "golden_tick_identity.inc"

/** One coverage row: a (core, program) run and what it exercised. */
struct CoverageGolden
{
    const char *core;
    const char *program;
    u32 hash;
    u64 flush;
    u64 fenceRetired;
    u64 icacheMiss;
};

#include "golden_tick_coverage.inc"

constexpr u64 kNumSeeds = 110;
constexpr u64 kRocketCycles = 40'000;
constexpr u64 kBoomCycles = 25'000;

/** Mix a seed into a diverse synthetic workload. */
SyntheticSpec
specForSeed(u64 seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0xc2b2ae3d27d4eb4full);
    SyntheticSpec spec;
    spec.seed = seed + 1;
    spec.iterations = 400 + rng.below(400);
    spec.ilpChains = 1 + static_cast<u32>(rng.below(6));
    spec.chainDepth = 1 + static_cast<u32>(rng.below(4));
    spec.muls = static_cast<u32>(rng.below(3));
    spec.divs = static_cast<u32>(rng.below(2));
    spec.loads = static_cast<u32>(rng.below(5));
    spec.dataKiB = 4ull << rng.below(6); // 4 KiB .. 128 KiB
    spec.unpredictableBranches = static_cast<u32>(rng.below(3));
    spec.predictableBranches = static_cast<u32>(rng.below(3));
    spec.codeBloatFuncs = static_cast<u32>(rng.below(4));
    return spec;
}

void
foldU64(Crc32 &crc, u64 value)
{
    unsigned char bytes[8];
    std::memcpy(bytes, &value, sizeof(bytes));
    crc.update(bytes, sizeof(bytes));
}

void
foldDouble(Crc32 &crc, double value)
{
    u64 bits;
    std::memcpy(&bits, &value, sizeof(bits));
    foldU64(crc, bits);
}

void
foldTma(Crc32 &crc, const TmaResult &tma)
{
    foldDouble(crc, tma.retiring);
    foldDouble(crc, tma.badSpeculation);
    foldDouble(crc, tma.frontend);
    foldDouble(crc, tma.backend);
    foldDouble(crc, tma.machineClears);
    foldDouble(crc, tma.branchMispredicts);
    foldDouble(crc, tma.resteers);
    foldDouble(crc, tma.recoveryBubbles);
    foldDouble(crc, tma.fetchLatency);
    foldDouble(crc, tma.pcResteer);
    foldDouble(crc, tma.coreBound);
    foldDouble(crc, tma.memBound);
    foldDouble(crc, tma.memBoundL2);
    foldDouble(crc, tma.memBoundDram);
    foldDouble(crc, tma.ipc);
    foldU64(crc, tma.totalSlots);
    foldU64(crc, tma.cycles);
}

/** Program a representative HPM set (plain, multi-event, per-lane). */
void
programCounters(Core &core)
{
    CsrFile &csrs = core.csrFile();
    if (core.kind() == CoreKind::Rocket) {
        csrs.program(0, {EventId::InstRetired});
        csrs.program(1, {EventId::InstIssued});
        csrs.program(2, {EventId::FetchBubbles});
        csrs.program(3, {EventId::BranchMispredict, EventId::Flush});
        csrs.program(4, {EventId::Recovering});
        csrs.program(5, {EventId::DCacheBlocked});
    } else {
        csrs.program(0, {EventId::InstRetired});
        csrs.program(1, {EventId::UopsIssued});
        csrs.program(2, {EventId::FetchBubbles});
        csrs.program(3, {EventId::BranchMispredict, EventId::Flush});
        csrs.program(4, {EventId::Recovering});
        // Lane-selected counter: decode lane 0 of the bubble signal.
        csrs.program(5, {EventId::FetchBubbles}, 1);
    }
    csrs.setInhibit(false);
}

u32
runAndHash(Core &core, u64 max_cycles)
{
    programCounters(core);
    const TraceSpec spec = TraceSpec::tmaBundle(core);
    const Trace trace = traceRun(core, spec, max_cycles);

    Crc32 crc;
    foldU64(crc, core.cycle());
    foldU64(crc, core.executor().halted() ? 1 : 0);
    foldU64(crc, core.executor().exitCode());
    for (u32 e = 0; e < kNumEvents; e++) {
        const EventId id = static_cast<EventId>(e);
        foldU64(crc, core.total(id));
        const u32 sources = core.bus().sourcesOf(id);
        if (sources > 1) {
            for (u32 lane = 0; lane < sources; lane++)
                foldU64(crc, core.laneTotal(id, lane));
        }
    }
    const CsrFile &csrs = core.csrs();
    foldU64(crc, csrs.cycles());
    foldU64(crc, csrs.instsRetired());
    for (u32 i = 0; i < 6; i++) {
        foldU64(crc, csrs.hpmValue(i));
        foldU64(crc, csrs.hpmCorrected(i));
    }
    for (u64 word : trace.raw())
        foldU64(crc, word);
    foldTma(crc, analyzeTma(core));
    return crc.value();
}

/** The four configurations, in golden-column order. */
u32
hashConfig(u64 seed, u32 config)
{
    const Program program = generateSynthetic(specForSeed(seed));
    switch (config) {
      case 0: {
        RocketConfig cfg;
        cfg.counterArch = CounterArch::Scalar;
        RocketCore core(cfg, program);
        return runAndHash(core, kRocketCycles);
      }
      case 1: {
        RocketConfig cfg;
        cfg.counterArch = CounterArch::Distributed;
        RocketCore core(cfg, program);
        return runAndHash(core, kRocketCycles);
      }
      case 2: {
        BoomConfig cfg = BoomConfig::medium();
        cfg.counterArch = CounterArch::Scalar;
        BoomCore core(cfg, program);
        return runAndHash(core, kBoomCycles);
      }
      default: {
        BoomConfig cfg = BoomConfig::medium();
        cfg.counterArch = CounterArch::Distributed;
        BoomCore core(cfg, program);
        return runAndHash(core, kBoomCycles);
      }
    }
}

const char *const kConfigNames[4] = {
    "rocket-scalar",
    "rocket-distributed",
    "boom-medium-scalar",
    "boom-medium-distributed",
};

void writeCoverageGoldens(const std::string &path);

/** Regen mode: rewrite the golden tables instead of checking them. */
bool
maybeRegenerate()
{
    const char *path = std::getenv("ICICLE_TICK_IDENTITY_REGEN");
    if (!path)
        return false;
    std::FILE *out = std::fopen(path, "w");
    if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n", path);
        std::exit(1);
    }
    std::fprintf(out,
                 "// Golden tick-identity hashes. Generated by\n"
                 "// ICICLE_TICK_IDENTITY_REGEN (see "
                 "test_tick_identity.cc);\n"
                 "// columns: rocket-scalar, rocket-distributed,\n"
                 "// boom-medium-scalar, boom-medium-distributed.\n"
                 "static const u32 kGoldenTickHashes[110][4] = {\n");
    for (u64 seed = 0; seed < kNumSeeds; seed++) {
        std::fprintf(out, "    {0x%08" PRIx32 ", 0x%08" PRIx32
                          ", 0x%08" PRIx32 ", 0x%08" PRIx32 "},\n",
                     hashConfig(seed, 0), hashConfig(seed, 1),
                     hashConfig(seed, 2), hashConfig(seed, 3));
    }
    std::fprintf(out, "};\n");
    std::fclose(out);
    std::printf("regenerated goldens at %s\n", path);

    const std::string dir(path);
    const std::string::size_type slash = dir.rfind('/');
    writeCoverageGoldens(
        (slash == std::string::npos ? std::string() :
                                      dir.substr(0, slash + 1)) +
        "golden_tick_coverage.inc");
    return true;
}

// Group seeds into 11 shards of 10 so ctest parallelizes the suite.
struct TickIdentityShard : ::testing::TestWithParam<u64>
{};

TEST_P(TickIdentityShard, MatchesPreRefactorGolden)
{
    static const bool regenerated = maybeRegenerate();
    if (regenerated)
        GTEST_SKIP() << "regen mode: goldens rewritten, not checked";
    const u64 shard = GetParam();
    for (u64 seed = shard * 10; seed < (shard + 1) * 10; seed++) {
        for (u32 config = 0; config < 4; config++) {
            EXPECT_EQ(hashConfig(seed, config),
                      kGoldenTickHashes[seed][config])
                << "seed " << seed << " config "
                << kConfigNames[config]
                << ": tick path drifted from the pre-refactor golden";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllSeeds, TickIdentityShard,
                         ::testing::Range<u64>(0, 11));

// ------------------------------------------------------------ coverage

constexpr u64 kCoverageCycles = 60'000;
constexpr u64 kCoverageShards = 12;

const char *const kCoverageCores[] = {"rocket", "boom-small",
                                      "boom-large"};

/**
 * fence.i in a loop with instructions decoded behind it, plus a load
 * that races a store waiting on a divide (a BOOM machine clear).
 */
Program
fenceILoop()
{
    using namespace reg;
    ProgramBuilder b("fencei-loop");
    Label buf = b.dword(0);
    Label loop = b.newLabel();
    b.la(s0, buf);
    b.li(s2, 7);
    b.li(t0, 50);
    b.bind(loop);
    b.addi(t1, t1, 1);
    b.fenceI();
    b.div(t3, t0, s2);
    b.sd(t3, s0, 0);
    b.ld(t4, s0, 0);
    b.add(t2, t2, t4);
    b.addi(t0, t0, -1);
    b.bnez(t0, loop);
    b.halt();
    return b.build();
}

/** Program names of the coverage rows, in table order. */
std::vector<std::string>
coveragePrograms()
{
    std::vector<std::string> names = workloadNames("micro");
    for (const std::string &name : workloadNames("composite"))
        names.push_back(name);
    for (const LitmusInfo &info : litmusSuite())
        names.push_back(info.name);
    names.push_back("fencei-loop");
    return names;
}

Program
coverageProgram(const std::string &name)
{
    if (name == "fencei-loop")
        return fenceILoop();
    if (name.rfind("litmus-", 0) == 0)
        return buildLitmus(name);
    return buildWorkload(name);
}

/** Run one row; the hash is the same fold as the seeded table. */
CoverageGolden
runCoverageRow(const char *core_name, const std::string &program)
{
    const std::unique_ptr<Core> core = makeSweepCore(
        core_name, CounterArch::Distributed, coverageProgram(program));
    CoverageGolden row{};
    row.hash = runAndHash(*core, kCoverageCycles);
    row.flush = core->total(EventId::Flush);
    row.fenceRetired = core->total(EventId::FenceRetired);
    row.icacheMiss = core->total(EventId::ICacheMiss);
    return row;
}

constexpr u64 kNumCoverageRows =
    sizeof(kGoldenCoverage) / sizeof(kGoldenCoverage[0]);

void
writeCoverageGoldens(const std::string &path)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     path.c_str());
        std::exit(1);
    }
    std::fprintf(out,
                 "// Golden tick-coverage rows. Generated by\n"
                 "// ICICLE_TICK_IDENTITY_REGEN (see "
                 "test_tick_identity.cc);\n"
                 "// fields: core, program, hash, Flush, FenceRetired,"
                 " ICacheMiss.\n"
                 "static const CoverageGolden kGoldenCoverage[] = {\n");
    for (const char *core : kCoverageCores) {
        for (const std::string &program : coveragePrograms()) {
            const CoverageGolden row = runCoverageRow(core, program);
            std::fprintf(out,
                         "    {\"%s\", \"%s\", 0x%08" PRIx32
                         ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 "},\n",
                         core, program.c_str(), row.hash, row.flush,
                         row.fenceRetired, row.icacheMiss);
        }
    }
    std::fprintf(out, "};\n");
    std::fclose(out);
    std::printf("regenerated goldens at %s\n", path.c_str());
}

TEST(TickCoverage, TableListsEveryRow)
{
    const std::vector<std::string> programs = coveragePrograms();
    ASSERT_EQ(kNumCoverageRows, std::size(kCoverageCores) *
                                    programs.size())
        << "workload or litmus registry changed: regenerate";
    u64 i = 0;
    for (const char *core : kCoverageCores) {
        for (const std::string &program : programs) {
            EXPECT_STREQ(kGoldenCoverage[i].core, core);
            EXPECT_EQ(kGoldenCoverage[i].program, program);
            i++;
        }
    }
}

TEST(TickCoverage, RowsAreNotVacuous)
{
    bool boom_flush = false, fence = false, icache_miss = false;
    for (const CoverageGolden &row : kGoldenCoverage) {
        boom_flush |= std::string(row.core) != "rocket" && row.flush > 0;
        fence |= row.fenceRetired > 0;
        icache_miss |= row.icacheMiss > 0;
    }
    EXPECT_TRUE(boom_flush) << "no BOOM row takes a machine clear";
    EXPECT_TRUE(fence) << "no row retires a fence";
    EXPECT_TRUE(icache_miss) << "no row misses in the I-cache";
}

struct TickCoverageShard : ::testing::TestWithParam<u64>
{};

TEST_P(TickCoverageShard, MatchesGolden)
{
    static const bool regenerated = maybeRegenerate();
    if (regenerated)
        GTEST_SKIP() << "regen mode: goldens rewritten, not checked";
    for (u64 i = GetParam(); i < kNumCoverageRows; i += kCoverageShards) {
        const CoverageGolden &golden = kGoldenCoverage[i];
        const CoverageGolden row =
            runCoverageRow(golden.core, golden.program);
        const std::string where =
            std::string(golden.core) + " / " + golden.program;
        EXPECT_EQ(row.hash, golden.hash) << where;
        EXPECT_EQ(row.flush, golden.flush) << where;
        EXPECT_EQ(row.fenceRetired, golden.fenceRetired) << where;
        EXPECT_EQ(row.icacheMiss, golden.icacheMiss) << where;
    }
}

INSTANTIATE_TEST_SUITE_P(AllRows, TickCoverageShard,
                         ::testing::Range<u64>(0, kCoverageShards));

} // namespace
