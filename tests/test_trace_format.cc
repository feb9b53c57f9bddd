/**
 * @file
 * Legacy .trc reader tests: forged well-formed files of every bundle
 * shape read back exactly, rejection of malformed headers (bad
 * magic/version, truncation, duplicate fields, out-of-range event ids
 * and lanes — regression tests for the readTrace decode-corruption
 * bug), multi-lane analyzer behaviour, and RecoveryCdf edge cases.
 */

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>

#include "boom/boom.hh"
#include "common/logging.hh"
#include "isa/builder.hh"
#include "rocket/rocket.hh"
#include "trace/trace.hh"
#include "trace_forge.hh"

namespace icicle
{
namespace
{

using namespace reg;

Program
tinyLoop()
{
    ProgramBuilder b("tiny");
    Label loop = b.newLabel();
    b.li(t2, 64);
    b.bind(loop);
    b.addi(t2, t2, -1);
    b.bnez(t2, loop);
    b.halt();
    return b.build();
}

class ScratchFile
{
  public:
    explicit ScratchFile(const char *name)
        : filePath(std::string("/tmp/icicle_fmt_") + name + ".bin")
    {}
    ~ScratchFile() { std::remove(filePath.c_str()); }
    const std::string &path() const { return filePath; }

  private:
    std::string filePath;
};

// ---- roundtrips across bundle shapes --------------------------------

void
expectRoundTrip(const Trace &trace, const std::string &path)
{
    forgeTrace(trace, path);
    const Trace loaded = readTrace(path);
    ASSERT_EQ(loaded.spec().numFields(), trace.spec().numFields());
    for (u32 f = 0; f < trace.spec().numFields(); f++) {
        EXPECT_EQ(loaded.spec().fields[f].event,
                  trace.spec().fields[f].event);
        EXPECT_EQ(loaded.spec().fields[f].lane,
                  trace.spec().fields[f].lane);
    }
    EXPECT_EQ(loaded.raw(), trace.raw());
}

TEST(TraceFormat, RoundTripFrontendBundle)
{
    ScratchFile file("frontend");
    RocketCore core(RocketConfig{}, tinyLoop());
    expectRoundTrip(
        traceRun(core, TraceSpec::frontendBundle(), 100'000),
        file.path());
}

TEST(TraceFormat, RoundTripRocketTmaBundle)
{
    ScratchFile file("rocket_tma");
    RocketCore core(RocketConfig{}, tinyLoop());
    expectRoundTrip(traceRun(core, TraceSpec::tmaBundle(core), 100'000),
                    file.path());
}

TEST(TraceFormat, RoundTripBoomTmaBundle)
{
    // The widest shipped bundle: multi-lane issue/retire/bubble
    // fields on a 3-wide core.
    ScratchFile file("boom_tma");
    BoomCore core(BoomConfig::large(), tinyLoop());
    expectRoundTrip(traceRun(core, TraceSpec::tmaBundle(core), 100'000),
                    file.path());
}

TEST(TraceFormat, RoundTripSingleFieldAndEmptyTrace)
{
    ScratchFile file("single");
    TraceSpec spec;
    spec.addLane(EventId::Cycles, 0);
    Trace trace(spec);
    expectRoundTrip(trace, file.path()); // zero cycles
    trace.append(1);
    trace.append(0);
    expectRoundTrip(trace, file.path());
}

TEST(TraceFormat, RoundTripMaxWidthBundle)
{
    // All 64 signal slots in use: every bit position must survive.
    ScratchFile file("wide");
    TraceSpec spec;
    for (u32 f = 0; f < 64; f++)
        spec.addLane(static_cast<EventId>(f % 8),
                     static_cast<u8>(f / 8));
    ASSERT_EQ(spec.numFields(), 64u);
    Trace trace(spec);
    trace.append(~0ull);
    trace.append(0x0123456789abcdefull);
    trace.append(1ull << 63);
    expectRoundTrip(trace, file.path());
}

// ---- malformed headers ----------------------------------------------

TEST(TraceFormat, RejectsBadMagic)
{
    ScratchFile file("bad_magic");
    TraceForge forge(file.path());
    forge.header(0xdeadbeef);
    forge.close();
    EXPECT_THROW(readTrace(file.path()), FatalError);
}

TEST(TraceFormat, RejectsBadVersion)
{
    ScratchFile file("bad_version");
    TraceForge forge(file.path());
    forge.header(kTraceForgeMagic, 999);
    forge.close();
    EXPECT_THROW(readTrace(file.path()), FatalError);
}

TEST(TraceFormat, RejectsTruncatedHeader)
{
    // File ends mid-field-table.
    ScratchFile file("trunc_header");
    TraceForge forge(file.path());
    forge.header();
    forge.put32(3); // three fields promised
    forge.field(0, 0);
    forge.close(); // ...but only one provided
    EXPECT_THROW(readTrace(file.path()), FatalError);
}

TEST(TraceFormat, RejectsTruncatedPayload)
{
    ScratchFile file("trunc_payload");
    TraceForge forge(file.path());
    forge.header();
    forge.put32(1);
    forge.field(0, 0);
    forge.put64(10); // ten cycles promised
    forge.put64(1);
    forge.put64(0); // ...only two written
    forge.close();
    EXPECT_THROW(readTrace(file.path()), FatalError);
}

// ---- payload CRC (format version 2) ---------------------------------

namespace
{

std::string
slurpFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
dumpFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

} // namespace

TEST(TraceFormat, DetectsFlippedPayloadByte)
{
    ScratchFile file("crc_flip");
    RocketCore core(RocketConfig{}, tinyLoop());
    forgeTrace(traceRun(core, TraceSpec::frontendBundle(), 100'000),
               file.path());
    std::string bytes = slurpFile(file.path());
    // Flip one bit in the middle of the cycle records (well past the
    // 12-byte header + 6 x 8-byte field table + 8-byte count).
    bytes[bytes.size() / 2] ^= 0x10;
    dumpFile(file.path(), bytes);
    try {
        readTrace(file.path());
        FAIL() << "corrupt payload accepted";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("CRC mismatch"),
                  std::string::npos);
    }
}

TEST(TraceFormat, TruncationReportsExpectedVsActualCycles)
{
    ScratchFile file("crc_trunc");
    TraceSpec spec;
    spec.addLane(EventId::Cycles, 0);
    Trace trace(spec);
    for (int c = 0; c < 10; c++)
        trace.append(1);
    forgeTrace(trace, file.path());
    std::string bytes = slurpFile(file.path());
    // Drop the CRC trailer and the last three cycle records.
    dumpFile(file.path(), bytes.substr(0, bytes.size() - 4 - 3 * 8));
    try {
        readTrace(file.path());
        FAIL() << "truncated payload accepted";
    } catch (const FatalError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("promises 10 cycles"), std::string::npos)
            << what;
        EXPECT_NE(what.find("only 7"), std::string::npos) << what;
    }
}

TEST(TraceFormat, MissingCrcTrailerIsTruncation)
{
    ScratchFile file("crc_missing");
    TraceSpec spec;
    spec.addLane(EventId::Cycles, 0);
    Trace trace(spec);
    trace.append(1);
    forgeTrace(trace, file.path());
    std::string bytes = slurpFile(file.path());
    dumpFile(file.path(), bytes.substr(0, bytes.size() - 4));
    try {
        readTrace(file.path());
        FAIL() << "missing CRC trailer accepted";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("CRC trailer"),
                  std::string::npos);
    }
}

TEST(TraceFormat, AcceptsVersion1FilesWithoutCrc)
{
    // Pre-CRC files (version 1) must stay readable.
    ScratchFile file("v1_legacy");
    TraceForge forge(file.path());
    forge.header(kTraceForgeMagic, 1);
    forge.put32(1);
    forge.field(static_cast<u32>(EventId::Recovering), 0);
    forge.put64(3);
    forge.put64(1);
    forge.put64(0);
    forge.put64(1);
    forge.close();
    const Trace trace = readTrace(file.path());
    EXPECT_EQ(trace.numCycles(), 3u);
    EXPECT_EQ(trace.count(EventId::Recovering), 2u);
}

// Regression: a duplicate (event, lane) pair used to be silently
// deduplicated through TraceSpec::addLane, shifting the bit index of
// every subsequent field so all later signals decoded from the wrong
// bit. It must be rejected outright.
TEST(TraceFormat, RejectsDuplicateField)
{
    ScratchFile file("dup_field");
    TraceForge forge(file.path());
    forge.header();
    forge.put32(3);
    forge.field(static_cast<u32>(EventId::Recovering), 0);
    forge.field(static_cast<u32>(EventId::Recovering), 0); // dup
    forge.field(static_cast<u32>(EventId::FetchBubbles), 0);
    forge.put64(1);
    forge.put64(0b100); // would land on the wrong field if deduped
    forge.close();
    try {
        readTrace(file.path());
        FAIL() << "duplicate field accepted";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("duplicates"),
                  std::string::npos);
    }
}

TEST(TraceFormat, RejectsOutOfRangeEventId)
{
    ScratchFile file("bad_event");
    TraceForge forge(file.path());
    forge.header();
    forge.put32(1);
    forge.field(kNumEvents + 7, 0);
    forge.put64(0);
    forge.close();
    try {
        readTrace(file.path());
        FAIL() << "out-of-range event id accepted";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("out-of-range event"),
                  std::string::npos);
    }
}

TEST(TraceFormat, RejectsOutOfRangeLane)
{
    ScratchFile file("bad_lane");
    TraceForge forge(file.path());
    forge.header();
    forge.put32(1);
    forge.field(static_cast<u32>(EventId::Cycles), kMaxSources);
    forge.put64(0);
    forge.close();
    EXPECT_THROW(readTrace(file.path()), FatalError);
}

TEST(TraceFormat, RejectsOversizedFieldCount)
{
    ScratchFile file("too_many");
    TraceForge forge(file.path());
    forge.header();
    forge.put32(65);
    forge.close();
    EXPECT_THROW(readTrace(file.path()), FatalError);
}

// ---- multi-lane analyzer regression tests ---------------------------

// Regression: recoveryCdf()/overlapUpperBound() only looked at lane 0
// of Recovering / ICacheBlocked; activity on other lanes of a
// multi-lane bundle was silently dropped.
TEST(TraceFormat, RecoveryCdfSeesNonZeroLanes)
{
    TraceSpec spec;
    spec.addLane(EventId::Recovering, 0);
    spec.addLane(EventId::Recovering, 1);
    Trace trace(spec);
    // One 3-cycle recovery asserted only on lane 1.
    for (u64 word : {0ull, 0b10ull, 0b10ull, 0b10ull, 0ull})
        trace.append(word);
    TraceAnalyzer analyzer(trace);
    const RecoveryCdf cdf = analyzer.recoveryCdf();
    ASSERT_EQ(cdf.sequences(), 1u);
    EXPECT_EQ(cdf.lengths[0], 3u);
}

TEST(TraceFormat, RecoveryCdfMergesOverlappingLanes)
{
    TraceSpec spec;
    spec.addLane(EventId::Recovering, 0);
    spec.addLane(EventId::Recovering, 1);
    Trace trace(spec);
    // Lane 0 high cycles 1-2, lane 1 high cycles 2-4: one merged run
    // of length 4, not two separate runs.
    for (u64 word : {0ull, 0b01ull, 0b11ull, 0b10ull, 0b10ull, 0ull})
        trace.append(word);
    TraceAnalyzer analyzer(trace);
    const RecoveryCdf cdf = analyzer.recoveryCdf();
    ASSERT_EQ(cdf.sequences(), 1u);
    EXPECT_EQ(cdf.lengths[0], 4u);
}

TEST(TraceFormat, OverlapBoundCountsNonZeroLaneActivity)
{
    TraceSpec spec;
    spec.addLane(EventId::ICacheBlocked, 0);
    spec.addLane(EventId::ICacheBlocked, 1); // refill on lane 1 only
    spec.addLane(EventId::Recovering, 1);    // recovery on lane 1 only
    spec.addLane(EventId::FetchBubbles, 0);
    spec.addLane(EventId::FetchBubbles, 1);
    Trace trace(spec);
    for (int c = 0; c < 200; c++)
        trace.append(0);
    // 8 cycles: refill(lane1) + recovering(lane1) + both bubble lanes.
    for (int c = 0; c < 8; c++)
        trace.append(0b11110);
    for (int c = 0; c < 200; c++)
        trace.append(0);
    TraceAnalyzer analyzer(trace);
    const OverlapBound bound = analyzer.overlapUpperBound(2, 50);
    // Both bubble lanes in all 8 overlap cycles.
    EXPECT_EQ(bound.overlapSlots, 16u);
    EXPECT_GT(bound.badSpecFraction, 0.0);
}

TEST(TraceFormat, CountAllLanesMatchesPerLaneSum)
{
    TraceSpec spec;
    spec.addLane(EventId::FetchBubbles, 0);
    spec.addLane(EventId::FetchBubbles, 1);
    spec.addLane(EventId::FetchBubbles, 2);
    spec.addLane(EventId::Recovering, 0);
    Trace trace(spec);
    for (u64 word : {0b0001ull, 0b0111ull, 0b1101ull, 0b0000ull})
        trace.append(word);
    u64 per_lane = 0;
    for (u8 lane = 0; lane < 3; lane++)
        per_lane += trace.count(EventId::FetchBubbles, lane);
    EXPECT_EQ(trace.countAllLanes(EventId::FetchBubbles), per_lane);
    EXPECT_EQ(trace.countAllLanes(EventId::FetchBubbles), 6u);
    EXPECT_EQ(trace.countAllLanes(EventId::Cycles), 0u);
}

TEST(TraceFormat, FieldMaskCoversExactlyTheEventsLanes)
{
    TraceSpec spec;
    spec.addLane(EventId::Recovering, 0);
    spec.addLane(EventId::FetchBubbles, 0);
    spec.addLane(EventId::Recovering, 2);
    EXPECT_EQ(spec.fieldMask(EventId::Recovering), 0b101ull);
    EXPECT_EQ(spec.fieldMask(EventId::FetchBubbles), 0b010ull);
    EXPECT_EQ(spec.fieldMask(EventId::Cycles), 0ull);
}

// ---- RecoveryCdf edge cases -----------------------------------------

TEST(RecoveryCdfEdge, EmptyDistribution)
{
    RecoveryCdf cdf;
    EXPECT_EQ(cdf.sequences(), 0u);
    EXPECT_EQ(cdf.percentile(0.0), 0u);
    EXPECT_EQ(cdf.percentile(0.5), 0u);
    EXPECT_EQ(cdf.percentile(1.0), 0u);
    EXPECT_EQ(cdf.mode(), 0u);
    EXPECT_EQ(cdf.max(), 0u);
}

TEST(RecoveryCdfEdge, SingleElement)
{
    RecoveryCdf cdf;
    cdf.lengths = {7};
    EXPECT_EQ(cdf.sequences(), 1u);
    EXPECT_EQ(cdf.percentile(0.0), 7u);
    EXPECT_EQ(cdf.percentile(0.5), 7u);
    EXPECT_EQ(cdf.percentile(1.0), 7u);
    EXPECT_EQ(cdf.mode(), 7u);
    EXPECT_EQ(cdf.max(), 7u);
}

TEST(RecoveryCdfEdge, PercentileClampsFractionAboveOne)
{
    RecoveryCdf cdf;
    cdf.lengths = {1, 2, 3};
    EXPECT_EQ(cdf.percentile(1.5), 3u);
}

} // namespace
} // namespace icicle
