/**
 * @file
 * Tests for the bench/selfprof support library: the
 * BENCH_selfprof.json schema check, the calibration-normalized
 * regression comparison, and the HostProfiler fallback contract.
 */

#include <gtest/gtest.h>

#include "selfprof/selfprof.hh"

namespace icicle
{
namespace
{

const char *kValidReport = R"({
  "schema_version": 1,
  "counter_source": "wall_clock",
  "calibration": {"spin_iters_per_sec": 5.0e8},
  "lanes": [
    {"name": "rocket_mix", "sim_cycles": 1000000,
     "wall_seconds": 0.1, "sim_cycles_per_sec": 1.0e7},
    {"name": "boom_large_mix", "sim_cycles": 1000000,
     "wall_seconds": 0.5, "sim_cycles_per_sec": 2.0e6}
  ]
})";

JsonValue
parseOk(const std::string &text)
{
    std::string error;
    JsonValue value = parseJson(text, &error);
    EXPECT_TRUE(error.empty()) << error;
    return value;
}

TEST(SelfprofSchema, AcceptsValidReport)
{
    std::string error;
    EXPECT_TRUE(validateSelfprofReport(parseOk(kValidReport), &error))
        << error;
}

TEST(SelfprofSchema, AcceptsCommittedBaseline)
{
    std::string error;
    const JsonValue report =
        parseJsonFile(ICICLE_BENCH_DIR "/BENCH_selfprof.json", &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_TRUE(validateSelfprofReport(report, &error)) << error;
}

TEST(SelfprofSchema, RejectsBrokenReports)
{
    // Each mutation breaks exactly one schema rule.
    const struct
    {
        const char *from;
        const char *to;
    } kMutations[] = {
        {"\"schema_version\": 1", "\"schema_version\": 2"},
        {"\"counter_source\": \"wall_clock\"",
         "\"counter_source\": \"stopwatch\""},
        {"\"spin_iters_per_sec\": 5.0e8",
         "\"spin_iters_per_sec\": 0"},
        {"\"sim_cycles_per_sec\": 1.0e7",
         "\"sim_cycles_per_sec\": \"fast\""},
        {"\"name\": \"rocket_mix\"", "\"name\": \"\""},
    };
    for (const auto &mutation : kMutations) {
        std::string text = kValidReport;
        const auto at = text.find(mutation.from);
        ASSERT_NE(at, std::string::npos) << mutation.from;
        text.replace(at, std::string(mutation.from).size(),
                     mutation.to);
        std::string error;
        EXPECT_FALSE(validateSelfprofReport(parseOk(text), &error))
            << "mutation not caught: " << mutation.to;
        EXPECT_FALSE(error.empty());
    }
    std::string error;
    EXPECT_FALSE(validateSelfprofReport(
        parseOk(R"({"schema_version": 1})"), &error));
}

TEST(SelfprofCheck, NormalizesByCalibration)
{
    const JsonValue baseline = parseOk(kValidReport);

    // Same normalized throughput on a host twice as fast: both the
    // spin rate and the lane rates double; no regression.
    std::string faster = kValidReport;
    auto scale = [&faster](const std::string &from,
                           const std::string &to) {
        faster.replace(faster.find(from), from.size(), to);
    };
    scale("5.0e8", "1.0e9");
    scale("1.0e7", "2.0e7");
    scale("2.0e6", "4.0e6");
    const SelfprofComparison same =
        compareSelfprofReports(baseline, parseOk(faster), 0.20);
    EXPECT_TRUE(same.ok) << same.report;

    // A 30% single-lane drop at equal calibration fails the gate.
    std::string slower = kValidReport;
    slower.replace(slower.find("2.0e6"), 5, "1.4e6");
    const SelfprofComparison worse =
        compareSelfprofReports(baseline, parseOk(slower), 0.20);
    EXPECT_FALSE(worse.ok);
    EXPECT_NE(worse.report.find("REGRESSION"), std::string::npos);

    // The same drop passes a looser tolerance.
    EXPECT_TRUE(
        compareSelfprofReports(baseline, parseOk(slower), 0.35).ok);
}

TEST(SelfprofHost, ProfilerDegradesGracefully)
{
    // Whatever the kernel allows, the contract holds: either real
    // counters (then instructions > 0 for any nonempty region) or a
    // clean available == false fallback. Never garbage.
    HostProfiler profiler;
    profiler.begin();
    volatile u64 sink = 0;
    for (u64 i = 0; i < 10000; i++)
        sink = sink + i;
    const HostCounters counters = profiler.end();
    EXPECT_EQ(counters.available, profiler.perfAvailable());
    if (counters.available)
        EXPECT_GT(counters.instructions, 0u);
    else
        EXPECT_EQ(counters.instructions, 0u);
}

TEST(SelfprofHost, CalibrationIsPositive)
{
    EXPECT_GT(calibrateSpinRate(), 0.0);
}

} // namespace
} // namespace icicle
