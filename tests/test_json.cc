/**
 * @file
 * The shared JSON string escaper: every report renderer must emit
 * valid JSON for strings holding quotes, backslashes and control
 * bytes, and a strict parser must read the original string back.
 */

#include <gtest/gtest.h>

#include "analysis/constraints.hh"
#include "analysis/diagnostics.hh"
#include "analysis/sarif.hh"
#include "common/json.hh"
#include "common/lockorder.hh"
#include "selfprof/selfprof.hh"
#include "serve/chaos.hh"
#include "store/store.hh"
#include "sweep/sweep.hh"

namespace icicle
{
namespace
{

const std::string kNasty = "\"\\\t\r\x01";

/** Parse `text`, failing the test on a parse error. */
JsonValue
parsed(const std::string &text)
{
    std::string error;
    JsonValue value = parseJson(text, &error);
    EXPECT_TRUE(error.empty()) << error << "\n" << text;
    return value;
}

/** String at a path of object keys / array indices. */
std::string
stringAt(const JsonValue &root, const std::vector<std::string> &path)
{
    const JsonValue *node = &root;
    for (const std::string &step : path) {
        if (node->isArray()) {
            const u64 index = std::stoull(step);
            if (index >= node->items.size())
                return "<missing>";
            node = &node->items[index];
        } else {
            node = node->get(step);
            if (!node)
                return "<missing>";
        }
    }
    return node->isString() ? node->str : "<not a string>";
}

TEST(JsonEscape, ShortFormsAndHexEscapes)
{
    EXPECT_EQ(jsonEscape(kNasty), "\\\"\\\\\\t\\u000d\\u0001");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    // Plain text (including bytes >= 0x80) passes through unchanged.
    EXPECT_EQ(jsonEscape("rocket/vvadd/add-wires \xc3\xa9"),
              "rocket/vvadd/add-wires \xc3\xa9");
}

TEST(JsonEscape, ParserIsStrictAboutStrings)
{
    for (const char *bad : {"[\"\x01\"]", "[\"\\u00zz\"]", "[\"\\u00\"]"}) {
        std::string error;
        parseJson(bad, &error);
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(JsonEscape, SweepJsonRoundTrips)
{
    SweepResult row;
    row.label = kNasty;
    row.point.core = kNasty;
    row.error = kNasty;
    const JsonValue json = parsed(formatSweepJson({row}));
    EXPECT_EQ(stringAt(json, {"0", "label"}), kNasty);
    EXPECT_EQ(stringAt(json, {"0", "core"}), kNasty);
    EXPECT_EQ(stringAt(json, {"0", "error"}), kNasty);
}

TEST(JsonEscape, StoreDamageRoundTrips)
{
    const JsonValue json = parsed(StoreDamage{}.toJson(kNasty));
    EXPECT_EQ(stringAt(json, {"file"}), kNasty);
}

TEST(JsonEscape, ConstraintSetRoundTrips)
{
    ConstraintSet set;
    set.subject = kNasty;
    const JsonValue json = parsed(set.toJson());
    EXPECT_EQ(stringAt(json, {"subject"}), kNasty);
}

TEST(JsonEscape, LintReportAndSarifRoundTrip)
{
    LintReport report;
    report.add("TEST-1", Severity::Error, kNasty, kNasty);
    const JsonValue lint = parsed(report.toJson());
    EXPECT_EQ(stringAt(lint, {"diagnostics", "0", "message"}), kNasty);
    EXPECT_EQ(stringAt(lint, {"diagnostics", "0", "subject"}), kNasty);

    const JsonValue sarif = parsed(toSarif(kNasty, {{"", report}}));
    EXPECT_EQ(stringAt(sarif, {"runs", "0", "tool", "driver", "name"}),
              kNasty);
    // SARIF prefixes the message with its subject.
    EXPECT_EQ(stringAt(sarif,
                       {"runs", "0", "results", "0", "message", "text"}),
              "[" + kNasty + "] " + kNasty);
}

TEST(JsonEscape, LockOrderReportRoundTrips)
{
    lockorder::LockOrderReport report;
    report.nodes.push_back({kNasty, 1});
    const JsonValue json = parsed(report.toJson());
    EXPECT_EQ(stringAt(json, {"classes", "0", "name"}), kNasty);
}

TEST(JsonEscape, ChaosVerdictRoundTrips)
{
    ChaosVerdict verdict;
    verdict.failures.push_back(kNasty + "\nsecond line");
    const JsonValue json = parsed(verdict.toJson());
    EXPECT_EQ(stringAt(json, {"failures", "0"}), kNasty + "\nsecond line");
}

} // namespace
} // namespace icicle
