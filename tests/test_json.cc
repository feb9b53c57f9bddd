/**
 * @file
 * The shared JSON module: every report renderer must emit valid JSON
 * for strings holding quotes, backslashes and control bytes, a strict
 * parser must read the original string back, and the JSON-Schema
 * subset must enforce each keyword the committed schemas use.
 */

#include <gtest/gtest.h>

#include "analysis/constraints.hh"
#include "analysis/diagnostics.hh"
#include "analysis/sarif.hh"
#include "common/json.hh"
#include "common/lockorder.hh"
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

TEST(JsonParser, ParsesScalarsArraysObjects)
{
    const JsonValue v = parsed(
        R"({"a": 1.5, "b": [true, null, "x\n"], "c": {"d": -2}})");
    ASSERT_TRUE(v.isObject());
    EXPECT_DOUBLE_EQ(v.get("a")->number, 1.5);
    ASSERT_TRUE(v.get("b")->isArray());
    EXPECT_EQ(v.get("b")->items.size(), 3u);
    EXPECT_TRUE(v.get("b")->items[0].boolean);
    EXPECT_EQ(v.get("b")->items[1].kind, JsonValue::Kind::Null);
    EXPECT_EQ(v.get("b")->items[2].str, "x\n");
    EXPECT_DOUBLE_EQ(v.get("c")->get("d")->number, -2.0);
}

TEST(JsonParser, RejectsMalformedInput)
{
    for (const char *bad :
         {"{", "[1,", "{\"a\" 1}", "tru", "{} garbage", ""}) {
        std::string error;
        const JsonValue v = parseJson(bad, &error);
        EXPECT_EQ(v.kind, JsonValue::Kind::Null) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(JsonParser, FileErrorsNameThePath)
{
    std::string error;
    const JsonValue v = parseJsonFile("/nonexistent/report.json", &error);
    EXPECT_EQ(v.kind, JsonValue::Kind::Null);
    EXPECT_NE(error.find("/nonexistent/report.json"), std::string::npos)
        << error;
}

TEST(JsonSchema, InterpretsEachKeyword)
{
    const struct
    {
        const char *schema;
        const char *doc;
        bool valid;
    } kCases[] = {
        {R"({"type": "object"})", "{}", true},
        {R"({"type": "object"})", "[]", false},
        {R"({"type": "array"})", "[]", true},
        {R"({"type": "array"})", "{}", false},
        {R"({"type": "string"})", R"("x")", true},
        {R"({"type": "string"})", "1", false},
        {R"({"type": "number"})", "1.5", true},
        {R"({"type": "number"})", R"("1")", false},
        {R"({"type": "integer"})", "2", true},
        {R"({"type": "integer"})", "2.0", true},
        {R"({"type": "integer"})", "1.5", false},
        {R"({"required": ["a"]})", R"({"a": null})", true},
        {R"({"required": ["a"]})", R"({"b": 1})", false},
        {R"({"properties": {"a": {"type": "string"}}})", R"({"b": 1})",
         true},
        {R"({"properties": {"a": {"type": "string"}}})", R"({"a": 1})",
         false},
        {R"({"items": {"minimum": 0}})", "[0, 1]", true},
        {R"({"items": {"minimum": 0}})", "[0, -1]", false},
        {R"({"const": 1})", "1.0", true},
        {R"({"const": 1})", "2", false},
        {R"({"const": "serve"})", R"("Serve")", false},
        {R"({"enum": ["a", 0]})", "0", true},
        {R"({"enum": ["a", 0]})", R"("0")", false},
        {R"({"minimum": 1})", "1", true},
        {R"({"minimum": 1})", "0.5", false},
        {R"({"maximum": 1})", "1", true},
        {R"({"maximum": 1})", "1.01", false},
        {R"({"exclusiveMinimum": 0})", "0.001", true},
        {R"({"exclusiveMinimum": 0})", "0", false},
        {R"({"minLength": 1})", R"("x")", true},
        {R"({"minLength": 1})", R"("")", false},
        {R"({"minItems": 1})", "[1]", true},
        {R"({"minItems": 1})", "[]", false},
        // Size and range keywords ignore values of other types.
        {R"({"minimum": 1, "minLength": 2})", "[]", true},
        {R"({"definitions": {"p": {"type": "integer"}},
            "properties": {"a": {"$ref": "#/definitions/p"}}})",
         R"({"a": 1})", true},
        {R"({"definitions": {"p": {"type": "integer"}},
            "properties": {"a": {"$ref": "#/definitions/p"}}})",
         R"({"a": 1.5})", false},
        {R"({"$ref": "#/definitions/missing"})", "1", false},
        {R"({"$schema": "s", "title": "t", "description": "d"})", "1",
         true},
        // Unknown keywords and types fail, even in subschemas the
        // document never reaches.
        {R"({"pattern": "^x$"})", R"("x")", false},
        {R"({"properties": {"a": {"maxLength": 3}}})", "{}", false},
        {R"({"type": "boolean"})", "true", false},
    };
    for (const auto &c : kCases) {
        std::string error;
        EXPECT_EQ(validateJsonSchema(parsed(c.doc), parsed(c.schema),
                                     &error),
                  c.valid)
            << c.schema << " on " << c.doc << ": " << error;
        EXPECT_EQ(error.empty(), c.valid) << c.schema;
    }
}

TEST(JsonSchema, ErrorsNameTheFailingLocation)
{
    const JsonValue schema = parsed(R"({"properties": {"a": {
        "properties": {"b": {"items": {"type": "number"}}}}}})");
    std::string error;
    EXPECT_FALSE(validateJsonSchema(parsed(R"({"a": {"b": [1, "x"]}})"),
                                    schema, &error));
    EXPECT_NE(error.find("$.a.b[1]"), std::string::npos) << error;
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
