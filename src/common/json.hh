/**
 * @file
 * The one JSON module: the string escaper every report renderer
 * shares (sweep, store damage, constraints, lint, SARIF, lock order,
 * chaos), the reader for the BENCH_*.json reports, and the
 * JSON-Schema subset that runs the committed bench/BENCH_*.schema.json
 * files as their validators.
 */

#ifndef ICICLE_COMMON_JSON_HH
#define ICICLE_COMMON_JSON_HH

#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace icicle
{

/**
 * Escape `text` for the inside of a JSON string literal (no quotes
 * added): '"' and '\\' get a backslash, '\n' and '\t' their short
 * forms, and every other byte below 0x20 becomes \u00XX. All other
 * bytes pass through unchanged.
 */
inline std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char hex[8];
                std::snprintf(hex, sizeof(hex), "\\u%04x", c);
                out += hex;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** A parsed JSON value. */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string str;
    std::vector<JsonValue> items;
    std::map<std::string, JsonValue> fields;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    /** Field lookup; nullptr when absent or not an object. */
    const JsonValue *get(const std::string &key) const;

    /** Structural equality (numbers compare by value: 1 == 1.0). */
    bool operator==(const JsonValue &) const = default;
};

/**
 * Parse a JSON document. On failure returns Kind::Null and sets
 * *error to a message with an offset.
 */
JsonValue parseJson(const std::string &text, std::string *error);

/**
 * Read and parse the JSON file at `path`. On failure returns
 * Kind::Null and sets *error to a message naming the path.
 */
JsonValue parseJsonFile(const std::string &path, std::string *error);

/**
 * Validate `doc` against the JSON Schema `schema`. Interprets exactly
 * the keywords the committed report schemas use: type
 * (object/array/number/integer/string), required, properties, items,
 * const, enum, minimum, maximum, exclusiveMinimum, minLength,
 * minItems, and $ref into #/definitions. title, description and
 * $schema are ignored. Any other keyword fails validation, so a
 * schema cannot quietly outgrow this interpreter. Returns true when
 * valid; otherwise fills *error with the failing location and rule.
 */
bool validateJsonSchema(const JsonValue &doc, const JsonValue &schema,
                        std::string *error);

} // namespace icicle

#endif // ICICLE_COMMON_JSON_HH
