#include "common/json.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#include "common/types.hh"

namespace icicle
{

// ----------------------------------------------------------- parser

const JsonValue *
JsonValue::get(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    const auto it = fields.find(key);
    return it == fields.end() ? nullptr : &it->second;
}

namespace
{

struct Parser
{
    const std::string &text;
    u64 pos = 0;
    std::string error;

    bool
    fail(const std::string &what)
    {
        if (error.empty())
            error = what + " at offset " + std::to_string(pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            pos++;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos < text.size() && text[pos] == c) {
            pos++;
            return true;
        }
        return false;
    }

    bool
    parseValue(JsonValue &out)
    {
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        const char c = text[pos];
        if (c == '{')
            return parseObject(out);
        if (c == '[')
            return parseArray(out);
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return parseString(out.str);
        }
        if (c == 't' || c == 'f')
            return parseKeyword(out);
        if (c == 'n')
            return parseKeyword(out);
        return parseNumber(out);
    }

    bool
    parseKeyword(JsonValue &out)
    {
        static const struct
        {
            const char *word;
            JsonValue::Kind kind;
            bool value;
        } kKeywords[] = {
            {"true", JsonValue::Kind::Bool, true},
            {"false", JsonValue::Kind::Bool, false},
            {"null", JsonValue::Kind::Null, false},
        };
        for (const auto &kw : kKeywords) {
            const u64 len = std::strlen(kw.word);
            if (text.compare(pos, len, kw.word) == 0) {
                out.kind = kw.kind;
                out.boolean = kw.value;
                pos += len;
                return true;
            }
        }
        return fail("invalid literal");
    }

    bool
    parseNumber(JsonValue &out)
    {
        const u64 start = pos;
        if (pos < text.size() && text[pos] == '-')
            pos++;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E' || text[pos] == '+' ||
                text[pos] == '-'))
            pos++;
        if (pos == start)
            return fail("expected a value");
        try {
            out.number = std::stod(text.substr(start, pos - start));
        } catch (...) {
            pos = start;
            return fail("malformed number");
        }
        out.kind = JsonValue::Kind::Number;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        skipWs();
        if (!consume('"'))
            return fail("expected '\"'");
        out.clear();
        while (pos < text.size()) {
            const char c = text[pos++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos >= text.size())
                    return fail("bad escape");
                const char e = text[pos++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u': {
                    const std::string hex = text.substr(pos, 4);
                    if (hex.size() < 4 ||
                        hex.find_first_not_of("0123456789abcdefABCDEF") !=
                            std::string::npos)
                        return fail("bad \\u escape");
                    // ASCII code points decode; others are kept
                    // as-is, which is enough for these reports.
                    const unsigned long code = std::stoul(hex, nullptr, 16);
                    if (code < 0x80)
                        out += static_cast<char>(code);
                    else
                        out += "\\u" + hex;
                    pos += 4;
                    break;
                  }
                  default: return fail("bad escape");
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                return fail("raw control character in string");
            } else {
                out += c;
            }
        }
        return fail("unterminated string");
    }

    bool
    parseObject(JsonValue &out)
    {
        if (!consume('{'))
            return fail("expected '{'");
        out.kind = JsonValue::Kind::Object;
        skipWs();
        if (consume('}'))
            return true;
        while (true) {
            std::string key;
            if (!parseString(key))
                return false;
            if (!consume(':'))
                return fail("expected ':'");
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.fields[key] = std::move(value);
            if (consume(','))
                continue;
            if (consume('}'))
                return true;
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(JsonValue &out)
    {
        if (!consume('['))
            return fail("expected '['");
        out.kind = JsonValue::Kind::Array;
        skipWs();
        if (consume(']'))
            return true;
        while (true) {
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.items.push_back(std::move(value));
            if (consume(','))
                continue;
            if (consume(']'))
                return true;
            return fail("expected ',' or ']'");
        }
    }
};

} // namespace

JsonValue
parseJson(const std::string &text, std::string *error)
{
    Parser parser{text, 0, {}};
    JsonValue out;
    if (!parser.parseValue(out)) {
        if (error)
            *error = parser.error;
        return JsonValue{};
    }
    parser.skipWs();
    if (parser.pos != text.size()) {
        if (error)
            *error = "trailing garbage at offset " +
                     std::to_string(parser.pos);
        return JsonValue{};
    }
    return out;
}

JsonValue
parseJsonFile(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot open " + path;
        return JsonValue{};
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string parse_error;
    JsonValue out = parseJson(buffer.str(), &parse_error);
    if (!parse_error.empty() && error)
        *error = path + ": parse error: " + parse_error;
    return out;
}

// ------------------------------------------------------ JSON Schema

namespace
{

bool
fail(std::string *error, const std::string &where,
     const std::string &what)
{
    if (error)
        *error = where + ": " + what;
    return false;
}

/** A scalar as it would appear in JSON, for error messages. */
std::string
render(const JsonValue &v)
{
    if (v.isString())
        return '"' + jsonEscape(v.str) + '"';
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v.number);
    return v.isNumber() ? buf : "a non-scalar value";
}

bool
hasType(const JsonValue &v, const std::string &type)
{
    if (type == "integer")
        return v.isNumber() && std::floor(v.number) == v.number;
    return type == "object"   ? v.isObject()
           : type == "array"  ? v.isArray()
           : type == "string" ? v.isString()
                              : v.isNumber();
}

/**
 * Reject any keyword outside the interpreted subset, in every
 * subschema, before any document is checked: a keyword under an
 * optional property must fail even when the document omits it.
 */
bool
checkKeywords(const JsonValue &schema, const std::string &where,
              std::string *error)
{
    static const std::set<std::string> kKeywords = {
        "type", "required", "properties", "items", "const", "enum",
        "minimum", "maximum", "exclusiveMinimum", "minLength",
        "minItems", "$ref", "definitions", "title", "description",
        "$schema"};
    static const std::set<std::string> kTypes = {
        "object", "array", "number", "integer", "string"};
    if (!schema.isObject())
        return fail(error, where, "schema must be an object");
    for (const auto &[key, sub] : schema.fields) {
        if (!kKeywords.count(key))
            return fail(error, where,
                        "unsupported schema keyword '" + key + "'");
        if (key == "type" && !kTypes.count(sub.str))
            return fail(error, where,
                        "unsupported schema type " + render(sub));
        if (key == "items" &&
            !checkKeywords(sub, where + "/items", error))
            return false;
        if (key == "properties" || key == "definitions")
            for (const auto &[name, child] : sub.fields)
                if (!checkKeywords(child, where + "/" + key + "/" + name,
                                   error))
                    return false;
    }
    return true;
}

/** `value` against `schema`; `root` resolves $ref. */
bool
checkValue(const JsonValue &value, const JsonValue &schema,
           const JsonValue &root, const std::string &where,
           std::string *error)
{
    const auto bound = [&schema](const char *key) {
        const JsonValue *v = schema.get(key);
        return v && v->isNumber() ? v : nullptr;
    };
    if (const JsonValue *ref = schema.get("$ref")) {
        const std::string prefix = "#/definitions/";
        const JsonValue *defs = root.get("definitions");
        const JsonValue *target =
            ref->str.rfind(prefix, 0) == 0 && defs
                ? defs->get(ref->str.substr(prefix.size()))
                : nullptr;
        if (!target)
            return fail(error, where,
                        "unresolvable $ref " + render(*ref));
        if (!checkValue(value, *target, root, where, error))
            return false;
    }
    if (const JsonValue *type = schema.get("type");
        type && !hasType(value, type->str))
        return fail(error, where, "must be of type " + type->str);
    if (const JsonValue *expected = schema.get("const");
        expected && !(value == *expected))
        return fail(error, where, "must equal " + render(*expected));
    if (const JsonValue *options = schema.get("enum"); options &&
        std::find(options->items.begin(), options->items.end(),
                  value) == options->items.end()) {
        std::string listed;
        for (const JsonValue &option : options->items)
            listed += (listed.empty() ? "" : ", ") + render(option);
        return fail(error, where, "must be one of " + listed);
    }
    // Range and size keywords apply only to values of their type.
    if (const JsonValue *min = bound("minimum");
        min && value.isNumber() && value.number < min->number)
        return fail(error, where, "must be >= " + render(*min));
    if (const JsonValue *max = bound("maximum");
        max && value.isNumber() && value.number > max->number)
        return fail(error, where, "must be <= " + render(*max));
    if (const JsonValue *min = bound("exclusiveMinimum");
        min && value.isNumber() && value.number <= min->number)
        return fail(error, where, "must be > " + render(*min));
    if (const JsonValue *min = bound("minLength"); min &&
        value.isString() && value.str.size() < min->number)
        return fail(error, where,
                    "must be at least " + render(*min) +
                        " characters long");
    if (const JsonValue *min = bound("minItems"); min &&
        value.isArray() && value.items.size() < min->number)
        return fail(error, where,
                    "must have at least " + render(*min) + " items");
    if (const JsonValue *items = schema.get("items"); items &&
        value.isArray()) {
        for (u64 i = 0; i < value.items.size(); i++)
            if (!checkValue(value.items[i], *items, root,
                            where + "[" + std::to_string(i) + "]",
                            error))
                return false;
    }
    if (const JsonValue *required = schema.get("required"); required &&
        value.isObject()) {
        for (const JsonValue &name : required->items)
            if (!value.get(name.str))
                return fail(error, where,
                            "missing required '" + name.str + "'");
    }
    if (const JsonValue *properties = schema.get("properties");
        properties && value.isObject()) {
        for (const auto &[name, sub] : properties->fields)
            if (const JsonValue *field = value.get(name); field &&
                !checkValue(*field, sub, root, where + "." + name, error))
                return false;
    }
    return true;
}

} // namespace

bool
validateJsonSchema(const JsonValue &doc, const JsonValue &schema,
                   std::string *error)
{
    return checkKeywords(schema, "schema", error) &&
           checkValue(doc, schema, schema, "$", error);
}

} // namespace icicle
