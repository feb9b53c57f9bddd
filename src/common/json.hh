/**
 * @file
 * The one JSON string escaper every report renderer shares (sweep,
 * store damage, constraints, lint, SARIF, lock order, chaos).
 */

#ifndef ICICLE_COMMON_JSON_HH
#define ICICLE_COMMON_JSON_HH

#include <cstdio>
#include <string>

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

} // namespace icicle

#endif // ICICLE_COMMON_JSON_HH
