#include "selfprof/selfprof.hh"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace icicle
{

// ----------------------------------------------------- HostProfiler

#if defined(__linux__)

namespace
{

int
openCounter(u32 type, u64 config, int group_fd)
{
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.type = type;
    attr.size = sizeof(attr);
    attr.config = config;
    attr.disabled = group_fd < 0 ? 1 : 0;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    return static_cast<int>(syscall(SYS_perf_event_open, &attr, 0,
                                    -1, group_fd, 0));
}

} // namespace

HostProfiler::HostProfiler()
{
    // One group so all four counters cover the identical interval.
    fds[0] = openCounter(PERF_TYPE_HARDWARE,
                         PERF_COUNT_HW_INSTRUCTIONS, -1);
    if (fds[0] < 0)
        return;
    fds[1] = openCounter(PERF_TYPE_HARDWARE,
                         PERF_COUNT_HW_CPU_CYCLES, fds[0]);
    fds[2] = openCounter(PERF_TYPE_HARDWARE,
                         PERF_COUNT_HW_BRANCH_MISSES, fds[0]);
    fds[3] = openCounter(PERF_TYPE_HARDWARE,
                         PERF_COUNT_HW_CACHE_MISSES, fds[0]);
}

HostProfiler::~HostProfiler()
{
    for (int fd : fds)
        if (fd >= 0)
            close(fd);
}

void
HostProfiler::begin()
{
    if (fds[0] < 0)
        return;
    ioctl(fds[0], PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
    ioctl(fds[0], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
}

HostCounters
HostProfiler::end()
{
    HostCounters out;
    if (fds[0] < 0)
        return out;
    ioctl(fds[0], PERF_EVENT_IOC_DISABLE, PERF_IOC_FLAG_GROUP);
    u64 values[4] = {0, 0, 0, 0};
    for (int i = 0; i < 4; i++) {
        if (fds[i] < 0)
            continue;
        if (read(fds[i], &values[i], sizeof(u64)) !=
            static_cast<ssize_t>(sizeof(u64)))
            return out; // leave available == false
    }
    out.available = true;
    out.instructions = values[0];
    out.cycles = values[1];
    out.branchMisses = values[2];
    out.cacheMisses = values[3];
    return out;
}

#else // !__linux__

HostProfiler::HostProfiler() {}
HostProfiler::~HostProfiler() {}
void
HostProfiler::begin()
{
}
HostCounters
HostProfiler::end()
{
    return HostCounters{};
}

#endif

// ------------------------------------------------------ calibration

double
calibrateSpinRate()
{
    // LCG feedback: every iteration depends on the last, so the loop
    // measures straight-line integer latency and cannot be folded.
    volatile u64 sink = 0;
    u64 x = 0x9e3779b97f4a7c15ull;
    constexpr u64 kIters = 20'000'000;
    const auto start = std::chrono::steady_clock::now();
    for (u64 i = 0; i < kIters; i++)
        x = x * 6364136223846793005ull + 1442695040888963407ull;
    sink = x;
    (void)sink;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (elapsed.count() <= 0)
        return 0;
    return static_cast<double>(kIters) / elapsed.count();
}

// ------------------------------------------------------------- JSON

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

// ------------------------------------------------------- validation

namespace
{

bool
failValidate(std::string *error, const std::string &what)
{
    if (error)
        *error = what;
    return false;
}

bool
requirePositiveNumber(const JsonValue &obj, const std::string &key,
                      const std::string &where, std::string *error)
{
    const JsonValue *v = obj.get(key);
    if (!v || !v->isNumber())
        return failValidate(error,
                            where + ": missing number '" + key + "'");
    if (v->number <= 0)
        return failValidate(error, where + ": '" + key +
                                       "' must be > 0");
    return true;
}

} // namespace

bool
validateSelfprofReport(const JsonValue &report, std::string *error)
{
    if (!report.isObject())
        return failValidate(error, "report must be a JSON object");

    const JsonValue *version = report.get("schema_version");
    if (!version || !version->isNumber() || version->number != 1)
        return failValidate(error, "schema_version must be 1");

    const JsonValue *source = report.get("counter_source");
    if (!source || !source->isString() ||
        (source->str != "perf_event" && source->str != "wall_clock"))
        return failValidate(error, "counter_source must be "
                                   "'perf_event' or 'wall_clock'");

    const JsonValue *calibration = report.get("calibration");
    if (!calibration || !calibration->isObject())
        return failValidate(error, "missing calibration object");
    if (!requirePositiveNumber(*calibration, "spin_iters_per_sec",
                               "calibration", error))
        return false;

    const JsonValue *lanes = report.get("lanes");
    if (!lanes || !lanes->isArray() || lanes->items.empty())
        return failValidate(error, "lanes must be a non-empty array");

    for (u64 i = 0; i < lanes->items.size(); i++) {
        const JsonValue &lane = lanes->items[i];
        const std::string where = "lanes[" + std::to_string(i) + "]";
        if (!lane.isObject())
            return failValidate(error, where + " must be an object");
        const JsonValue *name = lane.get("name");
        if (!name || !name->isString() || name->str.empty())
            return failValidate(error,
                                where + ": missing string 'name'");
        if (!requirePositiveNumber(lane, "sim_cycles", where, error))
            return false;
        if (!requirePositiveNumber(lane, "wall_seconds", where,
                                   error))
            return false;
        if (!requirePositiveNumber(lane, "sim_cycles_per_sec", where,
                                   error))
            return false;
        // Host counters are optional (wall-clock fallback omits
        // them) but must be non-negative numbers when present.
        for (const char *key :
             {"host_instructions", "host_cycles",
              "host_branch_misses", "host_cache_misses",
              "host_instructions_per_sim_cycle", "host_ipc"}) {
            const JsonValue *v = lane.get(key);
            if (!v)
                continue;
            if (!v->isNumber() || v->number < 0)
                return failValidate(
                    error, where + ": '" + std::string(key) +
                               "' must be a non-negative number");
        }
    }
    return true;
}

// ------------------------------------------------------- comparison

SelfprofComparison
compareSelfprofReports(const JsonValue &baseline,
                       const JsonValue &current, double tolerance)
{
    SelfprofComparison out;
    const double base_spin =
        baseline.get("calibration")->get("spin_iters_per_sec")->number;
    const double cur_spin =
        current.get("calibration")->get("spin_iters_per_sec")->number;

    const JsonValue *cur_lanes = current.get("lanes");
    for (const JsonValue &base_lane :
         baseline.get("lanes")->items) {
        const std::string &name = base_lane.get("name")->str;
        const JsonValue *cur_lane = nullptr;
        for (const JsonValue &candidate : cur_lanes->items)
            if (candidate.get("name")->str == name)
                cur_lane = &candidate;
        if (!cur_lane) {
            out.report += "  " + name + ": missing from current "
                                        "report (not compared)\n";
            continue;
        }
        // Spin-normalized throughput: sim cycles per calibration
        // iteration, a host-speed-independent figure of merit.
        const double base_norm =
            base_lane.get("sim_cycles_per_sec")->number / base_spin;
        const double cur_norm =
            cur_lane->get("sim_cycles_per_sec")->number / cur_spin;
        const double ratio = cur_norm / base_norm;
        char line[256];
        std::snprintf(line, sizeof(line),
                      "  %s: normalized ratio %.3f (>= %.3f required)",
                      name.c_str(), ratio, 1.0 - tolerance);
        out.report += line;
        if (ratio < 1.0 - tolerance) {
            out.report += "  REGRESSION\n";
            out.ok = false;
        } else {
            out.report += "  ok\n";
        }
    }
    return out;
}

} // namespace icicle
