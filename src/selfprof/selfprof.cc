#include "selfprof/selfprof.hh"

#include <chrono>
#include <cstdio>
#include <cstring>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "report_schemas.hh"

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

// ------------------------------------------------------- validation

bool
validateSelfprofReport(const JsonValue &report, std::string *error)
{
    static const JsonValue schema =
        parseJson(kSelfprofReportSchema, nullptr);
    return validateJsonSchema(report, schema, error);
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
