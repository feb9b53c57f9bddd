#include "serve/report.hh"

#include "report_schemas.hh"

namespace icicle
{

namespace
{

bool
failValidate(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

} // namespace

bool
validateServeReport(const JsonValue &report, std::string *error)
{
    static const JsonValue schema =
        parseJson(kServeReportSchema, nullptr);
    if (!validateJsonSchema(report, schema, error))
        return false;

    // Cross-field rules the schema language cannot state.
    const JsonValue &totals = *report.get("totals");
    const double requests = totals.get("requests")->number;
    if (totals.get("cache_hits")->number +
            totals.get("cache_misses")->number !=
        requests)
        return failValidate(
            error, "totals: cache_hits + cache_misses must equal "
                   "requests");
    for (const char *key : {"hit", "miss"}) {
        const JsonValue &side = *report.get("latency_us")->get(key);
        const double p50 = side.get("p50")->number;
        const double p99 = side.get("p99")->number;
        const double max = side.get("max")->number;
        if (p50 > p99 || p99 > max)
            return failValidate(error, std::string("latency_us.") +
                                           key +
                                           ": wants p50 <= p99 <= max");
    }
    const JsonValue &client = *report.get("robustness")->get("client");
    const double attempts = client.get("attempts")->number;
    if (client.get("retries")->number > attempts)
        return failValidate(
            error, "robustness.client: retries must be <= attempts");
    if (attempts < requests)
        return failValidate(
            error, "robustness.client: attempts must be >= "
                   "totals.requests (each request costs >= 1)");
    return true;
}

bool
checkServeReport(const JsonValue &report, double min_hit_rate,
                 double min_speedup, std::string *error)
{
    std::string validate_error;
    if (!validateServeReport(report, &validate_error))
        return failValidate(error,
                            "invalid report: " + validate_error);

    std::string failures;
    const double hit_rate =
        report.get("totals")->get("hot_hit_rate")->number;
    if (hit_rate < min_hit_rate)
        failures += "hot_hit_rate " + std::to_string(hit_rate) +
                    " < required " + std::to_string(min_hit_rate) +
                    "\n";
    const double speedup =
        report.get("speedup")->get("p50_miss_over_p99_hit")->number;
    if (speedup < min_speedup)
        failures += "p50_miss_over_p99_hit " +
                    std::to_string(speedup) + " < required " +
                    std::to_string(min_speedup) + "\n";
    const double errors = report.get("totals")->get("errors")->number;
    if (errors != 0)
        failures += "totals.errors is " + std::to_string(errors) +
                    ", wanted 0\n";
    // The hit-rate and speedup gates above are about the cache; this
    // one is about whether the cache was even in play — a daemon
    // that degraded to compute-only serving mid-bench cannot back
    // the caching claim, whatever the percentiles say.
    const double degraded = report.get("robustness")
                                ->get("server")
                                ->get("degraded")
                                ->number;
    if (degraded != 0)
        failures += "robustness.server.degraded is 1: the daemon "
                    "fell back to compute-only serving\n";
    if (!failures.empty())
        return failValidate(error, failures);
    return true;
}

} // namespace icicle
