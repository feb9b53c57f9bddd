/**
 * @file
 * The BENCH_serve.json report contract.
 *
 * icicle-bench-serve emits one JSON document per run; CI validates
 * it with `icicle-bench-serve --validate` and gates the caching
 * acceptance criteria with `--check` (hot-key hit rate, hit-vs-miss
 * latency speedup). The schema is bench/BENCH_serve.schema.json
 * itself, compiled into the library and run by common/json.
 */

#ifndef ICICLE_SERVE_REPORT_HH
#define ICICLE_SERVE_REPORT_HH

#include <string>

#include "common/json.hh"

namespace icicle
{

/**
 * Validate a parsed BENCH_serve.json against the schema, then the
 * cross-field rules it cannot state: cache_hits + cache_misses ==
 * requests, p50 <= p99 <= max for both latency series, retries <=
 * attempts, and attempts >= requests. Returns true when valid;
 * otherwise fills *error.
 */
bool validateServeReport(const JsonValue &report, std::string *error);

/**
 * Gate the acceptance criteria on a valid report:
 *   - totals.hot_hit_rate >= min_hit_rate
 *   - speedup.p50_miss_over_p99_hit >= min_speedup
 *   - totals.errors == 0
 *   - robustness.server.degraded == 0 (a daemon that fell back to
 *     compute-only serving mid-bench invalidates the caching claim)
 * Returns true when all pass; otherwise fills *error with every
 * failed gate.
 */
bool checkServeReport(const JsonValue &report, double min_hit_rate,
                      double min_speedup, std::string *error);

} // namespace icicle

#endif // ICICLE_SERVE_REPORT_HH
