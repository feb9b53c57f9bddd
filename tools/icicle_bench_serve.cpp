/**
 * @file
 * icicle-bench-serve: load generator and acceptance gate for icicled.
 *
 *   $ icicled serve --socket /tmp/ic.sock &
 *   $ icicle-bench-serve --socket /tmp/ic.sock --clients 8 \
 *       --requests 50 --out BENCH_serve.json
 *   $ icicle-bench-serve --validate BENCH_serve.json
 *   $ icicle-bench-serve --check BENCH_serve.json \
 *       --min-hit-rate 0.9 --min-speedup 10
 *
 * Drives N concurrent clients over a mixed hot/cold key
 * distribution: hot keys are a small fixed set of (workload, seed)
 * points warmed into the cache before measurement; cold keys use
 * globally unique seeds, so every cold request simulates. Each
 * request is a single-point sweep; its latency is classified by what
 * the daemon reports (cacheHits == 1 → hit). The report —
 * BENCH_serve.json, schema in bench/BENCH_serve.schema.json — is the
 * style of bench/selfprof: --validate is the schema gate, --check
 * gates the caching acceptance criteria (hot-key hit rate and
 * hit-vs-miss latency speedup).
 *
 * Exit status: 0 ok / gates pass, 1 validation or gate failure,
 * 2 usage error or connection failure.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/argparse.hh"
#include "common/logging.hh"
#include "fault/atomic_file.hh"
#include "serve/chaos.hh"
#include "serve/client.hh"
#include "serve/report.hh"

using namespace icicle;

namespace
{

constexpr char kUsage[] =
    "usage: icicle-bench-serve [options]\n"
    "\n"
    "load generation (needs a running icicled):\n"
    "  --socket PATH     daemon socket (default: $ICICLED_SOCKET)\n"
    "  --clients N       concurrent client threads (default: 4)\n"
    "  --requests N      requests per client (default: 25)\n"
    "  --hot-fraction F  probability a request draws a hot key\n"
    "                    (default: 0.9)\n"
    "  --hot-keys N      size of the hot key set (default: 4)\n"
    "  --cycles N        per-point cycle budget (default: 2000000)\n"
    "  --out FILE        write BENCH_serve.json to FILE\n"
    "                    (default: BENCH_serve.json)\n"
    "\n"
    "report gates (no daemon needed):\n"
    "  --validate FILE   schema-check an existing report\n"
    "  --check FILE      gate the acceptance criteria on a report\n"
    "  --min-hit-rate F  --check: minimum hot-key hit rate\n"
    "                    (default: 0.9)\n"
    "  --min-speedup F   --check: minimum p50-miss / p99-hit latency\n"
    "                    ratio (default: 10)\n";

struct Options
{
    std::string socket;
    u32 clients = 4;
    u32 requests = 25;
    double hotFraction = 0.9;
    u32 hotKeys = 4;
    /**
     * Cold-path realism knob: big enough that a simulated point
     * costs hundreds of milliseconds, so the hit/miss latency gap
     * measures the cache, not connection overhead.
     */
    u64 maxCycles = 2'000'000;
    std::string outPath = "BENCH_serve.json";
    std::string validatePath;
    std::string checkPath;
    double minHitRate = 0.9;
    double minSpeedup = 10;
};

/** One measured request. */
struct Sample
{
    /** Wall latency of the whole exchange, retries included. */
    double micros = 0;
    /** Exchange attempts this request cost (>= 1). */
    u64 attempts = 1;
    bool hot = false;
    bool hit = false;
    bool error = false;
};

/** Cumulative ServeClient robustness counters for one thread. */
struct ClientCounters
{
    u64 attempts = 0;
    u64 retries = 0;
    u64 shedsSeen = 0;
    u64 timeouts = 0;
};

/** The micro workloads every hot key draws from. */
constexpr const char *kBenchWorkload = "vvadd";
constexpr const char *kBenchCore = "rocket";

SweepQuery
pointQuery(u64 seed, u64 max_cycles)
{
    SweepQuery query;
    query.cores = {kBenchCore};
    query.workloads = {kBenchWorkload};
    query.archs = {CounterArch::AddWires};
    query.maxCycles = max_cycles;
    query.seed = seed;
    query.format = "csv";
    return query;
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0;
    const size_t index = std::min(
        sorted.size() - 1,
        static_cast<size_t>(p * static_cast<double>(sorted.size())));
    return sorted[index];
}

std::string
fmtDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

int
runLoad(const Options &opts)
{
    // Warm phase: populate every hot key sequentially so measured
    // hot requests exercise the steady-state (warm-cache) path.
    {
        ServeClient warm(opts.socket);
        for (u32 k = 0; k < opts.hotKeys; k++)
            warm.sweep(pointQuery(k, opts.maxCycles));
    }

    // Cold seeds are globally unique and disjoint from hot seeds.
    std::atomic<u64> cold_seed{1u << 20};
    std::vector<std::vector<Sample>> per_thread(opts.clients);
    std::vector<ClientCounters> per_thread_counters(opts.clients);
    std::vector<std::thread> threads;
    for (u32 t = 0; t < opts.clients; t++) {
        threads.emplace_back([&, t] {
            std::vector<Sample> &samples = per_thread[t];
            // Owned via pointer so the counters survive into the
            // post-loop read even when a request raises mid-run.
            std::unique_ptr<ServeClient> client;
            try {
                client = std::make_unique<ServeClient>(opts.socket);
                // Deterministic per-thread LCG for the hot/cold
                // draw (no global RNG state).
                u64 lcg = 0x9e3779b97f4a7c15ull + t;
                for (u32 r = 0; r < opts.requests; r++) {
                    lcg = lcg * 6364136223846793005ull +
                          1442695040888963407ull;
                    const double draw =
                        static_cast<double>(lcg >> 11) /
                        static_cast<double>(1ull << 53);
                    Sample sample;
                    sample.hot = draw < opts.hotFraction;
                    const u64 seed =
                        sample.hot ? (lcg >> 33) % opts.hotKeys
                                   : cold_seed.fetch_add(1);
                    const u64 attempts_before = client->attempts();
                    const auto begin =
                        std::chrono::steady_clock::now();
                    const SweepReply reply = client->sweep(
                        pointQuery(seed, opts.maxCycles));
                    const auto end =
                        std::chrono::steady_clock::now();
                    sample.micros =
                        std::chrono::duration<double, std::micro>(
                            end - begin)
                            .count();
                    sample.attempts = std::max<u64>(
                        1, client->attempts() - attempts_before);
                    sample.hit = reply.cacheHits == reply.points &&
                                 reply.points > 0;
                    sample.error = !reply.allOk;
                    samples.push_back(sample);
                }
            } catch (const FatalError &err) {
                Sample sample;
                sample.error = true;
                samples.push_back(sample);
                std::fprintf(stderr, "client %u: %s\n", t,
                             err.what());
            }
            if (client) {
                ClientCounters &counters = per_thread_counters[t];
                counters.attempts = client->attempts();
                counters.retries = client->retries();
                counters.shedsSeen = client->shedsSeen();
                counters.timeouts = client->timeouts();
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    // Daemon-side robustness counters, read after the load drains so
    // they cover the whole measured phase.
    u64 shed_conns = 0, shed_requests = 0, publish_failures = 0;
    u64 degraded_points = 0, degraded = 0;
    {
        ServeClient probe(opts.socket);
        const std::string stats = probe.stats();
        shed_conns = statsValue(stats, "shed_conns");
        shed_requests = statsValue(stats, "shed_requests");
        publish_failures = statsValue(stats, "publish_failures");
        degraded_points = statsValue(stats, "degraded_points");
        degraded = statsValue(stats, "degraded");
    }

    // Aggregate.
    u64 requests = 0, hot_requests = 0, cold_requests = 0;
    u64 hits = 0, misses = 0, hot_hits = 0, errors = 0;
    std::vector<double> hit_us, miss_us;
    // total = wall latency per request (retries + backoff included);
    // attempt = the same latency amortised per exchange attempt, so
    // the gap between the two distributions is the retry tax.
    std::vector<double> total_us, attempt_us;
    for (const auto &samples : per_thread) {
        for (const Sample &sample : samples) {
            if (sample.error) {
                errors++;
                continue;
            }
            requests++;
            (sample.hot ? hot_requests : cold_requests)++;
            total_us.push_back(sample.micros);
            attempt_us.push_back(
                sample.micros /
                static_cast<double>(sample.attempts));
            if (sample.hit) {
                hits++;
                hot_hits += sample.hot ? 1 : 0;
                hit_us.push_back(sample.micros);
            } else {
                misses++;
                miss_us.push_back(sample.micros);
            }
        }
    }
    ClientCounters client_totals;
    for (const ClientCounters &counters : per_thread_counters) {
        client_totals.attempts += counters.attempts;
        client_totals.retries += counters.retries;
        client_totals.shedsSeen += counters.shedsSeen;
        client_totals.timeouts += counters.timeouts;
    }
    std::sort(hit_us.begin(), hit_us.end());
    std::sort(miss_us.begin(), miss_us.end());
    std::sort(total_us.begin(), total_us.end());
    std::sort(attempt_us.begin(), attempt_us.end());
    const double hot_hit_rate =
        hot_requests
            ? static_cast<double>(hot_hits) /
                  static_cast<double>(hot_requests)
            : 0;
    const double hit_p50 = percentile(hit_us, 0.50);
    const double hit_p99 = percentile(hit_us, 0.99);
    const double miss_p50 = percentile(miss_us, 0.50);
    const double miss_p99 = percentile(miss_us, 0.99);

    std::ostringstream os;
    os << "{\n"
       << "  \"schema_version\": 1,\n"
       << "  \"bench\": \"serve\",\n"
       << "  \"config\": {\n"
       << "    \"clients\": " << opts.clients << ",\n"
       << "    \"requests_per_client\": " << opts.requests << ",\n"
       << "    \"hot_fraction\": " << fmtDouble(opts.hotFraction)
       << ",\n"
       << "    \"hot_keys\": " << opts.hotKeys << ",\n"
       << "    \"max_cycles\": " << opts.maxCycles << ",\n"
       << "    \"core\": \"" << kBenchCore << "\",\n"
       << "    \"workload\": \"" << kBenchWorkload << "\"\n"
       << "  },\n"
       << "  \"totals\": {\n"
       << "    \"requests\": " << requests << ",\n"
       << "    \"hot_requests\": " << hot_requests << ",\n"
       << "    \"cold_requests\": " << cold_requests << ",\n"
       << "    \"cache_hits\": " << hits << ",\n"
       << "    \"cache_misses\": " << misses << ",\n"
       << "    \"jobs_simulated\": " << misses << ",\n"
       << "    \"hot_hit_rate\": " << fmtDouble(hot_hit_rate)
       << ",\n"
       << "    \"errors\": " << errors << "\n"
       << "  },\n"
       << "  \"latency_us\": {\n"
       << "    \"hit\": { \"count\": " << hit_us.size()
       << ", \"p50\": " << fmtDouble(hit_p50)
       << ", \"p99\": " << fmtDouble(hit_p99) << ", \"max\": "
       << fmtDouble(hit_us.empty() ? 0 : hit_us.back()) << " },\n"
       << "    \"miss\": { \"count\": " << miss_us.size()
       << ", \"p50\": " << fmtDouble(miss_p50)
       << ", \"p99\": " << fmtDouble(miss_p99) << ", \"max\": "
       << fmtDouble(miss_us.empty() ? 0 : miss_us.back())
       << " }\n"
       << "  },\n"
       << "  \"speedup\": {\n"
       << "    \"p50_miss_over_p99_hit\": "
       << fmtDouble(hit_p99 > 0 ? miss_p50 / hit_p99 : 0) << ",\n"
       << "    \"p99_miss_over_p99_hit\": "
       << fmtDouble(hit_p99 > 0 ? miss_p99 / hit_p99 : 0) << "\n"
       << "  },\n"
       << "  \"robustness\": {\n"
       << "    \"client\": {\n"
       << "      \"attempts\": " << client_totals.attempts << ",\n"
       << "      \"retries\": " << client_totals.retries << ",\n"
       << "      \"sheds_seen\": " << client_totals.shedsSeen
       << ",\n"
       << "      \"timeouts\": " << client_totals.timeouts << "\n"
       << "    },\n"
       << "    \"server\": {\n"
       << "      \"shed_conns\": " << shed_conns << ",\n"
       << "      \"shed_requests\": " << shed_requests << ",\n"
       << "      \"publish_failures\": " << publish_failures
       << ",\n"
       << "      \"degraded_points\": " << degraded_points << ",\n"
       << "      \"degraded\": " << degraded << "\n"
       << "    },\n"
       << "    \"latency_us\": {\n"
       << "      \"attempt\": { \"count\": " << attempt_us.size()
       << ", \"p50\": " << fmtDouble(percentile(attempt_us, 0.50))
       << ", \"p99\": " << fmtDouble(percentile(attempt_us, 0.99))
       << ", \"max\": "
       << fmtDouble(attempt_us.empty() ? 0 : attempt_us.back())
       << " },\n"
       << "      \"total\": { \"count\": " << total_us.size()
       << ", \"p50\": " << fmtDouble(percentile(total_us, 0.50))
       << ", \"p99\": " << fmtDouble(percentile(total_us, 0.99))
       << ", \"max\": "
       << fmtDouble(total_us.empty() ? 0 : total_us.back())
       << " }\n"
       << "    }\n"
       << "  }\n"
       << "}\n";

    writeFileAtomic(opts.outPath, os.str(), FaultSite::ReportWrite);
    std::printf("%llu requests (%llu hot / %llu cold): "
                "%llu hits, %llu misses, hot hit rate %.3f\n"
                "latency p50/p99 us: hit %.1f/%.1f, miss %.1f/%.1f\n"
                "robustness: %llu attempts, %llu retries, "
                "%llu sheds, %llu timeouts, server shed %llu/%llu, "
                "degraded %llu\n"
                "report: %s\n",
                static_cast<unsigned long long>(requests),
                static_cast<unsigned long long>(hot_requests),
                static_cast<unsigned long long>(cold_requests),
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses),
                hot_hit_rate, hit_p50, hit_p99, miss_p50, miss_p99,
                static_cast<unsigned long long>(
                    client_totals.attempts),
                static_cast<unsigned long long>(
                    client_totals.retries),
                static_cast<unsigned long long>(
                    client_totals.shedsSeen),
                static_cast<unsigned long long>(
                    client_totals.timeouts),
                static_cast<unsigned long long>(shed_conns),
                static_cast<unsigned long long>(shed_requests),
                static_cast<unsigned long long>(degraded),
                opts.outPath.c_str());
    return errors == 0 ? 0 : 1;
}

JsonValue
loadReport(const std::string &path)
{
    std::string error;
    JsonValue report = parseJsonFile(path, &error);
    if (!error.empty())
        fatal(error);
    return report;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (const char *env = std::getenv("ICICLED_SOCKET"))
        opts.socket = env;

    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                std::exit(cli::missingValue(arg, kUsage));
            return argv[++i];
        };
        if (cli::isHelp(arg)) {
            return cli::usageExit(stdout, kUsage);
        } else if (arg == "--socket") {
            opts.socket = value();
        } else if (arg == "--clients") {
            opts.clients = static_cast<u32>(std::stoul(value()));
        } else if (arg == "--requests") {
            opts.requests = static_cast<u32>(std::stoul(value()));
        } else if (arg == "--hot-fraction") {
            opts.hotFraction = std::stod(value());
        } else if (arg == "--hot-keys") {
            opts.hotKeys = static_cast<u32>(std::stoul(value()));
        } else if (arg == "--cycles") {
            opts.maxCycles = std::stoull(value());
        } else if (arg == "--out") {
            opts.outPath = value();
        } else if (arg == "--validate") {
            opts.validatePath = value();
        } else if (arg == "--check") {
            opts.checkPath = value();
        } else if (arg == "--min-hit-rate") {
            opts.minHitRate = std::stod(value());
        } else if (arg == "--min-speedup") {
            opts.minSpeedup = std::stod(value());
        } else {
            return cli::unknownOption(arg, kUsage);
        }
    }

    try {
        if (!opts.validatePath.empty()) {
            std::string error;
            if (!validateServeReport(loadReport(opts.validatePath),
                                     &error)) {
                std::fprintf(stderr, "%s: %s\n",
                             opts.validatePath.c_str(),
                             error.c_str());
                return 1;
            }
            std::printf("%s: valid\n", opts.validatePath.c_str());
            return 0;
        }
        if (!opts.checkPath.empty()) {
            std::string error;
            if (!checkServeReport(loadReport(opts.checkPath),
                                  opts.minHitRate, opts.minSpeedup,
                                  &error)) {
                std::fprintf(stderr, "%s: %s",
                             opts.checkPath.c_str(), error.c_str());
                return 1;
            }
            std::printf("%s: gates pass (hit rate >= %g, "
                        "speedup >= %g, errors == 0, "
                        "not degraded)\n",
                        opts.checkPath.c_str(), opts.minHitRate,
                        opts.minSpeedup);
            return 0;
        }
        if (opts.socket.empty()) {
            std::fprintf(stderr,
                         "no socket: pass --socket or set "
                         "$ICICLED_SOCKET\n");
            return cli::usageExit(stderr, kUsage);
        }
        if (opts.clients == 0 || opts.requests == 0) {
            std::fprintf(stderr,
                         "--clients and --requests must be > 0\n");
            return cli::usageExit(stderr, kUsage);
        }
        return runLoad(opts);
    } catch (const FatalError &err) {
        std::fprintf(stderr, "fatal: %s\n", err.what());
        return 2;
    } catch (const std::exception &err) {
        std::fprintf(stderr, "fatal: %s\n", err.what());
        return 2;
    }
}
