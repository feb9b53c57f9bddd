/**
 * @file
 * icicled serve subsystem tests: wire-protocol round trips and
 * corruption rejection, cache key identity, crash-safe cache
 * publish/lookup, and an in-process daemon end-to-end drill pinning
 * the headline guarantee — a cached reply is byte-identical to the
 * first (simulated) reply.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/lockorder.hh"
#include "common/logging.hh"
#include "common/sync.hh"
#include "fault/fault.hh"
#include "serve/cache.hh"
#include "serve/chaos.hh"
#include "serve/client.hh"
#include "serve/pool.hh"
#include "serve/protocol.hh"
#include "serve/report.hh"
#include "serve/server.hh"
#include "sweep/journal.hh"
#include "sweep/sweep.hh"

namespace icicle
{
namespace
{

class TempDir
{
  public:
    explicit TempDir(const char *name)
        : path(std::string(::testing::TempDir()) + name)
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    const std::string path;
};

/** One real simulated result: small enough to run per-test. */
SweepResult
simulatedResult()
{
    GridSpec grid;
    grid.cores = {"rocket"};
    grid.workloads = {"vvadd"};
    grid.counterArchs = {CounterArch::AddWires};
    grid.maxCycles = 200'000;
    const std::vector<SweepResult> results =
        runSweep(grid, SweepOptions{});
    EXPECT_EQ(results.size(), 1u);
    EXPECT_EQ(results.at(0).status, SweepStatus::Ok);
    return results.at(0);
}

TEST(ServeProtocol, SweepQueryRoundTrip)
{
    SweepQuery query;
    query.cores = {"rocket", "boom-large"};
    query.workloads = {"vvadd", "qsort", "towers"};
    query.archs = {CounterArch::Scalar, CounterArch::Distributed};
    query.maxCycles = 123'456'789;
    query.seed = 0xdeadbeefcafe;
    query.format = "csv";

    SweepQuery decoded;
    ASSERT_TRUE(decodeSweepQuery(encodeSweepQuery(query), decoded));
    EXPECT_EQ(decoded.cores, query.cores);
    EXPECT_EQ(decoded.workloads, query.workloads);
    EXPECT_EQ(decoded.archs, query.archs);
    EXPECT_EQ(decoded.maxCycles, query.maxCycles);
    EXPECT_EQ(decoded.seed, query.seed);
    EXPECT_EQ(decoded.format, query.format);
}

TEST(ServeProtocol, ReplyRoundTrips)
{
    SweepReply reply;
    reply.report = "core,workload\nrocket,vvadd\n";
    reply.points = 7;
    reply.cacheHits = 3;
    reply.simulated = 4;
    reply.allOk = false;

    SweepReply sweep_decoded;
    ASSERT_TRUE(
        decodeSweepReply(encodeSweepReply(reply), sweep_decoded));
    EXPECT_EQ(sweep_decoded.report, reply.report);
    EXPECT_EQ(sweep_decoded.points, reply.points);
    EXPECT_EQ(sweep_decoded.cacheHits, reply.cacheHits);
    EXPECT_EQ(sweep_decoded.simulated, reply.simulated);
    EXPECT_EQ(sweep_decoded.allOk, reply.allOk);

    WindowQuery window;
    window.storePath = "/tmp/some/store.icst";
    window.begin = 1'000;
    window.end = 2'000'000;
    window.coreWidth = 4;
    WindowQuery window_decoded;
    ASSERT_TRUE(decodeWindowQuery(encodeWindowQuery(window),
                                  window_decoded));
    EXPECT_EQ(window_decoded.storePath, window.storePath);
    EXPECT_EQ(window_decoded.begin, window.begin);
    EXPECT_EQ(window_decoded.end, window.end);
    EXPECT_EQ(window_decoded.coreWidth, window.coreWidth);
}

TEST(ServeProtocol, JobMessagesCarryBitExactResults)
{
    JobRequest request;
    request.point.core = "rocket";
    request.point.workload = "vvadd";
    request.point.counterArch = CounterArch::AddWires;
    request.point.maxCycles = 200'000;
    request.seed = 42;
    JobRequest request_decoded;
    ASSERT_TRUE(decodeJobRequest(encodeJobRequest(request),
                                 request_decoded));
    EXPECT_EQ(request_decoded.point.core, request.point.core);
    EXPECT_EQ(request_decoded.point.workload,
              request.point.workload);
    EXPECT_EQ(request_decoded.point.counterArch,
              request.point.counterArch);
    EXPECT_EQ(request_decoded.point.maxCycles,
              request.point.maxCycles);
    EXPECT_EQ(request_decoded.seed, request.seed);

    // The reply embeds the journal result codec; the decoded result
    // must re-encode to the same bytes (bit-exact doubles included).
    JobReply reply;
    reply.ok = true;
    reply.result = simulatedResult();
    JobReply reply_decoded;
    ASSERT_TRUE(decodeJobReply(encodeJobReply(reply),
                               reply_decoded));
    EXPECT_TRUE(reply_decoded.ok);
    EXPECT_EQ(encodeSweepResult(reply_decoded.result),
              encodeSweepResult(reply.result));
}

TEST(ServeProtocol, TruncatedPayloadsNeverDecode)
{
    // Every strict prefix of a valid payload must be rejected: the
    // decoders bounds-check every read and demand full consumption,
    // so a torn buffer can never alias a shorter valid message.
    SweepQuery query;
    query.cores = {"rocket"};
    query.workloads = {"vvadd", "qsort"};
    query.format = "json";
    const std::string encoded = encodeSweepQuery(query);
    for (size_t len = 0; len < encoded.size(); len++) {
        SweepQuery decoded;
        EXPECT_FALSE(
            decodeSweepQuery(encoded.substr(0, len), decoded))
            << "prefix of length " << len << " decoded";
    }

    JobReply reply;
    reply.ok = true;
    reply.result = simulatedResult();
    const std::string reply_bytes = encodeJobReply(reply);
    for (size_t len = 0; len < reply_bytes.size(); len++) {
        JobReply decoded;
        EXPECT_FALSE(
            decodeJobReply(reply_bytes.substr(0, len), decoded))
            << "prefix of length " << len << " decoded";
    }
}

TEST(ServeProtocol, OverloadNoticeRoundTripsAndRejectsTornPrefixes)
{
    OverloadNotice notice;
    notice.retryAfterMs = 75;
    notice.reason = "queue";
    const std::string encoded = encodeOverloadNotice(notice);

    OverloadNotice decoded;
    ASSERT_TRUE(decodeOverloadNotice(encoded, decoded));
    EXPECT_EQ(decoded.retryAfterMs, notice.retryAfterMs);
    EXPECT_EQ(decoded.reason, notice.reason);

    // Shed notices ride the same torn-frame-prone wire as every
    // other reply: every strict prefix must be rejected, never
    // misread as a shorter valid notice.
    for (size_t len = 0; len < encoded.size(); len++) {
        OverloadNotice torn;
        EXPECT_FALSE(
            decodeOverloadNotice(encoded.substr(0, len), torn))
            << "prefix of length " << len << " decoded";
    }
    // Trailing garbage is not full consumption either.
    OverloadNotice padded;
    EXPECT_FALSE(decodeOverloadNotice(encoded + "x", padded));
}

TEST(ServeProtocol, FramesRoundTripAndCorruptionIsDetected)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);

    ASSERT_TRUE(writeFrame(fds[1], MsgType::Ping, "hello"));
    MsgType type;
    std::string payload;
    EXPECT_EQ(readFrame(fds[0], type, payload), FrameRead::Ok);
    EXPECT_EQ(type, MsgType::Ping);
    EXPECT_EQ(payload, "hello");

    // A peer that closes cleanly between frames reads as Eof...
    ::close(fds[1]);
    EXPECT_EQ(readFrame(fds[0], type, payload), FrameRead::Eof);
    ::close(fds[0]);

    // ...while garbage where the magic belongs is a hard Error.
    ASSERT_EQ(::pipe(fds), 0);
    const char garbage[] = "this is not a frame at all........";
    ASSERT_EQ(::write(fds[1], garbage, sizeof garbage),
              static_cast<ssize_t>(sizeof garbage));
    ::close(fds[1]);
    EXPECT_EQ(readFrame(fds[0], type, payload), FrameRead::Error);
    ::close(fds[0]);

    // A flipped payload bit fails the CRC even with intact framing.
    ASSERT_EQ(::pipe(fds), 0);
    {
        int capture[2];
        ASSERT_EQ(::pipe(capture), 0);
        ASSERT_TRUE(writeFrame(capture[1], MsgType::Ping, "hello"));
        ::close(capture[1]);
        std::string raw(64, '\0');
        const ssize_t got = ::read(capture[0], raw.data(),
                                   raw.size());
        ASSERT_GT(got, 0);
        raw.resize(static_cast<size_t>(got));
        ::close(capture[0]);
        raw[raw.size() - 5] ^= 0x01; // last payload byte
        ASSERT_EQ(::write(fds[1], raw.data(), raw.size()),
                  static_cast<ssize_t>(raw.size()));
        ::close(fds[1]);
    }
    EXPECT_EQ(readFrame(fds[0], type, payload), FrameRead::Error);
    ::close(fds[0]);
}

/** The committed bench/BENCH_serve.json, parsed. */
JsonValue
committedServeReport()
{
    std::string error;
    JsonValue report =
        parseJsonFile(ICICLE_BENCH_DIR "/BENCH_serve.json", &error);
    EXPECT_TRUE(error.empty()) << error;
    return report;
}

TEST(ServeSchema, AcceptsCommittedReport)
{
    std::string error;
    EXPECT_TRUE(validateServeReport(committedServeReport(), &error))
        << error;
}

TEST(ServeSchema, RejectsOneRuleMutations)
{
    // Each mutation breaks exactly one rule; `where` must appear in
    // the error, so the intended rule is the one that fired.
    const struct
    {
        const char *where;
        std::function<void(JsonValue &)> mutate;
    } kMutations[] = {
        {"'core'",
         [](JsonValue &r) { r.fields["config"].fields.erase("core"); }},
        {"totals.errors",
         [](JsonValue &r) {
             r.fields["totals"].fields["errors"].number = 1.5;
         }},
        {"config.workload",
         [](JsonValue &r) {
             r.fields["config"].fields["workload"].str.clear();
         }},
        {"cache_hits + cache_misses",
         [](JsonValue &r) {
             r.fields["totals"].fields["cache_hits"].number += 1;
         }},
        {"latency_us.hit",
         [](JsonValue &r) {
             JsonValue &hit = r.fields["latency_us"].fields["hit"];
             hit.fields["p50"].number = hit.fields["p99"].number + 1;
         }},
        {"latency_us.miss",
         [](JsonValue &r) {
             JsonValue &miss = r.fields["latency_us"].fields["miss"];
             miss.fields["max"].number = miss.fields["p99"].number - 1;
         }},
        {"retries must be <= attempts",
         [](JsonValue &r) {
             JsonValue &client = r.fields["robustness"].fields["client"];
             client.fields["retries"].number =
                 client.fields["attempts"].number + 1;
         }},
        {"attempts must be >= totals.requests",
         [](JsonValue &r) {
             r.fields["robustness"].fields["client"].fields["attempts"]
                 .number = r.fields["totals"].fields["requests"].number - 1;
         }},
    };
    for (const auto &mutation : kMutations) {
        JsonValue report = committedServeReport();
        mutation.mutate(report);
        std::string error;
        EXPECT_FALSE(validateServeReport(report, &error))
            << "mutation not caught: " << mutation.where;
        EXPECT_NE(error.find(mutation.where), std::string::npos)
            << mutation.where << ": " << error;
    }
}

TEST(ServeCache, KeyIsDeterministicAndCoversEveryAxis)
{
    SweepPoint point;
    point.core = "rocket";
    point.workload = "vvadd";
    point.counterArch = CounterArch::AddWires;
    point.maxCycles = 1'000'000;

    const ServeKey key = serveCacheKey(point, 7);
    EXPECT_EQ(serveCacheKey(point, 7).hash, key.hash);
    EXPECT_EQ(serveCacheKey(point, 7).blob, key.blob);

    // Every field that can change the result must change the blob
    // (the authoritative identity) and, in practice, the hash.
    const auto differs = [&](const SweepPoint &p, u64 seed) {
        const ServeKey other = serveCacheKey(p, seed);
        EXPECT_NE(other.blob, key.blob);
        EXPECT_NE(other.hash, key.hash);
    };
    SweepPoint other = point;
    other.core = "boom-large";
    differs(other, 7);
    other = point;
    other.workload = "qsort";
    differs(other, 7);
    other = point;
    other.counterArch = CounterArch::Distributed;
    differs(other, 7);
    other = point;
    other.maxCycles = 2'000'000;
    differs(other, 7);
    other = point;
    other.withTrace = true;
    differs(other, 7);
    differs(point, 8);
}

TEST(ServeCache, HashCollisionsDegradeToMisses)
{
    TempDir dir("serve_cache_collision");
    ResultCache cache(dir.path);
    const SweepResult result = simulatedResult();
    const ServeKey key = serveCacheKey(result.point, 0);
    cache.publish(key, result);

    // Forge a different point whose blob lands on the same file
    // name. The double-CRC32 scheme this replaced had only 32 bits
    // of entropy (hi was a function of lo) and trivially
    // constructible collisions; with the blob embedded in the entry
    // and byte-compared on lookup, even a perfect hash collision is
    // a miss, never the other point's result.
    ServeKey collider = serveCacheKey(result.point, 1);
    ASSERT_NE(collider.blob, key.blob);
    collider.hash = key.hash;
    SweepResult loaded;
    EXPECT_FALSE(cache.lookup(collider, loaded));
    // The entry itself is intact: the true key still hits.
    EXPECT_TRUE(cache.lookup(key, loaded));
}

TEST(ServeCache, PublishThenLookupIsBitExact)
{
    TempDir dir("serve_cache_roundtrip");
    ResultCache cache(dir.path);
    const SweepResult result = simulatedResult();
    const ServeKey key = serveCacheKey(result.point, 0);

    SweepResult loaded;
    EXPECT_FALSE(cache.lookup(key, loaded)); // cold
    cache.publish(key, result);
    EXPECT_EQ(cache.entriesOnDisk(), 1u);
    ASSERT_TRUE(cache.lookup(key, loaded));
    EXPECT_EQ(encodeSweepResult(loaded), encodeSweepResult(result));
}

TEST(ServeCache, DamagedEntriesDegradeToMisses)
{
    TempDir dir("serve_cache_damage");
    ResultCache cache(dir.path);
    const SweepResult result = simulatedResult();
    const ServeKey key = serveCacheKey(result.point, 0);
    cache.publish(key, result);
    const std::string path = cache.entryPath(key.hash);

    // A single flipped payload bit fails the envelope CRC.
    {
        std::fstream file(path, std::ios::in | std::ios::out |
                                    std::ios::binary);
        file.seekp(-3, std::ios::end);
        char byte;
        file.seekg(-3, std::ios::end);
        file.get(byte);
        byte = static_cast<char>(byte ^ 0x10);
        file.seekp(-3, std::ios::end);
        file.put(byte);
    }
    SweepResult loaded;
    EXPECT_FALSE(cache.lookup(key, loaded));

    // Truncation (a torn write that escaped rename) is also a miss.
    cache.publish(key, result);
    ASSERT_TRUE(cache.lookup(key, loaded));
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) / 2);
    EXPECT_FALSE(cache.lookup(key, loaded));

    // A different point's entry served under this name (a renamed
    // or copied file) fails the embedded-blob comparison.
    const ServeKey other = serveCacheKey(result.point, 1);
    cache.publish(other, result);
    std::filesystem::copy_file(
        cache.entryPath(other.hash), path,
        std::filesystem::copy_options::overwrite_existing);
    EXPECT_FALSE(cache.lookup(key, loaded));

    // In-flight tmp files are invisible to the entry count.
    {
        std::ofstream tmp(dir.path + "/feedfacefeedface.res.tmp",
                          std::ios::binary);
        tmp << "torn";
    }
    EXPECT_EQ(cache.entriesOnDisk(), 2u); // both seeds' files, no .tmp
}

TEST(ServePool, WedgedWorkerIsKilledNotWaitedOn)
{
    // hang@job#0 makes the worker's first job stall (200ms in the
    // unbounded child) — long past the 100ms dispatch deadline. The
    // pool must SIGKILL and respawn the wedged worker instead of
    // blocking in readFrame forever with the shard mutex held; the
    // fresh worker hangs again (its own fault plan copy), so the job
    // fails after exactly one restart.
    setFaultSpec("hang@job#0");
    WorkerPool pool(1, 100);
    JobRequest request;
    request.point.core = "rocket";
    request.point.workload = "vvadd";
    request.point.counterArch = CounterArch::AddWires;
    request.point.maxCycles = 200'000;
    JobReply reply;
    std::string error;
    const bool ok = pool.runJob(0, request, reply, error);
    setFaultSpec("");
    EXPECT_FALSE(ok);
    EXPECT_NE(error.find("timed out"), std::string::npos) << error;
    EXPECT_EQ(pool.restarts(), 1u);
}

TEST(ServeEndToEnd, LiveSocketIsRefusedStaleSocketReclaimed)
{
    TempDir dir("serve_socket_guard");
    ServerOptions options;
    options.socketPath = dir.path + "/icicled.sock";
    options.cacheDir = dir.path + "/cache";
    options.shards = 1;
    {
        IcicleServer server(options);
        std::thread daemon([&] { server.run(); });
        // A second daemon on the same path must refuse to start, not
        // silently unlink the live daemon's socket out from under it.
        EXPECT_THROW(IcicleServer second(options), FatalError);
        ServeClient client(options.socketPath);
        client.shutdown();
        daemon.join();
    }
    // A stale socket file — bound, then abandoned without unlink,
    // as a SIGKILLed daemon leaves — answers the probe with
    // ECONNREFUSED and is reclaimed.
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, options.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        ::close(fd);
    }
    IcicleServer server(options);
    std::thread daemon([&] { server.run(); });
    ServeClient client(options.socketPath);
    EXPECT_EQ(client.ping("alive"), "alive");
    client.shutdown();
    daemon.join();
}

TEST(ServeEndToEnd, CachedRepliesAreByteIdentical)
{
    TempDir dir("serve_e2e");
    ServerOptions options;
    options.socketPath = dir.path + "/icicled.sock";
    options.cacheDir = dir.path + "/cache";
    options.shards = 2;
    IcicleServer server(options);
    std::thread daemon([&] { server.run(); });

    {
        ServeClient client(options.socketPath);
        EXPECT_EQ(client.ping("roundtrip"), "roundtrip");

        SweepQuery query;
        query.cores = {"rocket"};
        query.workloads = {"vvadd", "towers"};
        query.archs = {CounterArch::AddWires};
        query.maxCycles = 200'000;
        query.format = "csv";

        const SweepReply cold = client.sweep(query);
        EXPECT_EQ(cold.points, 2u);
        EXPECT_EQ(cold.cacheHits, 0u);
        EXPECT_EQ(cold.simulated, 2u);
        EXPECT_TRUE(cold.allOk);

        const SweepReply warm = client.sweep(query);
        EXPECT_EQ(warm.points, 2u);
        EXPECT_EQ(warm.cacheHits, 2u);
        EXPECT_EQ(warm.simulated, 0u);
        // The headline guarantee: the cached report is the simulated
        // report, byte for byte.
        EXPECT_EQ(warm.report, cold.report);

        // A different seed partitions the cache: same grid, miss.
        query.seed = 99;
        const SweepReply reseeded = client.sweep(query);
        EXPECT_EQ(reseeded.cacheHits, 0u);
        EXPECT_EQ(reseeded.report, cold.report);

        const std::string stats = client.stats();
        EXPECT_NE(stats.find("cache_hits: 2"), std::string::npos)
            << stats;
        EXPECT_NE(stats.find("cache_entries: 4"), std::string::npos)
            << stats;

        // Invalid requests get an Error reply, not a dead daemon.
        SweepQuery bad = query;
        bad.workloads = {"no-such-workload"};
        EXPECT_THROW(client.sweep(bad), FatalError);
    }
    {
        // The daemon survived the error; a fresh client still works.
        ServeClient client(options.socketPath);
        client.ping();
        client.shutdown();
    }
    daemon.join();
}

// ---- overload protection and client resilience ----------------------

/**
 * stall@read regression for the per-attempt reply deadline: a daemon
 * that takes a frame but stalls before reading the next one must not
 * hang the client past attemptTimeoutMs — the timeout fires, the
 * client reconnects, and the retry (a fresh read ordinal) succeeds.
 */
TEST(ServeEndToEnd, StalledDaemonReadTripsClientTimeoutThenRetries)
{
    TempDir dir("serve_stall_read");
    ServerOptions options;
    options.socketPath = dir.path + "/icicled.sock";
    options.cacheDir = dir.path + "/cache";
    options.shards = 1;
    IcicleServer server(options);
    std::thread daemon([&] { server.run(); });

    // Armed before the first connection, so the very first
    // server-side frame read (ordinal 0) stalls well past the
    // client's 200ms attempt deadline.
    setFaultSpec("stall@read#0=1000");
    ClientOptions copts;
    copts.attemptTimeoutMs = 200;
    copts.backoffBaseMs = 10;
    {
        ServeClient client(options.socketPath, copts);
        EXPECT_EQ(client.ping("still-there"), "still-there");
        EXPECT_GE(client.timeouts(), 1u);
        EXPECT_GE(client.retries(), 1u);
    }
    setFaultSpec("");

    ServeClient finisher(options.socketPath);
    finisher.shutdown();
    daemon.join();
}

/**
 * Admission gate, stage 1: with the connection cap full, further
 * connections are shed with an Overloaded notice (visible in the
 * client's counters and the daemon's), and once the cap frees the
 * same retry policy gets a client through — shedding preserves
 * availability instead of letting load wedge the daemon.
 */
TEST(ServeEndToEnd, ConnectionCapShedsThenRecovers)
{
    TempDir dir("serve_shed_conns");
    ServerOptions options;
    options.socketPath = dir.path + "/icicled.sock";
    options.cacheDir = dir.path + "/cache";
    options.shards = 1;
    options.maxConns = 1;
    IcicleServer server(options);
    std::thread daemon([&] { server.run(); });

    auto holder = std::make_unique<ServeClient>(options.socketPath);
    EXPECT_EQ(holder->ping("occupy"), "occupy");

    // While the one admitted connection lives, every attempt of a
    // second client is shed until its retry budget runs out.
    {
        ClientOptions copts;
        copts.maxRetries = 2;
        copts.backoffBaseMs = 5;
        copts.backoffCapMs = 20;
        ServeClient shed(options.socketPath, copts);
        EXPECT_THROW(shed.ping(), FatalError);
        EXPECT_GE(shed.shedsSeen(), 1u);
        EXPECT_EQ(shed.attempts(), 3u); // first try + 2 retries
    }

    // Cap freed: a default-policy client absorbs any straggling shed
    // (the daemon counts the holder's close asynchronously) and gets
    // admitted.
    holder.reset();
    ServeClient after(options.socketPath);
    EXPECT_EQ(after.ping("admitted"), "admitted");
    const std::string stats = after.stats();
    EXPECT_GE(statsValue(stats, "shed_conns"), 3u);
    after.shutdown();
    daemon.join();
}

/**
 * Admission gate, stage 2: with one shard and a one-deep miss queue,
 * a second concurrent miss is shed with a retry hint instead of
 * convoying on the shard mutex — and the shed client's retry/backoff
 * absorbs it, succeeding once the shard drains.
 */
TEST(ServeEndToEnd, QueueCapShedsMissesUntilTheShardDrains)
{
    TempDir dir("serve_shed_queue");
    // The slow miss is manufactured, not simulated: hang@job stalls
    // the occupant's job in its worker for a bounded beat (~200ms in
    // the unbounded child) before it completes — the micro workloads
    // themselves finish far too fast to hold a queue slot reliably.
    // Armed before the fork so the workers inherit it; the 500ms job
    // deadline is headroom above the stall, so no worker is killed.
    setFaultSpec("hang@job#0");
    ServerOptions options;
    options.socketPath = dir.path + "/icicled.sock";
    options.cacheDir = dir.path + "/cache";
    options.shards = 1;
    options.maxQueue = 1;
    options.retryAfterMs = 10;
    options.jobTimeoutMs = 500;
    IcicleServer server(options);
    std::thread daemon([&] { server.run(); });

    SweepQuery slow;
    slow.cores = {"rocket"};
    slow.workloads = {"towers"};
    slow.archs = {CounterArch::AddWires};
    slow.maxCycles = 50'000;
    slow.format = "csv";
    SweepQuery blocked = slow;
    blocked.workloads = {"vvadd"};

    std::thread occupant([&] {
        ServeClient a(options.socketPath);
        // The job stalls in the worker for its ~200ms hang beat and
        // then completes — well inside the 500ms deadline, but long
        // enough to hold the single queue slot while B knocks.
        const SweepReply reply = a.sweep(slow);
        EXPECT_TRUE(reply.allOk);
    });
    // Let the stalled miss take the single queue slot, then disarm
    // so any worker forked from here on starts from the clean plan.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    setFaultSpec("");
    ClientOptions copts;
    copts.maxRetries = 50;
    copts.backoffBaseMs = 10;
    copts.backoffCapMs = 50;
    ServeClient b(options.socketPath, copts);
    const SweepReply reply = b.sweep(blocked);
    EXPECT_TRUE(reply.allOk);
    occupant.join();

    EXPECT_GE(b.shedsSeen(), 1u);
    EXPECT_GE(statsValue(b.stats(), "shed_requests"), 1u);
    b.shutdown();
    daemon.join();
}

/**
 * Graceful degradation: persistent cache-publish failure (injected
 * ENOSPC at the StoreWrite site) must flip the daemon into
 * compute-only serving after degradedAfter consecutive strikes —
 * requests keep succeeding with byte-identical reports, they just
 * stop memoising. The workers were forked before the spec was armed,
 * so only the parent-side publish path sees the fault.
 */
TEST(ServeEndToEnd, PersistentPublishFailureDegradesToComputeOnly)
{
    TempDir dir("serve_degraded");
    ServerOptions options;
    options.socketPath = dir.path + "/icicled.sock";
    options.cacheDir = dir.path + "/cache";
    options.shards = 1;
    options.degradedAfter = 2;
    IcicleServer server(options);
    std::thread daemon([&] { server.run(); });
    setFaultSpec("enospc@store#0,enospc@store#1");

    ServeClient client(options.socketPath);
    SweepQuery query;
    query.cores = {"rocket"};
    query.workloads = {"vvadd", "towers"};
    query.archs = {CounterArch::AddWires};
    query.maxCycles = 200'000;
    query.format = "csv";

    // Both publishes fail: the requests still succeed (the computed
    // result in hand is correct), and strike two flips degraded.
    const SweepReply cold = client.sweep(query);
    EXPECT_TRUE(cold.allOk);
    EXPECT_EQ(cold.simulated, 2u);
    EXPECT_TRUE(server.isDegraded());

    // Degraded = compute-only: the same grid misses and
    // re-simulates, with byte-identical output.
    const SweepReply again = client.sweep(query);
    EXPECT_TRUE(again.allOk);
    EXPECT_EQ(again.cacheHits, 0u);
    EXPECT_EQ(again.simulated, 2u);
    EXPECT_EQ(again.report, cold.report);

    const std::string stats = client.stats();
    EXPECT_GE(statsValue(stats, "publish_failures"), 2u);
    EXPECT_EQ(statsValue(stats, "degraded"), 1u);
    EXPECT_GE(statsValue(stats, "degraded_points"), 2u);
    setFaultSpec("");
    client.shutdown();
    daemon.join();
}

// ---- ServeStats torn-snapshot contract ------------------------------

/**
 * The hammer behind server.hh's documented contract: counters are
 * individually monotonic, every mid-flight snapshot satisfies
 * cacheHits + cacheMisses >= points, and a quiescent snapshot is
 * exact. A failed pin here means someone weakened the release/acquire
 * pairing in countPoint()/snapshot().
 */
TEST(ServeStats, SnapshotsAreMonotonicAndPinned)
{
    ServeStats stats;
    constexpr u64 kThreads = 4;
    constexpr u64 kPerThread = 20'000;
    std::vector<std::thread> writers;
    for (u64 t = 0; t < kThreads; t++) {
        writers.emplace_back([&stats, t] {
            for (u64 i = 0; i < kPerThread; i++) {
                stats.requests.fetch_add(
                    1, std::memory_order_relaxed);
                stats.countPoint(/*hit=*/(i + t) % 2 == 0);
            }
        });
    }

    ServeStats::Snapshot last;
    for (int probe = 0; probe < 2'000; probe++) {
        const ServeStats::Snapshot snap = stats.snapshot();
        // Individually monotonic: no counter ever goes backwards.
        EXPECT_GE(snap.points, last.points);
        EXPECT_GE(snap.cacheHits, last.cacheHits);
        EXPECT_GE(snap.cacheMisses, last.cacheMisses);
        EXPECT_GE(snap.requests, last.requests);
        // The pinned cross-counter relation, valid mid-flight.
        EXPECT_GE(snap.cacheHits + snap.cacheMisses, snap.points);
        last = snap;
    }
    for (std::thread &writer : writers)
        writer.join();

    // Quiescent: exact.
    const ServeStats::Snapshot done = stats.snapshot();
    EXPECT_EQ(done.points, kThreads * kPerThread);
    EXPECT_EQ(done.requests, kThreads * kPerThread);
    EXPECT_EQ(done.cacheHits + done.cacheMisses, done.points);
    EXPECT_EQ(done.cacheHits, kThreads * kPerThread / 2);
    EXPECT_EQ(done.simulated, done.cacheMisses);
}

// ---- fork safety -----------------------------------------------------

/**
 * The PR-8 wedged-worker class, pinned as a checkable rule: forking a
 * worker while the forking thread holds any icicle lock outside the
 * dispatch pair hands the child a mutex nobody will ever unlock.
 * WorkerPool::spawn() consults the lock-order runtime's held-lock
 * stack; holding an unrelated lock across pool construction must
 * record a SYNC-003 violation, and ordinary pool use must not.
 */
TEST(ServePool, ForkWhileHoldingForeignLockIsViolation)
{
    lockorder::setLockOrderEnabled(true);
    lockorder::resetLockOrder();
    const u64 before = lockorder::forkViolations();
    {
        // Normal construction + a round of jobs: fork-safe.
        WorkerPool pool(1);
        JobRequest request;
        request.point.core = "rocket";
        request.point.workload = "vvadd";
        request.point.counterArch = CounterArch::AddWires;
        request.point.maxCycles = 50'000;
        JobReply reply;
        std::string error;
        ASSERT_TRUE(pool.runJob(0, request, reply, error)) << error;
        EXPECT_TRUE(reply.ok);
    }
    EXPECT_EQ(lockorder::forkViolations(), before);

    {
        Mutex unrelated("test.serve.fork.unrelated",
                        lockrank::kTestBase);
        LockGuard held(unrelated);
        WorkerPool pool(1);
    }
    EXPECT_EQ(lockorder::forkViolations(), before + 1);
    const lockorder::LockOrderReport report =
        lockorder::lockOrderReport();
    bool recorded = false;
    for (const auto &violation : report.violations) {
        recorded |= violation.kind == "fork-held-lock" &&
                    violation.message.find(
                        "test.serve.fork.unrelated") !=
                        std::string::npos;
    }
    EXPECT_TRUE(recorded);
    lockorder::resetLockOrder();
}

} // namespace
} // namespace icicle
