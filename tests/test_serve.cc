/**
 * @file
 * mlgs-serve daemon suite (ctest label `serve`): the service properties the
 * design rests on, exercised with an in-process Server on a scratch AF_UNIX
 * socket and real Client connections.
 *
 *   - determinism-as-cacheability: a warm answer is byte-identical to the
 *     cold run AND to a direct in-process simulation of the same trace
 *   - single-flight: concurrent identical submissions simulate once
 *   - admission control: a full queue sheds with a retryable status, not an
 *     error or unbounded queueing
 *   - robustness: malformed frames, garbage payloads, and corrupt traces
 *     answer protocol errors without taking the daemon down
 *   - graceful drain: stop mid-job completes the job and answers its client
 *   - result cache: LRU byte budget and on-disk persistence across restarts
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

#include "runtime/context.h"
#include "sample/options.h"
#include "serve/client.h"
#include "serve/server.h"
#include "sim_test_util.h"
#include "trace/recorder.h"
#include "trace/replayer.h"

using namespace mlgs;

namespace
{

const char *kVecAdd = R"(
.visible .entry vecadd(
    .param .u64 A, .param .u64 B, .param .u64 C, .param .u32 n)
{
    .reg .u64 %rd<8>;
    .reg .u32 %r<8>;
    .reg .f32 %f<4>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [A];
    ld.param.u64 %rd2, [B];
    ld.param.u64 %rd3, [C];
    ld.param.u32 %r1, [n];
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mov.u32 %r4, %tid.x;
    mad.lo.u32 %r5, %r2, %r3, %r4;
    setp.ge.u32 %p1, %r5, %r1;
    @%p1 bra DONE;
    mul.wide.u32 %rd4, %r5, 4;
    add.u64 %rd5, %rd1, %rd4;
    add.u64 %rd6, %rd2, %rd4;
    add.u64 %rd7, %rd3, %rd4;
    ld.global.f32 %f1, [%rd5];
    ld.global.f32 %f2, [%rd6];
    add.f32 %f3, %f1, %f2;
    st.global.f32 [%rd7], %f3;
DONE:
    ret;
}
)";

struct Recorded
{
    std::vector<uint8_t> bytes;
    std::string direct_json; ///< stats JSON of the recording (live) context
};

/**
 * Record a small vecadd workload: `launches` back-to-back launches of `ctas`
 * CTAs over seed-dependent data, ending with a D2H readback so replay
 * verifies the result bytes. Different (ctas, launches, seed) triples give
 * traces with different content hashes.
 */
Recorded
recordVecadd(unsigned ctas = 2, unsigned launches = 1, unsigned seed = 0)
{
    constexpr unsigned kBlock = 64;
    const unsigned total = ctas * kBlock;

    cuda::ContextOptions opts;
    opts.mode = cuda::SimMode::Performance;
    opts.timing_mode = sample::TimingMode::Detailed;
    cuda::Context ctx(opts);
    trace::TraceRecorder rec(ctx);
    ctx.loadModule(kVecAdd, "vecadd.ptx");

    std::vector<float> a(total), b(total);
    for (unsigned i = 0; i < total; i++) {
        a[i] = float((i + seed) % 251);
        b[i] = 2.0f * float(i % 127);
    }
    const addr_t da = ctx.malloc(total * 4);
    const addr_t db = ctx.malloc(total * 4);
    const addr_t dc = ctx.malloc(total * 4);
    ctx.memcpyH2D(da, a.data(), total * 4);
    ctx.memcpyH2D(db, b.data(), total * 4);
    ctx.memsetD(dc, 0, total * 4);
    for (unsigned l = 0; l < launches; l++) {
        cuda::KernelArgs args;
        args.ptr(da).ptr(db).ptr(dc).u32(total);
        ctx.launch("vecadd", Dim3(ctas), Dim3(kBlock), args);
    }
    ctx.deviceSynchronize();
    std::vector<float> c(total);
    ctx.memcpyD2H(c.data(), dc, total * 4);
    rec.detach();

    Recorded out;
    out.direct_json = trace::statsJson(ctx);
    BinaryWriter w;
    rec.finalize().write(w);
    out.bytes = w.bytes();
    return out;
}

/** A Server on a scratch socket, started on construction. */
struct TestServer
{
    mlgs::test::ScopedTmpDir tmp;
    serve::Server server;

    explicit TestServer(serve::ServerOptions opts = {})
        : server(withSocket(opts, tmp))
    {
        server.start();
    }

    static serve::ServerOptions
    withSocket(serve::ServerOptions opts, const mlgs::test::ScopedTmpDir &tmp)
    {
        if (opts.socket_path.empty())
            opts.socket_path = tmp.file("serve.sock");
        return opts;
    }

    const std::string &socket() const { return server.options().socket_path; }

    void
    stop()
    {
        server.requestStop();
        server.join();
    }
};

// ---- determinism as cacheability ----

TEST(Serve, ColdThenWarmIsByteIdenticalToDirect)
{
    const Recorded rec = recordVecadd();
    TestServer ts;
    serve::Client client(ts.socket());

    const auto cold = client.submit(rec.bytes);
    ASSERT_EQ(cold.status, serve::Status::Ok) << cold.error;
    EXPECT_EQ(cold.cache_hit, 0);
    EXPECT_FALSE(cold.stats_json.empty());
    // The daemon's answer is byte-identical to simulating in-process.
    EXPECT_EQ(cold.stats_json, rec.direct_json);
    EXPECT_GT(cold.sim_ms, 0.0);
    EXPECT_NE(cold.trace_hash, 0u);

    const auto warm = client.submit(rec.bytes);
    ASSERT_EQ(warm.status, serve::Status::Ok) << warm.error;
    EXPECT_EQ(warm.cache_hit, 1);
    EXPECT_EQ(warm.stats_json, cold.stats_json);
    EXPECT_EQ(warm.trace_hash, cold.trace_hash);
    EXPECT_EQ(warm.config_hash, cold.config_hash);

    const auto info = client.info();
    EXPECT_EQ(info.jobs_completed, 1u);
    EXPECT_EQ(info.cache_hits, 1u);
    ts.stop();
}

TEST(Serve, DistinctConfigsGetDistinctCacheEntries)
{
    // Same workload, overridden GPU config: the trace hash stays put, the
    // config hash moves, and the daemon simulates again instead of serving
    // the other config's result.
    const Recorded rec = recordVecadd();
    TestServer ts;
    serve::Client client(ts.socket());

    const auto base = client.submit(rec.bytes);
    ASSERT_EQ(base.status, serve::Status::Ok) << base.error;

    BinaryReader r(rec.bytes, "trace");
    const auto trace = trace::TraceFile::read(r);
    serve::SubmitOptions opts;
    opts.has_options_override = true;
    opts.options_override = trace.options;
    opts.options_override.gpu.num_cores =
        std::max(1u, trace.options.gpu.num_cores / 2);

    const auto other = client.submit(rec.bytes, opts);
    ASSERT_EQ(other.status, serve::Status::Ok) << other.error;
    EXPECT_EQ(other.cache_hit, 0);
    EXPECT_EQ(other.trace_hash, base.trace_hash);
    EXPECT_NE(other.config_hash, base.config_hash);
    EXPECT_NE(other.stats_json, base.stats_json);
    ts.stop();
}

TEST(Serve, OutOfRangeConfigOverrideAnswersErrorAndKeepsServing)
{
    // A config the model does not support is refused when the job builds
    // its Context: the client gets an error naming the field, nothing is
    // cached, and the daemon goes on serving.
    const Recorded rec = recordVecadd();
    TestServer ts;
    serve::Client client(ts.socket());

    BinaryReader r(rec.bytes, "trace");
    const auto trace = trace::TraceFile::read(r);
    serve::SubmitOptions opts;
    opts.has_options_override = true;
    opts.options_override = trace.options;
    opts.options_override.gpu.max_warps_per_core = 65344;

    const auto bad = client.submit(rec.bytes, opts);
    EXPECT_EQ(bad.status, serve::Status::Error);
    EXPECT_NE(bad.error.find("max_warps_per_core"), std::string::npos)
        << bad.error;

    const auto good = client.submit(rec.bytes);
    ASSERT_EQ(good.status, serve::Status::Ok) << good.error;
    EXPECT_EQ(good.stats_json, rec.direct_json);

    const auto again = client.submit(rec.bytes, opts);
    EXPECT_EQ(again.status, serve::Status::Error);
    EXPECT_EQ(again.cache_hit, 0);

    const auto info = client.info();
    EXPECT_EQ(info.jobs_failed, 2u);
    EXPECT_EQ(info.jobs_completed, 1u);
    ts.stop();
}

TEST(Serve, SimThreadsDoesNotSplitTheCache)
{
    // Results are bitwise identical at any worker budget, so sim_threads is
    // not part of the key: a 1-thread submission warms a 4-thread one.
    const Recorded rec = recordVecadd();
    TestServer ts;
    serve::Client client(ts.socket());

    serve::SubmitOptions one;
    one.sim_threads = 1;
    const auto cold = client.submit(rec.bytes, one);
    ASSERT_EQ(cold.status, serve::Status::Ok) << cold.error;

    serve::SubmitOptions four;
    four.sim_threads = 4;
    const auto warm = client.submit(rec.bytes, four);
    ASSERT_EQ(warm.status, serve::Status::Ok) << warm.error;
    EXPECT_EQ(warm.cache_hit, 1);
    EXPECT_EQ(warm.stats_json, cold.stats_json);
    ts.stop();
}

// ---- single-flight dedup ----

TEST(Serve, ConcurrentIdenticalSubmissionsSimulateOnce)
{
    const Recorded rec = recordVecadd(2, 2);
    serve::ServerOptions opts;
    opts.workers = 4;
    opts.debug_job_delay_ms = 100; // hold the job so all clients overlap it
    TestServer ts(opts);

    constexpr unsigned kClients = 4;
    std::vector<serve::SubmitResponse> resps(kClients);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kClients; i++)
        threads.emplace_back([&, i] {
            serve::Client client(ts.socket());
            resps[i] = client.submit(rec.bytes);
        });
    for (auto &t : threads)
        t.join();

    for (const auto &resp : resps) {
        ASSERT_EQ(resp.status, serve::Status::Ok) << resp.error;
        EXPECT_EQ(resp.stats_json, rec.direct_json);
    }
    // However the arrivals interleaved, the trace simulated exactly once;
    // every other answer came from the in-flight join or the cache.
    serve::Client client(ts.socket());
    EXPECT_EQ(client.info().jobs_completed, 1u);
    ts.stop();
}

// ---- admission control ----

TEST(Serve, FullQueueShedsWithRetryableStatus)
{
    serve::ServerOptions opts;
    opts.workers = 1;
    opts.max_queue = 0; // one in-system job, everything else sheds
    opts.debug_job_delay_ms = 300;
    opts.retry_after_ms = 50;
    TestServer ts(opts);

    const Recorded first = recordVecadd(2, 1, 1);
    const Recorded second = recordVecadd(2, 1, 2);

    std::thread occupant([&] {
        serve::Client client(ts.socket());
        const auto resp = client.submit(first.bytes);
        EXPECT_EQ(resp.status, serve::Status::Ok) << resp.error;
    });
    // Wait until the first job occupies the single in-system slot.
    serve::Client client(ts.socket());
    while (true) {
        const auto info = client.info();
        if (info.jobs_running >= 1)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    const auto shed = client.submit(second.bytes);
    EXPECT_EQ(shed.status, serve::Status::RetryAfter);
    EXPECT_EQ(shed.retry_after_ms, 50u);
    EXPECT_TRUE(shed.stats_json.empty());

    // With backoff the shed job eventually runs and matches its baseline.
    const auto retried = client.submitWithRetry(second.bytes);
    ASSERT_EQ(retried.status, serve::Status::Ok) << retried.error;
    EXPECT_EQ(retried.stats_json, second.direct_json);
    EXPECT_GE(client.info().shed, 1u);

    occupant.join();
    ts.stop();
}

// ---- robustness: malformed input must not kill the daemon ----

/** Raw connected socket for speaking deliberately broken protocol. */
struct RawConn
{
    int fd = -1;

    explicit RawConn(const std::string &path)
    {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      path.c_str());
        MLGS_REQUIRE(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                               sizeof(addr)) == 0,
                     "test: cannot connect to ", path);
    }

    ~RawConn()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

TEST(Serve, MalformedFramesAnswerErrorsNotDeath)
{
    TestServer ts;

    // Oversized length prefix: the daemon must refuse the allocation and
    // drop the connection, nothing more.
    {
        RawConn conn(ts.socket());
        const uint64_t huge = ~uint64_t(0);
        ASSERT_EQ(::write(conn.fd, &huge, sizeof huge), ssize_t(sizeof huge));
        uint8_t byte;
        EXPECT_EQ(::read(conn.fd, &byte, 1), 0); // daemon closed, no crash
    }

    // Garbage payload (wrong magic): a framed ErrorResponse comes back.
    {
        RawConn conn(ts.socket());
        BinaryWriter junk;
        junk.putString("this is not a serve message");
        serve::writeFrame(conn.fd, junk);
        auto resp = serve::readFrame(conn.fd);
        ASSERT_TRUE(resp.has_value());
        BinaryReader r(std::move(*resp), "response");
        EXPECT_EQ(serve::readMsgType(r), serve::MsgType::ErrorResponse);
        EXPECT_NE(r.getString().find("not a serve message file"),
                  std::string::npos);
    }

    // Valid frame, corrupt trace bytes: a structured Error submission
    // response naming the problem.
    {
        serve::Client client(ts.socket());
        std::vector<uint8_t> bad(64, 0xab);
        const auto resp = client.submit(bad);
        EXPECT_EQ(resp.status, serve::Status::Error);
        EXPECT_NE(resp.error.find("not a trace file"), std::string::npos)
            << resp.error;
    }

    // A frame from a daemon/client of the previous protocol version (whose
    // Info body had another layout): refused with a framed ErrorResponse.
    {
        RawConn conn(ts.socket());
        BinaryWriter old;
        old.putHeader(serve::kServeMagic, 1);
        old.put<uint8_t>(uint8_t(serve::MsgType::InfoRequest));
        serve::writeFrame(conn.fd, old);
        auto resp = serve::readFrame(conn.fd);
        ASSERT_TRUE(resp.has_value());
        BinaryReader r(std::move(*resp), "response");
        EXPECT_EQ(serve::readMsgType(r), serve::MsgType::ErrorResponse);
        EXPECT_NE(r.getString().find("unsupported serve message version 1"),
                  std::string::npos);
    }

    const Recorded rec = recordVecadd();

    // Out-of-range timing modes — 3 (one past Sampled) and 255 — are
    // rejected before the job is keyed or queued.
    for (const uint8_t tm : {uint8_t(3), uint8_t(255)}) {
        serve::Client client(ts.socket());
        serve::SubmitOptions bad;
        bad.timing_mode = tm;
        const auto resp = client.submit(rec.bytes, bad);
        EXPECT_EQ(resp.status, serve::Status::Error) << int(tm);
        EXPECT_NE(resp.error.find("invalid timing mode"), std::string::npos)
            << resp.error;
    }

    // Truncated (tampered) trace: the content hash or bounds checks reject
    // it; the daemon answers and stays up.
    {
        std::vector<uint8_t> cut(rec.bytes.begin(),
                                 rec.bytes.begin() + rec.bytes.size() / 2);
        serve::Client client(ts.socket());
        const auto resp = client.submit(cut);
        EXPECT_EQ(resp.status, serve::Status::Error);
        EXPECT_FALSE(resp.error.empty());

        // The daemon survived all of the above and still serves real work.
        const auto good = client.submit(rec.bytes);
        ASSERT_EQ(good.status, serve::Status::Ok) << good.error;
        EXPECT_EQ(good.stats_json, rec.direct_json);
    }
    ts.stop();
}

// ---- graceful drain ----

TEST(Serve, StopDrainsInFlightJobsBeforeExiting)
{
    serve::ServerOptions opts;
    opts.workers = 1;
    opts.debug_job_delay_ms = 200;
    TestServer ts(opts);

    const Recorded rec = recordVecadd();
    serve::SubmitResponse inflight;
    std::thread submitter([&] {
        serve::Client client(ts.socket());
        inflight = client.submit(rec.bytes);
    });

    serve::Client client(ts.socket());
    while (client.info().jobs_running < 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));

    // Drain begins while the job is mid-flight...
    ts.server.requestStop();
    // ...new submissions are refused...
    const auto refused = client.submit(rec.bytes);
    EXPECT_EQ(refused.status, serve::Status::ShuttingDown);
    // ...but the admitted job completes and its client gets a real answer.
    ts.server.join();
    submitter.join();
    ASSERT_EQ(inflight.status, serve::Status::Ok) << inflight.error;
    EXPECT_EQ(inflight.stats_json, rec.direct_json);

    // The socket file is gone: the drain finished cleanly.
    EXPECT_FALSE(std::filesystem::exists(ts.socket()));
    EXPECT_THROW(serve::Client{ts.socket()}, FatalError);
}

TEST(Serve, WireShutdownRequestDrains)
{
    TestServer ts;
    const Recorded rec = recordVecadd();
    {
        serve::Client client(ts.socket());
        const auto resp = client.submit(rec.bytes);
        ASSERT_EQ(resp.status, serve::Status::Ok) << resp.error;
        client.requestShutdown();
    }
    ts.server.waitUntilStopRequested();
    ts.server.join();
    EXPECT_FALSE(std::filesystem::exists(ts.socket()));
}

// ---- byte-stable stats JSON across runs (sampled mode) ----

TEST(Serve, SampledModeStatsJsonIsByteStableAcrossRuns)
{
    // The "sampling" stats section carries doubles; its jsonDouble rendering
    // must make two identical runs byte-equal — that is what lets sampled
    // results live in the byte-addressed cache at all.
    const Recorded rec = recordVecadd(2, 4);
    const auto run = [&]() -> std::string {
        BinaryReader r(rec.bytes, "trace");
        const trace::TraceReplayer rep(trace::TraceFile::read(r));
        auto opts = rep.options();
        opts.timing_mode = sample::TimingMode::Sampled;
        cuda::Context ctx(opts);
        rep.replay(ctx);
        return trace::statsJson(ctx);
    };
    const std::string first = run();
    EXPECT_NE(first.find("\"sampling\""), std::string::npos);
    EXPECT_EQ(first, run());
}

// ---- result cache unit behaviour ----

TEST(Serve, ResultCacheEvictsLruUnderByteBudget)
{
    serve::ResultCache cache(600); // room for ~2 entries of ~100+160 bytes
    const auto key = [](uint64_t i) {
        serve::CacheKey k;
        k.trace_hash = i;
        k.config_hash = 77;
        k.build_stamp = 1;
        return k;
    };
    const std::string json(100, 'x');
    cache.put(key(1), json);
    cache.put(key(2), json);
    EXPECT_TRUE(cache.get(key(1)).has_value()); // 1 is now most-recent
    cache.put(key(3), json);                    // evicts 2, the LRU tail
    EXPECT_TRUE(cache.get(key(1)).has_value());
    EXPECT_FALSE(cache.get(key(2)).has_value());
    EXPECT_TRUE(cache.get(key(3)).has_value());
    const auto stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_LE(stats.bytes, 600u);
}

TEST(Serve, ResultCachePersistsAcrossInstances)
{
    mlgs::test::ScopedTmpDir tmp;
    serve::CacheKey key;
    key.trace_hash = 0x1234;
    key.config_hash = 0x5678;
    key.timing_mode = 1;
    key.build_stamp = serve::buildStamp();
    {
        serve::ResultCache cache(1 << 20, tmp.path());
        cache.put(key, "{\"cycles\": 42}");
    }
    serve::ResultCache reloaded(1 << 20, tmp.path());
    const auto hit = reloaded.get(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "{\"cycles\": 42}");

    // A corrupt persisted entry is skipped, not fatal.
    {
        BinaryWriter junk;
        junk.putString("garbage");
        junk.writeFile(tmp.file("deadbeefdeadbeef.mlgsres"));
    }
    serve::ResultCache tolerant(1 << 20, tmp.path());
    EXPECT_TRUE(tolerant.get(key).has_value());
}

} // namespace
