/**
 * @file
 * Trace capture & replay fidelity suite. A recorded .mlgstrace must re-drive
 * the simulator to the exact live-run result with no frontend code in the
 * loop: bitwise-equal TimingTotals, per-bank DRAM row hits/misses,
 * AerialVision sample buckets, and final tensor bytes (the replayer verifies
 * every recorded D2H payload against replayed device memory). Also covers
 * the format's failure modes: truncated files, wrong magic, version
 * mismatch, and unknown opcodes must fail with a clear error.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>

#include "bench/trace_workloads.h"
#include "common/log.h"
#include "nccl/nccl_lite.h"
#include "sim_test_util.h"

using namespace mlgs;
using namespace mlgs::bench;

namespace
{

void
expectBucketsEq(const std::vector<stats::AerialBucket> &a,
                const std::vector<stats::AerialBucket> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].start_cycle, b[i].start_cycle) << "bucket " << i;
        EXPECT_EQ(a[i].cycles, b[i].cycles) << "bucket " << i;
        EXPECT_EQ(a[i].instructions, b[i].instructions) << "bucket " << i;
        EXPECT_EQ(a[i].core_instructions, b[i].core_instructions);
        EXPECT_EQ(a[i].core_thread_instructions,
                  b[i].core_thread_instructions);
        EXPECT_EQ(a[i].lane_histogram, b[i].lane_histogram);
        EXPECT_EQ(a[i].stalls, b[i].stalls);
        EXPECT_EQ(a[i].bank_busy, b[i].bank_busy);
        EXPECT_EQ(a[i].bank_pending, b[i].bank_pending);
    }
}

/** Everything observable about one run (live-with-recorder or replayed). */
struct RunSnapshot
{
    timing::TimingTotals totals;
    cycle_t elapsed_cycles = 0;
    std::vector<uint64_t> bank_hits, bank_misses;
    std::vector<stats::AerialBucket> buckets;
};

void
expectSnapshotsEq(const RunSnapshot &live, const RunSnapshot &rep)
{
    test::expectTotalsEq(live.totals, rep.totals);
    EXPECT_EQ(live.elapsed_cycles, rep.elapsed_cycles);
    EXPECT_EQ(live.bank_hits, rep.bank_hits);
    EXPECT_EQ(live.bank_misses, rep.bank_misses);
    expectBucketsEq(live.buckets, rep.buckets);
}

RunSnapshot
snapshot(cuda::Context &ctx, stats::AerialSampler &sampler)
{
    sampler.finish();
    RunSnapshot s;
    s.totals = ctx.gpuModel().totals();
    s.elapsed_cycles = ctx.elapsedCycles();
    s.bank_hits = ctx.gpuModel().perBankRowHits();
    s.bank_misses = ctx.gpuModel().perBankRowMisses();
    s.buckets = sampler.buckets();
    return s;
}

/** Record `frontend` live (sampler attached) and return run + trace. */
template <typename Frontend>
RunSnapshot
recordLive(const cuda::ContextOptions &opts, trace::TraceFile &trace_out,
           Frontend &&frontend,
           std::shared_ptr<const func::WarpStreamCache> *streams_out = nullptr)
{
    cuda::Context ctx(opts);
    stats::AerialSampler sampler(256, opts.gpu.num_cores,
                                 opts.gpu.totalDramBanks());
    ctx.attachSampler(&sampler);
    trace::TraceRecorder rec(ctx);
    if (streams_out)
        rec.captureWarpStreams();
    frontend(ctx);
    rec.detach();
    trace_out = rec.finalize();
    if (streams_out)
        *streams_out = rec.warpStreams();
    return snapshot(ctx, sampler);
}

/** Replay a trace with a sampler attached and snapshot the result. */
RunSnapshot
replaySnapshot(const trace::TraceFile &trace, trace::ReplayResult *res_out,
               const func::WarpStreamCache *streams = nullptr)
{
    const trace::TraceReplayer rep(trace);
    const auto opts = rep.options();
    cuda::Context ctx(opts);
    stats::AerialSampler sampler(256, opts.gpu.num_cores,
                                 opts.gpu.totalDramBanks());
    ctx.attachSampler(&sampler);
    const auto res =
        streams ? rep.replayTimingOnly(ctx, *streams) : rep.replay(ctx);
    if (res_out)
        *res_out = res;
    return snapshot(ctx, sampler);
}

// ---- fidelity: replay == live, bitwise ----

TEST(TraceFidelity, ConvSweepReplaysBitwise)
{
    // Covers the fig11/fig12 forward-GEMM workload plus an FFT algorithm
    // (symbol uploads, host transforms) and Winograd nonfused.
    const cudnn::ConvFwdAlgo algos[] = {cudnn::ConvFwdAlgo::Gemm,
                                        cudnn::ConvFwdAlgo::Fft,
                                        cudnn::ConvFwdAlgo::WinogradNonfused};
    for (const auto algo : algos) {
        ConvTraceSpec spec;
        spec.algo = int(algo);
        trace::TraceFile trace;
        std::vector<float> live_out;
        const RunSnapshot live =
            recordLive(convTraceOptions(spec), trace, [&](cuda::Context &c) {
                live_out = runConvFrontend(c, spec);
            });

        trace::ReplayResult res;
        const RunSnapshot rep = replaySnapshot(trace, &res);
        expectSnapshotsEq(live, rep);

        // Final tensor bytes: the replayer verified every recorded D2H
        // payload (which includes the full output tensor) byte for byte.
        EXPECT_GE(res.verified_bytes, live_out.size() * sizeof(float))
            << "algo " << int(algo);
        EXPECT_GT(res.launches, 0u);
        EXPECT_GT(res.modules_elided, 0u) << "unused modules should elide";
    }
}

TEST(TraceFidelity, LenetTrainStepReplaysBitwise)
{
    trace::TraceFile trace;
    torchlet::LeNetWeights w;
    const RunSnapshot live =
        recordLive(lenetTraceOptions(), trace, [&](cuda::Context &c) {
            runLenetTrainStepFrontend(c, &w);
        });

    trace::ReplayResult res;
    const RunSnapshot rep = replaySnapshot(trace, &res);
    expectSnapshotsEq(live, rep);

    // The post-step weight readback is part of the trace, so replay verified
    // the trained parameter tensors byte for byte.
    const size_t weight_bytes =
        (w.conv1_w.size() + w.conv1_b.size() + w.conv2_w.size() +
         w.conv2_b.size() + w.fc1_w.size() + w.fc1_b.size() + w.fc2_w.size() +
         w.fc2_b.size()) *
        sizeof(float);
    EXPECT_GE(res.verified_bytes, weight_bytes);
}

TEST(TraceFidelity, ReplayIsIdempotent)
{
    ConvTraceSpec spec; // fig11/fig12 default
    trace::TraceFile trace;
    recordLive(convTraceOptions(spec), trace,
               [&](cuda::Context &c) { runConvFrontend(c, spec); });
    const RunSnapshot first = replaySnapshot(trace, nullptr);
    const RunSnapshot second = replaySnapshot(trace, nullptr);
    expectSnapshotsEq(first, second);
}

TEST(TraceFidelity, TimingOnlyReplayMatchesFullReplay)
{
    // Trace-driven timing replay: warp streams captured at record time
    // re-drive the timing model with no functional interpretation, yet all
    // statistics — totals, per-bank DRAM counters, AerialVision buckets —
    // stay bitwise identical to the live run and the full replay.
    ConvTraceSpec spec;
    trace::TraceFile trace;
    std::shared_ptr<const func::WarpStreamCache> streams;
    const RunSnapshot live = recordLive(
        convTraceOptions(spec), trace,
        [&](cuda::Context &c) { runConvFrontend(c, spec); }, &streams);
    ASSERT_TRUE(streams);
    EXPECT_GT(streams->totalSteps(), 0u);

    trace::ReplayResult res;
    const RunSnapshot timing_only =
        replaySnapshot(trace, &res, streams.get());
    expectSnapshotsEq(live, timing_only);
    // D2H payloads are not re-verified in timing-only mode.
    EXPECT_EQ(res.verified_bytes, 0u);

    // Streams captured from a full replay (no recorder involved) work too.
    const trace::TraceReplayer rep(trace);
    func::WarpStreamCache cap;
    {
        cuda::Context ctx(rep.options());
        rep.replayCapturing(ctx, cap);
    }
    const RunSnapshot from_replay_capture =
        replaySnapshot(trace, nullptr, &cap);
    expectSnapshotsEq(live, from_replay_capture);
}

// ---- format: disk round trip ----

TEST(TraceFormat, DiskRoundTripReplaysIdentically)
{
    ConvTraceSpec spec;
    trace::TraceFile trace;
    recordLive(convTraceOptions(spec), trace,
               [&](cuda::Context &c) { runConvFrontend(c, spec); });

    mlgs::test::ScopedTmpDir tmp;
    const std::string path = tmp.file("roundtrip.mlgstrace");
    trace.save(path);
    const auto loaded = trace::TraceFile::load(path);

    EXPECT_EQ(loaded.ops.size(), trace.ops.size());
    EXPECT_EQ(loaded.modules.size(), trace.modules.size());
    EXPECT_EQ(loaded.strings.size(), trace.strings.size());
    EXPECT_EQ(loaded.blobs.size(), trace.blobs.size());
    EXPECT_EQ(loaded.blobs.storedBytes(), trace.blobs.storedBytes());

    const RunSnapshot a = replaySnapshot(trace, nullptr);
    const RunSnapshot b = replaySnapshot(loaded, nullptr);
    expectSnapshotsEq(a, b);
}

// ---- format: failure modes ----

/** A tiny but structurally complete trace (no kernels). */
trace::TraceFile
tinyTrace()
{
    cuda::Context ctx;
    trace::TraceRecorder rec(ctx);
    const addr_t p = ctx.malloc(64);
    const float v = 1.5f;
    ctx.memcpyH2D(p, &v, sizeof v);
    ctx.deviceSynchronize();
    rec.detach();
    return rec.finalize();
}

std::vector<uint8_t>
serialize(const trace::TraceFile &t)
{
    BinaryWriter w;
    t.write(w);
    return w.bytes();
}

std::string
readError(const std::vector<uint8_t> &bytes)
{
    BinaryReader r(bytes, "test-bytes");
    try {
        trace::TraceFile::read(r);
    } catch (const FatalError &e) {
        return e.what();
    }
    return {};
}

TEST(TraceFormat, TruncatedFileFailsCleanly)
{
    const auto bytes = serialize(tinyTrace());
    for (const double frac : {0.1, 0.5, 0.98}) {
        std::vector<uint8_t> cut(bytes.begin(),
                                 bytes.begin() +
                                     size_t(double(bytes.size()) * frac));
        const auto err = readError(cut);
        EXPECT_FALSE(err.empty()) << "fraction " << frac;
        EXPECT_NE(err.find("test-bytes"), std::string::npos)
            << "error should name the stream: " << err;
    }
}

TEST(TraceFormat, BadMagicFailsCleanly)
{
    auto bytes = serialize(tinyTrace());
    bytes[0] ^= 0xff;
    const auto err = readError(bytes);
    EXPECT_NE(err.find("not a trace file"), std::string::npos) << err;
}

TEST(TraceFormat, VersionMismatchFailsCleanly)
{
    BinaryWriter w;
    w.putHeader(trace::kTraceMagic, trace::kTraceVersion + 7);
    const auto err = readError(w.bytes());
    EXPECT_NE(err.find("unsupported trace version"), std::string::npos) << err;
    EXPECT_NE(err.find("this build reads"), std::string::npos) << err;
}

TEST(TraceFormat, UnknownOpcodeFailsCleanly)
{
    auto t = tinyTrace();
    trace::TraceOp bad;
    bad.code = trace::OpCode(0x63);
    t.ops.push_back(bad);
    const auto err = readError(serialize(t));
    EXPECT_NE(err.find("unknown trace opcode"), std::string::npos) << err;
    EXPECT_NE(err.find("newer build"), std::string::npos) << err;
}

TEST(TraceFormat, EmptyFileFailsCleanly)
{
    const auto err = readError({});
    EXPECT_NE(err.find("not a trace file"), std::string::npos) << err;
}

// ---- canonical content hash (format v2) ----

TEST(TraceContentHash, IndependentOfOptions)
{
    // The hash covers the workload, not the machine configuration: the same
    // trace swept across GPU configs must keep one workload hash (it is the
    // workload half of the serve cache key).
    auto t = tinyTrace();
    const uint64_t h = t.contentHash();
    t.options.memcpy_bytes_per_cycle *= 2.0;
    t.options.gpu.num_cores += 1;
    EXPECT_EQ(t.contentHash(), h);
}

TEST(TraceContentHash, SensitiveToWorkloadBytes)
{
    const auto a = tinyTrace();
    // Same op structure, different H2D payload byte: the hash must differ.
    cuda::Context ctx;
    trace::TraceRecorder rec(ctx);
    const addr_t p = ctx.malloc(64);
    const float v = 2.5f;
    ctx.memcpyH2D(p, &v, sizeof v);
    ctx.deviceSynchronize();
    rec.detach();
    const auto b = rec.finalize();
    EXPECT_NE(a.contentHash(), b.contentHash());
}

TEST(TraceContentHash, RoundTripPreservesAndVerifies)
{
    const auto t = tinyTrace();
    BinaryReader r(serialize(t), "test-bytes");
    const auto loaded = trace::TraceFile::read(r); // verifies stored hash
    EXPECT_EQ(loaded.contentHash(), t.contentHash());
}

TEST(TraceContentHash, TamperedBlobFailsVerification)
{
    // Flip one byte inside the recorded H2D payload blob (the float 1.5f):
    // the container still parses, but the recomputed content hash no longer
    // matches the stored one.
    auto bytes = serialize(tinyTrace());
    const uint8_t pattern[4] = {0x00, 0x00, 0xc0, 0x3f}; // 1.5f
    const auto it = std::search(bytes.begin(), bytes.end(), pattern,
                                pattern + sizeof pattern);
    ASSERT_NE(it, bytes.end());
    *(it + 2) ^= 0x01;
    const auto err = readError(bytes);
    EXPECT_NE(err.find("content hash"), std::string::npos) << err;
}

// ---- replay guards ----

TEST(TraceReplay, DivergentAllocationFailsLoudly)
{
    auto t = tinyTrace();
    // Corrupt the recorded malloc result: replay must detect the address
    // divergence instead of silently replaying with a stale pointer.
    bool patched = false;
    for (auto &op : t.ops) {
        if (op.code == trace::OpCode::Malloc) {
            op.c ^= 0x1000;
            patched = true;
        }
    }
    ASSERT_TRUE(patched);
    const trace::TraceReplayer rep(t);
    cuda::Context ctx(rep.options());
    EXPECT_THROW(rep.replay(ctx), FatalError);
}

TEST(TraceReplay, OutOfRangeGpuConfigFailsFast)
{
    // A byte-flip sweep over an --algo 1 conv trace's options found these
    // three configs replaying for 15 s, 31 s and past 60 s. The content hash
    // does not cover the options, so the trace loads; its Context must then
    // refuse the config within a second, naming the field.
    ConvTraceSpec spec;
    spec.algo = 1;
    trace::TraceFile trace;
    {
        cuda::Context ctx(convTraceOptions(spec));
        trace::TraceRecorder rec(ctx);
        runConvFrontend(ctx, spec);
        rec.detach();
        trace = rec.finalize();
    }
    const struct
    {
        const char *field;
        void (*corrupt)(timing::GpuConfig &);
    } cases[] = {
        {"max_warps_per_core",
         [](timing::GpuConfig &g) { g.max_warps_per_core = 65344; }},
        {"l2.mshr_entries",
         [](timing::GpuConfig &g) { g.l2.mshr_entries = 65344; }},
        {"dram_cas", [](timing::GpuConfig &g) { g.dram_cas = 8388626; }},
    };
    for (const auto &c : cases) {
        trace::TraceFile bad = trace;
        c.corrupt(bad.options.gpu);
        const auto bytes = serialize(bad);

        const auto t0 = std::chrono::steady_clock::now();
        std::string err;
        try {
            BinaryReader r(bytes, "corrupt-config");
            const trace::TraceReplayer rep(trace::TraceFile::read(r));
            cuda::Context ctx(rep.options());
            rep.replay(ctx);
        } catch (const FatalError &e) {
            err = e.what();
        }
        const double secs = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        EXPECT_NE(err.find(c.field), std::string::npos)
            << c.field << ": " << err;
        EXPECT_LT(secs, 1.0) << c.field;
    }
}

// ---- multi-GPU: per-device traces (format v3 peer ops) ----

/** Per-device stats, no sampler (multi-GPU contexts run without one here). */
RunSnapshot
deviceSnapshot(cuda::Context &ctx, int device)
{
    RunSnapshot s;
    s.totals = ctx.gpuModel(device).totals();
    s.elapsed_cycles = ctx.elapsedCycles(device);
    s.bank_hits = ctx.gpuModel(device).perBankRowHits();
    s.bank_misses = ctx.gpuModel(device).perBankRowMisses();
    return s;
}

/**
 * Record a 2-GPU ring all-reduce (peer copies + reduction kernels) with
 * TraceRecorder and return one standalone trace per device plus the live
 * per-device stats.
 */
std::vector<trace::TraceFile>
recordTwoGpuAllReduce(std::vector<RunSnapshot> *live_out)
{
    constexpr size_t kCount = 257;
    cuda::ContextOptions opts;
    opts.mode = cuda::SimMode::Performance;
    opts.gpu = timing::GpuConfig::gtx1050();
    opts.device_count = 2;

    cuda::Context ctx(opts);
    trace::TraceRecorder rec(ctx);
    nccl::Communicator comm(ctx);

    std::vector<addr_t> bufs;
    for (int r = 0; r < 2; r++) {
        ctx.setDevice(r);
        const addr_t buf = ctx.malloc(kCount * sizeof(float));
        std::vector<float> vals(kCount);
        for (size_t i = 0; i < kCount; i++)
            vals[i] = float(r + 1) * 0.25f + float(i) * 0.5f;
        ctx.memcpyH2D(buf, vals.data(), kCount * sizeof(float));
        bufs.push_back(buf);
    }
    comm.allReduceSum(bufs, kCount, nccl::AllReduceAlgo::Ring);
    // The readback is part of each device's trace, so replay verifies the
    // reduced tensor bytes.
    for (int r = 0; r < 2; r++) {
        ctx.setDevice(r);
        std::vector<float> out(kCount);
        ctx.memcpyD2H(out.data(), bufs[size_t(r)], kCount * sizeof(float));
        ctx.deviceSynchronize();
    }
    rec.detach();

    std::vector<trace::TraceFile> traces;
    for (int r = 0; r < 2; r++)
        traces.push_back(rec.finalize(r));
    if (live_out) {
        live_out->clear();
        for (int r = 0; r < 2; r++)
            live_out->push_back(deviceSnapshot(ctx, r));
    }
    return traces;
}

TEST(TraceMultiGpu, TwoGpuAllReduceReplaysPerDeviceBitwise)
{
    std::vector<RunSnapshot> live;
    const auto traces = recordTwoGpuAllReduce(&live);

    for (int r = 0; r < 2; r++) {
        const auto &t = traces[size_t(r)];
        EXPECT_EQ(t.options.device_id, uint32_t(r));
        EXPECT_EQ(t.options.device_count, 2u);

        // Each device's trace carries its half of every peer exchange, with
        // resolved completion cycles and (for receives) the payload bytes.
        size_t sends = 0, recvs = 0;
        for (const auto &op : t.ops) {
            if (op.code == trace::OpCode::PeerSend) {
                sends++;
                EXPECT_EQ(op.id, uint32_t(1 - r));
                EXPECT_GT(op.c, 0u) << "completion cycle not back-patched";
            } else if (op.code == trace::OpCode::PeerRecv) {
                recvs++;
                EXPECT_EQ(op.id, uint32_t(1 - r));
                EXPECT_GT(op.c, 0u);
                ASSERT_NE(op.blob, trace::kNoBlob);
                EXPECT_EQ(t.blobs.blob(op.blob).size(), op.b);
            }
        }
        // 2-rank ring: reduce-scatter + all-gather, one send and one recv
        // per step per rank over 2 chunks.
        EXPECT_EQ(sends, 2u) << "device " << r;
        EXPECT_EQ(recvs, 2u) << "device " << r;

        // Standalone replay on a fresh single-device context: timing totals,
        // elapsed cycles and per-bank DRAM stats must match the live device
        // bitwise, and the recorded D2H payloads must verify.
        const trace::TraceReplayer rep(t);
        cuda::Context replay_ctx(rep.options());
        trace::ReplayResult res;
        res = rep.replay(replay_ctx);
        EXPECT_GE(res.verified_bytes, 257 * sizeof(float));
        EXPECT_GT(res.launches, 0u);
        expectSnapshotsEq(live[size_t(r)], deviceSnapshot(replay_ctx, 0));
    }
}

TEST(TraceMultiGpu, DiskRoundTripPreservesPeerOps)
{
    const auto traces = recordTwoGpuAllReduce(nullptr);
    mlgs::test::ScopedTmpDir tmp;
    const std::string path = tmp.file("dev0.mlgstrace");
    traces[0].save(path);
    const auto loaded = trace::TraceFile::load(path);
    EXPECT_EQ(loaded.contentHash(), traces[0].contentHash());
    EXPECT_EQ(loaded.options.device_id, 0u);
    EXPECT_EQ(loaded.options.device_count, 2u);
    EXPECT_EQ(loaded.ops.size(), traces[0].ops.size());
}

TEST(TraceMultiGpu, ForeignPeerDeviceFailsCleanly)
{
    auto traces = recordTwoGpuAllReduce(nullptr);
    auto &t = traces[0];
    bool patched = false;
    for (auto &op : t.ops) {
        if (op.code == trace::OpCode::PeerSend && !patched) {
            op.id = 5; // beyond the recorded device count
            patched = true;
        }
    }
    ASSERT_TRUE(patched);
    const auto err = readError(serialize(t));
    EXPECT_NE(err.find("peer device"), std::string::npos) << err;
}

TEST(TraceMultiGpu, SelfPeerDeviceFailsCleanly)
{
    auto traces = recordTwoGpuAllReduce(nullptr);
    auto &t = traces[1];
    bool patched = false;
    for (auto &op : t.ops) {
        if (op.code == trace::OpCode::PeerRecv && !patched) {
            op.id = t.options.device_id; // a device cannot peer with itself
            patched = true;
        }
    }
    ASSERT_TRUE(patched);
    const auto err = readError(serialize(t));
    EXPECT_NE(err.find("peer device"), std::string::npos) << err;
}

TEST(TraceMultiGpu, TruncatedPerDeviceTraceFailsCleanly)
{
    const auto traces = recordTwoGpuAllReduce(nullptr);
    const auto bytes = serialize(traces[0]);
    for (const double frac : {0.3, 0.9, 0.99}) {
        std::vector<uint8_t> cut(bytes.begin(),
                                 bytes.begin() +
                                     size_t(double(bytes.size()) * frac));
        const auto err = readError(cut);
        EXPECT_FALSE(err.empty()) << "fraction " << frac;
    }
}

// ---- recorder rejection paths on a 2-device context ----

cuda::ContextOptions
twoDeviceOptions()
{
    cuda::ContextOptions opts;
    opts.mode = cuda::SimMode::Performance;
    opts.gpu = timing::GpuConfig::gtx1050();
    opts.device_count = 2;
    return opts;
}

TEST(TraceMultiGpu, EventRecordedOnForeignDeviceFails)
{
    cuda::Context ctx(twoDeviceOptions());
    trace::TraceRecorder rec(ctx);
    ctx.setDevice(0);
    cuda::Event *e = ctx.createEvent();
    ctx.setDevice(1);
    EXPECT_THROW(ctx.recordEvent(e), FatalError);
}

TEST(TraceMultiGpu, EventWaitedOnFromForeignDeviceFails)
{
    cuda::Context ctx(twoDeviceOptions());
    trace::TraceRecorder rec(ctx);
    ctx.setDevice(0);
    cuda::Event *e = ctx.createEvent();
    ctx.recordEvent(e);
    ctx.setDevice(1);
    EXPECT_THROW(ctx.streamWaitEvent(nullptr, e), FatalError);
}

TEST(TraceMultiGpu, FinalizeWithPendingPeerOpFails)
{
    cuda::Context ctx(twoDeviceOptions());
    trace::TraceRecorder rec(ctx);
    ctx.setDevice(0);
    ctx.enablePeerAccess(1);
    const addr_t src = ctx.malloc(64);
    // Hold the send back behind a not-yet-recorded event, so neither half
    // of the copy can execute at enqueue.
    cuda::Stream *held = ctx.createStream();
    cuda::Stream *releaser = ctx.createStream();
    cuda::Event *gate = ctx.createEvent();
    ctx.streamWaitEvent(held, gate);
    ctx.setDevice(1);
    const addr_t dst = ctx.malloc(64);
    ctx.memcpyPeer(dst, 1, src, 0, 64, nullptr, held);
    EXPECT_THROW(rec.finalize(0), FatalError);
    EXPECT_THROW(rec.finalize(1), FatalError);

    // Once both halves have executed, the same recording finalizes.
    ctx.setDevice(0);
    ctx.recordEvent(gate, releaser);
    for (int d = 0; d < 2; d++) {
        ctx.setDevice(d);
        ctx.deviceSynchronize();
    }
    EXPECT_NO_THROW(rec.finalize(0));
    EXPECT_NO_THROW(rec.finalize(1));
}

TEST(TraceMultiGpu, SecondApiObserverIsRejected)
{
    cuda::Context ctx(twoDeviceOptions());
    trace::TraceRecorder rec(ctx);
    EXPECT_THROW(trace::TraceRecorder second(ctx), FatalError);
    EXPECT_EQ(ctx.apiObserver(), &rec);
}

TEST(TraceMultiGpu, FinalizeOfUnknownDeviceFails)
{
    cuda::Context ctx(twoDeviceOptions());
    trace::TraceRecorder rec(ctx);
    rec.detach();
    EXPECT_THROW(rec.finalize(2), FatalError);
    EXPECT_THROW(rec.finalize(-1), FatalError);
}

TEST(TraceMultiGpu, WarpStreamCaptureRejectsMultiGpuContext)
{
    cuda::Context ctx(twoDeviceOptions());
    trace::TraceRecorder rec(ctx);
    EXPECT_THROW(rec.captureWarpStreams(), FatalError);
    EXPECT_FALSE(rec.warpStreams());
}

TEST(TraceReplay, CorruptedPayloadFailsVerification)
{
    // Record a run whose D2H readback is part of the trace, then corrupt
    // the H2D payload: the replayed D2H bytes no longer match the recorded
    // expectation and replay must fail.
    cuda::Context ctx;
    trace::TraceRecorder rec(ctx);
    const addr_t p = ctx.malloc(16);
    float vals[4] = {1, 2, 3, 4};
    ctx.memcpyH2D(p, vals, sizeof vals);
    float back[4] = {};
    ctx.memcpyD2H(back, p, sizeof back);
    rec.detach();
    auto t = rec.finalize();

    bool patched = false;
    for (auto &op : t.ops) {
        if (op.code == trace::OpCode::MemcpyD2H && !patched) {
            // Point the expectation at a different (wrong) blob: the zero
            // H2D payload of another buffer would do, but simplest is to
            // flip the source address so different bytes come back.
            op.a += 4;
            patched = true;
        }
    }
    ASSERT_TRUE(patched);
    const trace::TraceReplayer rep(t);
    cuda::Context ctx2(rep.options());
    EXPECT_THROW(rep.replay(ctx2), FatalError);
}

} // namespace
