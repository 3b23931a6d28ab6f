/**
 * @file
 * Multi-GPU suite: device-table isolation, peer-to-peer copies over the link
 * fabric (byte fidelity + timing monotonicity under contention), nccl-lite
 * ring/chain all-reduce bitwise against their host mirrors, data-parallel
 * LeNet training bitwise against the single-GPU sharded reference, sim_threads
 * determinism across devices, and the negative paths of the device table.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"
#include "nccl/nccl_lite.h"
#include "runtime/context.h"
#include "sim_test_util.h"
#include "torchlet/data_parallel.h"
#include "torchlet/lenet.h"
#include "torchlet/mnist_synth.h"

using namespace mlgs;

namespace
{

cuda::ContextOptions
multiOpts(int devices, cuda::SimMode mode = cuda::SimMode::Functional)
{
    cuda::ContextOptions opts;
    opts.mode = mode;
    if (mode == cuda::SimMode::Performance)
        opts.gpu = timing::GpuConfig::gtx1050();
    opts.device_count = devices;
    return opts;
}

std::vector<float>
randomFloats(size_t count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> v(count);
    for (auto &x : v)
        x = float(rng.gauss());
    return v;
}

// ---- device table ----

TEST(MultiGpu, DeviceTableIsolation)
{
    cuda::Context ctx(multiOpts(3));
    ASSERT_EQ(ctx.deviceCount(), 3);

    // Independent allocators: the same first allocation lands at the same
    // address on every device, and the buffers are distinct memories.
    std::vector<addr_t> bufs;
    for (int d = 0; d < 3; d++) {
        ctx.setDevice(d);
        bufs.push_back(ctx.malloc(256));
    }
    EXPECT_EQ(bufs[0], bufs[1]);
    EXPECT_EQ(bufs[1], bufs[2]);

    for (int d = 0; d < 3; d++) {
        ctx.setDevice(d);
        std::vector<uint8_t> pat(256, uint8_t(0x10 + d));
        ctx.memcpyH2D(bufs[size_t(d)], pat.data(), pat.size());
    }
    for (int d = 0; d < 3; d++) {
        ctx.setDevice(d);
        std::vector<uint8_t> back(256, 0);
        ctx.memcpyD2H(back.data(), bufs[size_t(d)], back.size());
        for (const uint8_t b : back)
            ASSERT_EQ(b, uint8_t(0x10 + d)) << "device " << d;
    }

    // A kernel launched on device 1 must not touch device 0 / 2 memory.
    ctx.setDevice(1);
    const int mod = ctx.loadModule(nccl::kNcclPtx, "libnccl_lite.ptx");
    const auto *add = ctx.getFunction(mod, "nccl_add_f32");
    cuda::KernelArgs a;
    a.ptr(bufs[1]).ptr(bufs[1]).u32(64); // doubles 64 floats in place
    ctx.cuLaunchKernel(add, Dim3(1), Dim3(64), a);
    ctx.deviceSynchronize();
    for (const int d : {0, 2}) {
        ctx.setDevice(d);
        std::vector<uint8_t> back(256, 0);
        ctx.memcpyD2H(back.data(), bufs[size_t(d)], back.size());
        for (const uint8_t b : back)
            ASSERT_EQ(b, uint8_t(0x10 + d)) << "device " << d;
    }
    // Per-device module registries: device 0 never loaded anything.
    ctx.setDevice(0);
    EXPECT_EQ(ctx.moduleCount(), 0);
    ctx.setDevice(1);
    EXPECT_EQ(ctx.moduleCount(), 1);
}

TEST(MultiGpu, SetDeviceOutOfRangeFails)
{
    cuda::Context ctx(multiOpts(2));
    EXPECT_THROW(ctx.setDevice(-1), FatalError);
    EXPECT_THROW(ctx.setDevice(2), FatalError);
}

TEST(MultiGpu, LaunchOnDestroyedDeviceFails)
{
    cuda::Context ctx(multiOpts(2));
    ctx.setDevice(1);
    const addr_t buf = ctx.malloc(64);
    ctx.destroyDevice(1);
    // The table entry survives for stats inspection, but any API use fails.
    EXPECT_THROW(ctx.malloc(64), FatalError);
    EXPECT_THROW(ctx.memsetD(buf, 0, 64), FatalError);
    EXPECT_THROW(ctx.deviceSynchronize(), FatalError);
    // The surviving device is unaffected.
    ctx.setDevice(0);
    const addr_t ok = ctx.malloc(64);
    ctx.memsetD(ok, 7, 64);
    ctx.deviceSynchronize();
}

// ---- peer copies over the fabric ----

TEST(MultiGpu, PeerCopyByteFidelity)
{
    cuda::Context ctx(multiOpts(2));
    ctx.setDevice(0);
    ctx.enablePeerAccess(1);

    const size_t bytes = 4099; // deliberately not a round number
    const auto src_data = randomFloats((bytes + 3) / 4, 7);
    ctx.setDevice(0);
    const addr_t src = ctx.malloc(bytes);
    ctx.memcpyH2D(src, src_data.data(), bytes);
    ctx.setDevice(1);
    const addr_t dst = ctx.malloc(bytes);

    ctx.memcpyPeer(dst, 1, src, 0, bytes);
    ctx.setDevice(1);
    ctx.deviceSynchronize();

    std::vector<uint8_t> back(bytes);
    ctx.memcpyD2H(back.data(), dst, bytes);
    EXPECT_EQ(0, std::memcmp(back.data(), src_data.data(), bytes));

    const auto &stats = ctx.fabric().stats(0, 1);
    EXPECT_EQ(stats.transfers, 1u);
    EXPECT_EQ(stats.bytes, bytes);
}

TEST(MultiGpu, PeerCopyRequiresPeerAccess)
{
    cuda::Context ctx(multiOpts(2));
    ctx.setDevice(0);
    const addr_t src = ctx.malloc(64);
    ctx.setDevice(1);
    const addr_t dst = ctx.malloc(64);
    // 0 -> 1 was never enabled.
    EXPECT_THROW(ctx.memcpyPeer(dst, 1, src, 0, 64), FatalError);
    // Enabling the opposite direction is not enough.
    ctx.setDevice(1);
    ctx.enablePeerAccess(0);
    EXPECT_THROW(ctx.memcpyPeer(dst, 1, src, 0, 64), FatalError);
    ctx.setDevice(0);
    ctx.enablePeerAccess(1);
    ctx.memcpyPeer(dst, 1, src, 0, 64);
    ctx.setDevice(1);
    ctx.deviceSynchronize();
}

/** Completion time of `transfers` equal-size back-to-back peer copies. */
cycle_t
contendedElapsed(int transfers, size_t bytes)
{
    cuda::ContextOptions opts = multiOpts(2);
    opts.link.bytes_per_cycle = 8.0;
    opts.link.latency = 500;
    cuda::Context ctx(opts);
    ctx.setDevice(0);
    ctx.enablePeerAccess(1);
    const addr_t src = ctx.malloc(bytes);
    ctx.setDevice(1);
    const addr_t dst = ctx.malloc(bytes * size_t(transfers));
    // Distinct destination streams: the copies contend only on the link.
    std::vector<cuda::Stream *> streams;
    for (int i = 0; i < transfers; i++)
        streams.push_back(ctx.createStream());
    for (int i = 0; i < transfers; i++)
        ctx.memcpyPeer(dst + size_t(i) * bytes, 1, src, 0, bytes,
                       streams[size_t(i)]);
    ctx.setDevice(1);
    for (auto *s : streams)
        ctx.streamSynchronize(s);
    return ctx.elapsedCycles(1);
}

TEST(MultiGpu, PeerTimingMonotonicUnderContention)
{
    const size_t bytes = 64 * 1024;
    const cycle_t one = contendedElapsed(1, bytes);
    const cycle_t two = contendedElapsed(2, bytes);
    const cycle_t four = contendedElapsed(4, bytes);
    // One transfer takes at least the serialization time plus link latency.
    EXPECT_GE(one, cycle_t(bytes / 8 + 500));
    // Contending transfers serialize on the link: strictly later completion,
    // and each extra transfer adds at least its full serialization time.
    EXPECT_GE(two, one + cycle_t(bytes / 8));
    EXPECT_GE(four, two + 2 * cycle_t(bytes / 8));
}

// ---- nccl-lite all-reduce ----

void
runRingCase(int devices, size_t count)
{
    cuda::Context ctx(multiOpts(devices));
    std::vector<std::vector<float>> host;
    std::vector<addr_t> bufs;
    for (int r = 0; r < devices; r++) {
        host.push_back(randomFloats(count, 100 + uint64_t(r)));
        ctx.setDevice(r);
        bufs.push_back(ctx.malloc(count * 4));
        ctx.memcpyH2D(bufs[size_t(r)], host.back().data(), count * 4);
    }
    nccl::Communicator comm(ctx);
    comm.allReduceSum(bufs, count, nccl::AllReduceAlgo::Ring);

    const auto ref = nccl::ringAllReduceReference(host);
    for (int r = 0; r < devices; r++) {
        ctx.setDevice(r);
        std::vector<float> got(count);
        ctx.memcpyD2H(got.data(), bufs[size_t(r)], count * 4);
        EXPECT_EQ(0, std::memcmp(got.data(), ref.data(), count * 4))
            << "rank " << r << " of " << devices << ", count " << count;
    }
}

TEST(MultiGpu, RingAllReduceMatchesHostMirror)
{
    // 1003 does not divide evenly by any rank count: uneven chunk sizes.
    for (const int n : {2, 4, 8})
        runRingCase(n, 1003);
}

TEST(MultiGpu, RingAllReduceTinyBuffer)
{
    // count < ranks: some chunks are empty (zero-byte transfers).
    runRingCase(4, 3);
}

TEST(MultiGpu, ChainAllReduceMatchesHostMirror)
{
    const int devices = 4;
    const size_t count = 517;
    cuda::Context ctx(multiOpts(devices));
    std::vector<std::vector<float>> host;
    std::vector<addr_t> bufs;
    for (int r = 0; r < devices; r++) {
        host.push_back(randomFloats(count, 200 + uint64_t(r)));
        ctx.setDevice(r);
        bufs.push_back(ctx.malloc(count * 4));
        ctx.memcpyH2D(bufs[size_t(r)], host.back().data(), count * 4);
    }
    nccl::Communicator comm(ctx);
    comm.allReduceSum(bufs, count, nccl::AllReduceAlgo::Chain);

    const auto ref = nccl::chainAllReduceReference(host);
    for (int r = 0; r < devices; r++) {
        ctx.setDevice(r);
        std::vector<float> got(count);
        ctx.memcpyD2H(got.data(), bufs[size_t(r)], count * 4);
        EXPECT_EQ(0, std::memcmp(got.data(), ref.data(), count * 4))
            << "rank " << r;
    }
}

// ---- data-parallel LeNet ----

/**
 * Train `steps` steps of data-parallel LeNet on `devices` simulated GPUs and
 * the single-GPU sharded reference on the same data; both must agree bitwise
 * on every per-step loss and every weight.
 */
void
runDataParallelCase(int devices, int steps)
{
    const int batch = 8;
    torchlet::LeNetAlgos algos;
    algos.fc2_gemv2t = false; // replicas may run at batch 1; keep SGEMM
    const auto data = torchlet::makeMnist(size_t(batch) * size_t(steps), 77);
    const float lr = 0.05f;

    cuda::Context mctx(multiOpts(devices));
    torchlet::DataParallelLeNet dp(mctx, batch, algos, 5);

    cuda::Context sctx(multiOpts(1));
    cudnn::CudnnHandle h(sctx);
    torchlet::LeNet ref(h, batch, algos, 5);

    for (int s = 0; s < steps; s++) {
        const float *images = data.image(size_t(s) * batch);
        const uint32_t *labels = data.labels.data() + size_t(s) * batch;
        const float dp_loss = dp.trainStep(images, labels, lr);
        const float ref_loss = ref.trainStepSharded(images, labels, lr,
                                                    devices);
        EXPECT_EQ(dp_loss, ref_loss)
            << devices << " devices, step " << s;
    }

    const auto want = ref.getWeights();
    for (int r = 0; r < devices; r++) {
        const auto got = dp.getWeights(r);
        auto eq = [&](const std::vector<float> &a, const std::vector<float> &b,
                      const char *name) {
            ASSERT_EQ(a.size(), b.size()) << name;
            EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * 4))
                << name << ", rank " << r << ", " << devices << " devices";
        };
        eq(got.conv1_w, want.conv1_w, "conv1_w");
        eq(got.conv1_b, want.conv1_b, "conv1_b");
        eq(got.conv2_w, want.conv2_w, "conv2_w");
        eq(got.conv2_b, want.conv2_b, "conv2_b");
        eq(got.fc1_w, want.fc1_w, "fc1_w");
        eq(got.fc1_b, want.fc1_b, "fc1_b");
        eq(got.fc2_w, want.fc2_w, "fc2_w");
        eq(got.fc2_b, want.fc2_b, "fc2_b");
    }
}

TEST(MultiGpu, DataParallelLeNetMatchesSingleGpu2)
{
    runDataParallelCase(2, 2);
}

TEST(MultiGpu, DataParallelLeNetMatchesSingleGpu4)
{
    runDataParallelCase(4, 2);
}

TEST(MultiGpu, DataParallelLeNetMatchesSingleGpu8)
{
    runDataParallelCase(8, 1);
}

// ---- determinism across sim_threads ----

struct DpRun
{
    float loss = 0;
    std::vector<float> conv1_w;
    std::vector<cycle_t> elapsed;
    std::vector<timing::TimingTotals> totals;
    uint64_t fabric_bytes = 0;
};

DpRun
runDpTimed(unsigned threads)
{
    cuda::ContextOptions opts = multiOpts(2, cuda::SimMode::Performance);
    opts.sim_threads = threads;
    cuda::Context ctx(opts);
    torchlet::LeNetAlgos algos;
    algos.fc2_gemv2t = false;
    // Direct convolutions: the cheapest kernels to cycle-simulate. The
    // cross-device machinery under test is identical for every algorithm.
    algos.conv1 = cudnn::ConvFwdAlgo::ImplicitGemm;
    algos.conv2 = cudnn::ConvFwdAlgo::ImplicitGemm;
    torchlet::DataParallelLeNet dp(ctx, 2, algos, 11);
    const auto data = torchlet::makeMnist(2, 33);
    DpRun run;
    run.loss = dp.trainStep(data.images.data(), data.labels.data(), 0.05f);
    run.conv1_w = dp.getWeights(0).conv1_w;
    for (int d = 0; d < 2; d++) {
        run.elapsed.push_back(ctx.elapsedCycles(d));
        run.totals.push_back(ctx.gpuModel(d).totals());
    }
    run.fabric_bytes = ctx.fabric().totalBytes();
    return run;
}

TEST(MultiGpu, DataParallelDeterministicAcrossSimThreads)
{
    const DpRun serial = runDpTimed(1);
    const DpRun par = runDpTimed(4);
    EXPECT_EQ(serial.loss, par.loss);
    EXPECT_EQ(0, std::memcmp(serial.conv1_w.data(), par.conv1_w.data(),
                             serial.conv1_w.size() * 4));
    ASSERT_EQ(serial.elapsed.size(), par.elapsed.size());
    for (size_t d = 0; d < serial.elapsed.size(); d++) {
        EXPECT_EQ(serial.elapsed[d], par.elapsed[d]) << "device " << d;
        test::expectTotalsEq(serial.totals[d], par.totals[d]);
    }
    EXPECT_EQ(serial.fabric_bytes, par.fabric_bytes);
}

// ---- single-device regression ----

TEST(MultiGpu, SingleDeviceContextUnchangedByDeviceTable)
{
    // The same workload on a plain context and on device 0 of a 2-device
    // context must produce bitwise identical stats: hosting idle siblings
    // cannot perturb a device's timeline.
    auto run = [](int devices) {
        cuda::Context ctx(multiOpts(devices, cuda::SimMode::Performance));
        ctx.setDevice(0);
        const int mod = ctx.loadModule(nccl::kNcclPtx, "libnccl_lite.ptx");
        const auto *add = ctx.getFunction(mod, "nccl_add_f32");
        const size_t count = 2048;
        const auto host = randomFloats(count, 3);
        const addr_t a = ctx.malloc(count * 4);
        const addr_t b = ctx.malloc(count * 4);
        ctx.memcpyH2D(a, host.data(), count * 4);
        ctx.memcpyH2D(b, host.data(), count * 4);
        cuda::KernelArgs args;
        args.ptr(a).ptr(b).u32(unsigned(count));
        ctx.cuLaunchKernel(add, Dim3(unsigned(count / 128)), Dim3(128), args);
        ctx.deviceSynchronize();
        std::vector<float> out(count);
        ctx.memcpyD2H(out.data(), a, count * 4);
        return std::make_tuple(out, ctx.elapsedCycles(0),
                               ctx.gpuModel(0).totals());
    };
    const auto single = run(1);
    const auto multi = run(2);
    EXPECT_EQ(std::get<0>(single), std::get<0>(multi));
    EXPECT_EQ(std::get<1>(single), std::get<1>(multi));
    test::expectTotalsEq(std::get<2>(single), std::get<2>(multi));
}

} // namespace
