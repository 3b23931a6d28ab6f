/**
 * @file
 * Multi-threaded determinism suite: the simulator must produce bitwise
 * identical results at any sim_threads setting. Runs a conv algorithm sweep
 * and a LeNet inference step at sim_threads=1 vs 4 and compares output
 * tensors, TimingTotals, coverage counts and per-bank DRAM statistics; also
 * checks the serial fallback for kernels using global atomics.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "chkpt/checkpoint.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "cudnn/cudnn.h"
#include "runtime/context.h"
#include "sim_test_util.h"
#include "torchlet/lenet.h"
#include "torchlet/lenet_cpu.h"
#include "torchlet/mnist_synth.h"

using namespace mlgs;

namespace
{

/** One conv forward pass; everything observable about the run. */
struct ConvRun
{
    std::vector<float> y;
    uint64_t warp_instructions = 0;
    timing::TimingTotals totals;
    cycle_t elapsed_cycles = 0;
    std::map<std::string, uint64_t> coverage;
    std::vector<uint64_t> bank_hits;
    std::vector<uint64_t> bank_misses;
    std::vector<cycle_t> kernel_cycles;
};

ConvRun
runConv(cuda::SimMode mode, unsigned threads, cudnn::ConvFwdAlgo algo)
{
    cuda::ContextOptions opts;
    opts.mode = mode;
    opts.gpu = timing::GpuConfig::gtx1050();
    opts.sim_threads = threads;
    cuda::Context ctx(opts);
    cudnn::CudnnHandle h(ctx);

    func::CoverageMap cov;
    if (mode == cuda::SimMode::Functional)
        ctx.executor().setCoverage(&cov);

    const cudnn::TensorDesc xd(2, 8, 12, 12);
    const cudnn::FilterDesc wd(8, 8, 3, 3);
    const cudnn::ConvDesc conv{1, 1};
    const cudnn::TensorDesc yd = conv.outputDim(xd, wd);

    Rng rng(2026);
    std::vector<float> hx(xd.count()), hw(wd.count());
    for (auto &v : hx)
        v = rng.uniform(-1.0f, 1.0f);
    for (auto &v : hw)
        v = rng.uniform(-1.0f, 1.0f);

    const addr_t dx = ctx.malloc(xd.bytes());
    const addr_t dw = ctx.malloc(wd.bytes());
    const addr_t dy = ctx.malloc(yd.bytes());
    ctx.memcpyH2D(dx, hx.data(), xd.bytes());
    ctx.memcpyH2D(dw, hw.data(), wd.bytes());
    h.convolutionForward(xd, dx, wd, dw, conv, algo, yd, dy);
    ctx.deviceSynchronize();

    ConvRun run;
    run.y.resize(yd.count());
    ctx.memcpyD2H(run.y.data(), dy, yd.bytes());
    run.warp_instructions = ctx.totalWarpInstructions();
    run.totals = ctx.gpuModel().totals();
    run.elapsed_cycles = ctx.elapsedCycles();
    run.coverage = cov.counts();
    run.bank_hits = ctx.gpuModel().perBankRowHits();
    run.bank_misses = ctx.gpuModel().perBankRowMisses();
    for (const auto &rec : ctx.launchLog())
        run.kernel_cycles.push_back(rec.cycles);
    return run;
}

const cudnn::ConvFwdAlgo kSweep[] = {
    cudnn::ConvFwdAlgo::ImplicitGemm,
    cudnn::ConvFwdAlgo::Gemm,
    cudnn::ConvFwdAlgo::WinogradNonfused,
};

TEST(Determinism, FunctionalConvSweepBitwiseEqual)
{
    for (const auto algo : kSweep) {
        const ConvRun serial = runConv(cuda::SimMode::Functional, 1, algo);
        const ConvRun par = runConv(cuda::SimMode::Functional, 4, algo);
        ASSERT_EQ(serial.y.size(), par.y.size());
        EXPECT_EQ(0, std::memcmp(serial.y.data(), par.y.data(),
                                 serial.y.size() * sizeof(float)))
            << "algo " << int(algo);
        EXPECT_EQ(serial.warp_instructions, par.warp_instructions);
        EXPECT_EQ(serial.coverage, par.coverage);
    }
}

TEST(Determinism, TimingConvBitwiseEqual)
{
    for (const auto algo : kSweep) {
        const ConvRun serial = runConv(cuda::SimMode::Performance, 1, algo);
        const ConvRun par = runConv(cuda::SimMode::Performance, 4, algo);
        ASSERT_EQ(serial.y.size(), par.y.size());
        EXPECT_EQ(0, std::memcmp(serial.y.data(), par.y.data(),
                                 serial.y.size() * sizeof(float)))
            << "algo " << int(algo);
        test::expectTotalsEq(serial.totals, par.totals);
        EXPECT_EQ(serial.elapsed_cycles, par.elapsed_cycles);
        EXPECT_EQ(serial.kernel_cycles, par.kernel_cycles);
        EXPECT_EQ(serial.bank_hits, par.bank_hits);
        EXPECT_EQ(serial.bank_misses, par.bank_misses);
    }
}

/** Small pretrained LeNet shared by the LeNet determinism tests. */
const torchlet::LeNetWeights &
lenetWeights()
{
    static const torchlet::LeNetWeights w = [] {
        const auto train = torchlet::makeMnist(30, 1234);
        return torchlet::trainLeNetOnHost(train, 42, 60, 8, 0.05f);
    }();
    return w;
}

struct LeNetRun
{
    std::vector<int> preds;
    uint64_t warp_instructions = 0;
    timing::TimingTotals totals;
    cycle_t elapsed_cycles = 0;
};

LeNetRun
runLeNet(cuda::SimMode mode, unsigned threads)
{
    cuda::ContextOptions opts;
    opts.mode = mode;
    opts.gpu = timing::GpuConfig::gtx1050();
    opts.sim_threads = threads;
    cuda::Context ctx(opts);
    cudnn::CudnnHandle h(ctx);

    torchlet::LeNetAlgos algos;
    torchlet::LeNet net(h, 1, algos);
    net.setWeights(lenetWeights());

    const auto data = torchlet::makeMnist(2, 999);
    LeNetRun run;
    for (size_t i = 0; i < 2; i++)
        run.preds.push_back(net.predict(data.image(i))[0]);
    run.warp_instructions = ctx.totalWarpInstructions();
    run.totals = ctx.gpuModel().totals();
    run.elapsed_cycles = ctx.elapsedCycles();
    return run;
}

TEST(Determinism, LeNetFunctionalStepBitwiseEqual)
{
    const LeNetRun serial = runLeNet(cuda::SimMode::Functional, 1);
    const LeNetRun par = runLeNet(cuda::SimMode::Functional, 4);
    EXPECT_EQ(serial.preds, par.preds);
    EXPECT_EQ(serial.warp_instructions, par.warp_instructions);
}

TEST(Determinism, LeNetTimingStepBitwiseEqual)
{
    const LeNetRun serial = runLeNet(cuda::SimMode::Performance, 1);
    const LeNetRun par = runLeNet(cuda::SimMode::Performance, 4);
    EXPECT_EQ(serial.preds, par.preds);
    test::expectTotalsEq(serial.totals, par.totals);
    EXPECT_EQ(serial.elapsed_cycles, par.elapsed_cycles);
}

// ---- global-atomics serial fallback ----

const char *kHistKernel = R"(
.visible .entry hist_kernel(.param .u64 Bins, .param .u32 nbins)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<8>;
    ld.param.u64 %rd1, [Bins];
    ld.param.u32 %r1, [nbins];
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mov.u32 %r4, %tid.x;
    mad.lo.u32 %r5, %r2, %r3, %r4;
    rem.u32 %r6, %r5, %r1;
    mul.wide.u32 %rd2, %r6, 4;
    add.u64 %rd3, %rd1, %rd2;
    atom.global.add.u32 %r7, [%rd3], 1;
    ret;
}
)";

TEST(Determinism, GlobalAtomicsKernelFallsBackToSerial)
{
    cuda::ContextOptions opts;
    opts.mode = cuda::SimMode::Functional;
    opts.sim_threads = 4;
    cuda::Context ctx(opts);
    ctx.loadModule(kHistKernel, "hist.ptx");

    const ptx::KernelDef *k = ctx.findKernel("hist_kernel");
    ASSERT_NE(k, nullptr);
    EXPECT_TRUE(ptx::usesGlobalAtomics(*k));

    const unsigned nbins = 8, ctas = 16, tpb = 64;
    const addr_t bins = ctx.malloc(nbins * 4);
    ctx.memsetD(bins, 0, nbins * 4);
    cuda::KernelArgs args;
    args.ptr(bins).u32(nbins);
    ctx.launch("hist_kernel", Dim3(ctas), Dim3(tpb), args);
    ctx.deviceSynchronize();

    std::vector<uint32_t> host(nbins);
    ctx.memcpyD2H(host.data(), bins, nbins * 4);
    for (unsigned b = 0; b < nbins; b++)
        EXPECT_EQ(host[b], ctas * tpb / nbins) << "bin " << b;
}

TEST(Determinism, SharedAtomicsDoNotForceSerial)
{
    // atom.shared is CTA-local: no cross-CTA communication, fan-out stays
    // legal. Parse a minimal kernel and check the static query directly.
    const char *kSharedAtom = R"(
.visible .entry shared_atom()
{
    .shared .b8 accum[4];
    .reg .u32 %r<3>;
    .reg .u64 %rd<2>;
    mov.u64 %rd1, accum;
    atom.shared.add.u32 %r1, [%rd1], 1;
    ret;
}
)";
    cuda::Context ctx;
    ctx.loadModule(kSharedAtom, "shared_atom.ptx");
    const ptx::KernelDef *k = ctx.findKernel("shared_atom");
    ASSERT_NE(k, nullptr);
    EXPECT_FALSE(ptx::usesGlobalAtomics(*k));
}

// ---- checkpoint round-trip under parallel stepping ----

// Same two-kernel app the checkpoint tests in test_tools.cc use (scale then
// ring-shift), replicated here because those kernels are file-local there.
const char *kCkptScale = R"(
.visible .entry scale_buf(.param .u64 Buf, .param .u32 n, .param .f32 a)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<6>;
    .reg .f32 %f<4>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [Buf];
    ld.param.u32 %r1, [n];
    ld.param.f32 %f1, [a];
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mov.u32 %r4, %tid.x;
    mad.lo.u32 %r5, %r2, %r3, %r4;
    setp.ge.u32 %p1, %r5, %r1;
    @%p1 bra DONE;
    mul.wide.u32 %rd2, %r5, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.f32 %f2, [%rd3];
    mul.f32 %f3, %f2, %f1;
    st.global.f32 [%rd3], %f3;
DONE:
    ret;
}
)";

const char *kCkptRingShift = R"(
.visible .entry ring_shift(
    .param .u64 Src, .param .u64 Dst, .param .u32 n, .param .s32 k)
{
    .reg .u64 %rd<6>;
    .reg .u32 %r<8>;
    .reg .s32 %s<6>;
    .reg .f32 %f<3>;
    .reg .pred %p<3>;
    ld.param.u64 %rd1, [Src];
    ld.param.u64 %rd2, [Dst];
    ld.param.u32 %r1, [n];
    ld.param.s32 %s1, [k];
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mov.u32 %r4, %tid.x;
    mad.lo.u32 %r5, %r2, %r3, %r4;
    setp.ge.u32 %p1, %r5, %r1;
    @%p1 bra DONE;
    cvt.s32.u32 %s2, %r5;
    sub.s32 %s3, %s2, %s1;
    cvt.s32.u32 %s4, %r1;
    rem.s32 %s5, %s3, %s4;
    setp.lt.s32 %p2, %s5, 0;
    @%p2 add.s32 %s5, %s5, %s4;
    cvt.u32.s32 %r6, %s5;
    mul.wide.u32 %rd3, %r6, 4;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.f32 %f1, [%rd4];
    mul.wide.u32 %rd3, %r5, 4;
    add.u64 %rd5, %rd2, %rd3;
    st.global.f32 [%rd5], %f1;
DONE:
    ret;
}
)";

TEST(Determinism, CheckpointRoundTripBitwiseEqualAtFourThreads)
{
    // Write a mid-kernel checkpoint and resume it, with every context —
    // straight run, writer, loader — stepping at sim_threads=4. The resumed
    // memory image must match the straight run bitwise.
    const unsigned n = 2048;
    std::vector<float> host(n);
    for (unsigned i = 0; i < n; i++)
        host[i] = float(i % 17) + 0.5f;

    const auto optsAt4 = [] {
        cuda::ContextOptions opts;
        opts.mode = cuda::SimMode::Functional;
        opts.sim_threads = 4;
        return opts;
    };
    const auto runApp = [&](cuda::Context &ctx, addr_t src, addr_t dst) {
        cuda::KernelArgs scale_args;
        scale_args.ptr(src).u32(n).f32(2.0f);
        ctx.launch("scale_buf", Dim3((n + 127) / 128), Dim3(128), scale_args);
        cuda::KernelArgs shift_args;
        shift_args.ptr(src).ptr(dst).u32(n).s32(5);
        ctx.launch("ring_shift", Dim3((n + 127) / 128), Dim3(128),
                   shift_args);
        ctx.deviceSynchronize();
    };
    const auto buildApp = [&](cuda::Context &ctx, addr_t &src, addr_t &dst) {
        ctx.loadModule(kCkptScale, "scale.ptx");
        ctx.loadModule(kCkptRingShift, "ring.ptx");
        src = ctx.malloc(n * 4);
        dst = ctx.malloc(n * 4);
        ctx.memcpyH2D(src, host.data(), n * 4);
        runApp(ctx, src, dst);
    };

    std::vector<float> want(n);
    {
        cuda::Context ctx(optsAt4());
        addr_t src, dst;
        buildApp(ctx, src, dst);
        ctx.memcpyD2H(want.data(), dst, n * 4);
    }

    mlgs::test::ScopedTmpDir tmp;
    const std::string path = tmp.file("mt.ckpt");
    {
        cuda::Context ctx(optsAt4());
        chkpt::CheckpointConfig cfg;
        cfg.kernel_x = 1; // inside the ring shift
        cfg.cta_m = 4;
        cfg.cta_t = 2;
        cfg.instr_y = 6;
        cfg.path = path;
        chkpt::CheckpointWriter writer(ctx, cfg);
        addr_t src, dst;
        buildApp(ctx, src, dst);
        EXPECT_TRUE(writer.reached());
    }

    {
        cuda::Context ctx(optsAt4());
        ctx.loadModule(kCkptScale, "scale.ptx");
        ctx.loadModule(kCkptRingShift, "ring.ptx");
        chkpt::CheckpointLoader loader(ctx, path);
        const addr_t src = ctx.malloc(n * 4);
        const addr_t dst = ctx.malloc(n * 4);
        ctx.memcpyH2D(src, host.data(), n * 4);
        runApp(ctx, src, dst);
        std::vector<float> got(n);
        ctx.memcpyD2H(got.data(), dst, n * 4);
        EXPECT_EQ(got, want);
    }
}

// ---- thread-pool substrate ----

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    std::vector<std::atomic<uint32_t>> seen(10'000);
    pool.parallelFor(seen.size(), [&](uint64_t i, unsigned w) {
        ASSERT_LT(w, 4u);
        seen[i].fetch_add(1);
    });
    for (size_t i = 0; i < seen.size(); i++)
        ASSERT_EQ(seen[i].load(), 1u) << i;
}

TEST(ThreadPool, BackToBackJobsReuseWorkers)
{
    ThreadPool pool(3);
    std::atomic<uint64_t> sum{0};
    for (int job = 0; job < 1000; job++)
        pool.parallelFor(16, [&](uint64_t i, unsigned) { sum += i; });
    EXPECT_EQ(sum.load(), 1000ull * (15 * 16 / 2));
}

TEST(ThreadPool, BodyExceptionPropagatesToCaller)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(256,
                                  [&](uint64_t i, unsigned) {
                                      if (i == 97)
                                          fatal("boom at ", i);
                                  }),
                 FatalError);
}

TEST(ThreadPool, SingleThreadRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1u);
    uint64_t sum = 0; // no atomics needed: everything runs on this thread
    pool.parallelFor(100, [&](uint64_t i, unsigned w) {
        EXPECT_EQ(w, 0u);
        sum += i;
    });
    EXPECT_EQ(sum, 4950u);
}

TEST(ThreadPool, ResolveThreadCountPrefersExplicitRequest)
{
    EXPECT_EQ(ThreadPool::resolveThreadCount(3), 3u);
    EXPECT_GE(ThreadPool::resolveThreadCount(0), 1u);
}

} // namespace
