/**
 * @file
 * Tooling tests: checkpoint/resume (Figs 4-5), the three-step functional
 * debugger (Figs 2-3) with injected legacy bugs, differential coverage, the
 * IR instrumentation pass, and the hardware oracle.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>

#include "chkpt/checkpoint.h"
#include "debug/debugger.h"
#include "oracle/hw_oracle.h"
#include "sim_test_util.h"
#include "trace/recorder.h"

using namespace mlgs;

namespace
{

// Rotate src by k: dst[i] = src[((i - k) mod n + n) mod n]. The signed
// remainder with negative dividend and a non-power-of-two modulus is the
// exact instruction class whose untyped legacy implementation the paper
// debugged into fft2d_r2c_32x32 (Section III-D). (Our FFT kernels use
// power-of-two tile moduli, where the legacy bug is arithmetically masked —
// see DESIGN.md.)
const char *kRingShift = R"(
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
    sub.s32 %s3, %s2, %s1;       // i - k, negative for i < k
    cvt.s32.u32 %s4, %r1;
    rem.s32 %s5, %s3, %s4;       // needs signed semantics
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

const char *kScale = R"(
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

/** The little "application": scale, then ring-shift (two kernels). */
void
runApp(cuda::Context &ctx, addr_t src, addr_t dst, unsigned n)
{
    cuda::KernelArgs scale_args;
    scale_args.ptr(src).u32(n).f32(2.0f);
    ctx.launch("scale_buf", Dim3((n + 127) / 128), Dim3(128), scale_args);
    cuda::KernelArgs shift_args;
    shift_args.ptr(src).ptr(dst).u32(n).s32(5);
    ctx.launch("ring_shift", Dim3((n + 127) / 128), Dim3(128), shift_args);
    ctx.deviceSynchronize();
}

// ---- debug tool: step 1 happens app-side (this very comparison); steps
// ---- 2 and 3 via the Replayer.

TEST(DebugTool, LegacyRemBreaksRingShift)
{
    const unsigned n = 100; // non-power-of-two modulus
    std::vector<float> host(n);
    for (unsigned i = 0; i < n; i++)
        host[i] = float(i + 1);

    auto run = [&](func::BugModel bugs) {
        cuda::ContextOptions opts;
        opts.bugs = bugs;
        cuda::Context ctx(opts);
        ctx.loadModule(kScale, "scale.ptx");
        ctx.loadModule(kRingShift, "ring.ptx");
        const addr_t src = ctx.malloc(n * 4);
        const addr_t dst = ctx.malloc(n * 4);
        ctx.memcpyH2D(src, host.data(), n * 4);
        runApp(ctx, src, dst, n);
        std::vector<float> out(n);
        ctx.memcpyD2H(out.data(), dst, n * 4);
        return out;
    };

    const auto good = run({});
    func::BugModel bugs;
    bugs.legacy_rem = true;
    const auto bad = run(bugs);
    EXPECT_NE(good, bad) << "legacy rem should corrupt the ring shift";
    // The correct result is the rotation.
    for (unsigned i = 0; i < n; i++)
        ASSERT_FLOAT_EQ(good[i], 2.0f * host[(i + n - 5) % n]);
}

TEST(DebugTool, ReplayerFindsBadKernelAndInstruction)
{
    const unsigned n = 100;
    std::vector<float> host(n);
    for (unsigned i = 0; i < n; i++)
        host[i] = float(i + 1);

    // Record the app's run; the replayer works from the trace alone.
    cuda::Context ctx;
    trace::TraceRecorder recorder(ctx);
    ctx.loadModule(kScale, "scale.ptx");
    ctx.loadModule(kRingShift, "ring.ptx");
    const addr_t src = ctx.malloc(n * 4);
    const addr_t dst = ctx.malloc(n * 4);
    ctx.memcpyH2D(src, host.data(), n * 4);
    runApp(ctx, src, dst, n);
    ASSERT_EQ(recorder.launchCount(), 2u);

    func::BugModel suspect;
    suspect.legacy_rem = true;
    debug::Replayer replayer(recorder.finalize(), func::BugModel{}, suspect);

    // Step 2: which kernel first produces wrong buffers?
    const auto kres = replayer.findFirstBadKernel();
    ASSERT_TRUE(kres.diverged);
    EXPECT_EQ(kres.kernel_name, "ring_shift");
    EXPECT_EQ(kres.launch_index, 1u);

    // Step 3: which instruction?
    const auto ires = replayer.localizeInstruction(kres.launch_index);
    ASSERT_TRUE(ires.diverged);
    EXPECT_NE(ires.instr_text.find("rem.s32"), std::string::npos)
        << "flagged: " << ires.instr_text;
    EXPECT_NE(ires.golden_value, ires.suspect_value);
}

TEST(DebugTool, ReplayerFindsSplitFmaMismatch)
{
    // The FP16/FMA-contraction story (Section III-D1): intermediate-rounding
    // differences between "hardware" and simulator localize to an fma.
    const unsigned n = 64;
    // a = 1 + 2^-15 everywhere: fma(a, 1 - 2^-15, -1) is -2^-30 fused but
    // exactly 0 when the multiply rounds separately.
    std::vector<float> host(n);
    {
        const uint32_t bits = 0x3F800100u;
        float a;
        std::memcpy(&a, &bits, sizeof(a));
        std::fill(host.begin(), host.end(), a);
    }

    const char *kFma = R"(
.visible .entry fma_chain(.param .u64 Buf, .param .u32 n)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<6>;
    .reg .f32 %f<6>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [Buf];
    ld.param.u32 %r1, [n];
    mov.u32 %r2, %tid.x;
    setp.ge.u32 %p1, %r2, %r1;
    @%p1 bra DONE;
    mul.wide.u32 %rd2, %r2, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.f32 %f1, [%rd3];
    mov.f32 %f2, 0f3F7FFE00;
    mov.f32 %f3, 0fBF800000;
    fma.rn.f32 %f4, %f1, %f2, %f3;
    st.global.f32 [%rd3], %f4;
DONE:
    ret;
}
)";
    cuda::Context ctx;
    trace::TraceRecorder recorder(ctx);
    ctx.loadModule(kFma, "fma.ptx");
    const addr_t buf = ctx.malloc(n * 4);
    ctx.memcpyH2D(buf, host.data(), n * 4);
    cuda::KernelArgs args;
    args.ptr(buf).u32(n);
    ctx.launch("fma_chain", Dim3(1), Dim3(64), args);
    ctx.deviceSynchronize();

    func::BugModel suspect;
    suspect.split_fma = true;
    debug::Replayer replayer(recorder.finalize(), func::BugModel{}, suspect);
    const auto kres = replayer.findFirstBadKernel();
    ASSERT_TRUE(kres.diverged);
    const auto ires = replayer.localizeInstruction(0);
    ASSERT_TRUE(ires.diverged);
    EXPECT_NE(ires.instr_text.find("fma"), std::string::npos);
}

TEST(DebugTool, ReplayerLocalizesLegacyBfe)
{
    // The bfe bug of Section III-D: a signed field extract must sign-extend.
    // 0xF0's upper nibble is -1 as a signed 4-bit field, 15 without the
    // sign extension.
    const char *kField = R"(
.visible .entry signed_nibble(.param .u64 Buf, .param .u32 n)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<4>;
    .reg .s32 %s<3>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [Buf];
    ld.param.u32 %r1, [n];
    mov.u32 %r2, %tid.x;
    setp.ge.u32 %p1, %r2, %r1;
    @%p1 bra DONE;
    mul.wide.u32 %rd2, %r2, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.s32 %s1, [%rd3];
    bfe.s32 %s2, %s1, 4, 4;
    st.global.s32 [%rd3], %s2;
DONE:
    ret;
}
)";
    const unsigned n = 32;
    std::vector<int32_t> host(n, 0xF0);

    cuda::Context ctx;
    trace::TraceRecorder recorder(ctx);
    ctx.loadModule(kField, "field.ptx");
    const addr_t buf = ctx.malloc(n * 4);
    ctx.memcpyH2D(buf, host.data(), n * 4);
    cuda::KernelArgs args;
    args.ptr(buf).u32(n);
    ctx.launch("signed_nibble", Dim3(1), Dim3(32), args);
    ctx.deviceSynchronize();

    func::BugModel suspect;
    suspect.legacy_bfe = true;
    debug::Replayer replayer(recorder.finalize(), func::BugModel{}, suspect);
    const auto kres = replayer.findFirstBadKernel();
    ASSERT_TRUE(kres.diverged);
    EXPECT_EQ(kres.kernel_name, "signed_nibble");
    EXPECT_EQ(kres.buffer_addr, buf);
    const auto ires = replayer.localizeInstruction(kres.launch_index);
    ASSERT_TRUE(ires.diverged);
    EXPECT_FALSE(ires.control_diverged);
    EXPECT_NE(ires.instr_text.find("bfe.s32"), std::string::npos)
        << "flagged: " << ires.instr_text;
    EXPECT_EQ(uint32_t(ires.golden_value), 0xffffffffu);
    EXPECT_EQ(uint32_t(ires.suspect_value), 15u);
}

TEST(DebugTool, ReplayerDebugsTextureKernelFromSavedTrace)
{
    // The first bad kernel reads its input through a texture, as LRN does
    // in every MNIST run. Its texture binding and the bound buffer come from
    // the replayed trace, so it localizes like any other kernel.
    const char *kTexShift = R"(
.tex .u64 tex_in;
.visible .entry tex_shift(.param .u64 Dst, .param .u32 n, .param .s32 k)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<6>;
    .reg .s32 %s<6>;
    .reg .f32 %f<5>;
    .reg .pred %p<3>;
    ld.param.u64 %rd1, [Dst];
    ld.param.u32 %r1, [n];
    ld.param.s32 %s1, [k];
    mov.u32 %r2, %tid.x;
    setp.ge.u32 %p1, %r2, %r1;
    @%p1 bra DONE;
    cvt.s32.u32 %s2, %r2;
    sub.s32 %s3, %s2, %s1;
    cvt.s32.u32 %s4, %r1;
    rem.s32 %s5, %s3, %s4;
    setp.lt.s32 %p2, %s5, 0;
    @%p2 add.s32 %s5, %s5, %s4;
    tex.1d.v4.f32.s32 {%f1, %f2, %f3, %f4}, [tex_in, {%s5}];
    mul.wide.u32 %rd2, %r2, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.f32 [%rd3], %f1;
DONE:
    ret;
}
)";
    const unsigned n = 100;
    std::vector<float> host(n);
    for (unsigned i = 0; i < n; i++)
        host[i] = float(i + 1);

    mlgs::test::ScopedTmpDir tmp;
    const std::string path = tmp.file("tex_shift.mlgstrace");
    {
        cuda::Context ctx;
        trace::TraceRecorder recorder(ctx);
        ctx.loadModule(kScale, "scale.ptx");
        ctx.loadModule(kTexShift, "tex_shift.ptx");
        const int texref = ctx.registerTexture("tex_in");
        const addr_t src = ctx.malloc(n * 4);
        const addr_t dst = ctx.malloc(n * 4);
        ctx.memcpyH2D(src, host.data(), n * 4);
        ctx.bindTextureLinear(texref, src, n);
        cuda::KernelArgs scale_args;
        scale_args.ptr(src).u32(n).f32(2.0f);
        ctx.launch("scale_buf", Dim3(1), Dim3(128), scale_args);
        cuda::KernelArgs shift_args;
        shift_args.ptr(dst).u32(n).s32(5);
        ctx.launch("tex_shift", Dim3(1), Dim3(128), shift_args);
        std::vector<float> out(n);
        ctx.memcpyD2H(out.data(), dst, n * 4);
        for (unsigned i = 0; i < n; i++)
            ASSERT_FLOAT_EQ(out[i], 2.0f * host[(i + n - 5) % n]);
        recorder.finalize().save(path);
    }

    func::BugModel suspect;
    suspect.legacy_rem = true;
    debug::Replayer replayer(trace::TraceFile::load(path), func::BugModel{},
                             suspect);
    EXPECT_TRUE(replayer.lintModules().empty());
    const auto kres = replayer.findFirstBadKernel();
    ASSERT_TRUE(kres.diverged);
    EXPECT_EQ(kres.kernel_name, "tex_shift");
    EXPECT_EQ(kres.launch_index, 1u);
    const auto ires = replayer.localizeInstruction(kres.launch_index);
    ASSERT_TRUE(ires.diverged);
    EXPECT_NE(ires.instr_text.find("rem.s32"), std::string::npos)
        << "flagged: " << ires.instr_text;
    EXPECT_NE(ires.golden_value, ires.suspect_value);
}

TEST(DebugTool, DifferentialCoverageIsolatesRem)
{
    // Regression workload (scale only) vs failing workload (+ ring shift):
    // the coverage diff pinpoints handler variants only the failing app
    // exercises — how the paper found the bfe bug.
    const unsigned n = 64;
    std::vector<float> host(n, 1.0f);

    auto runWith = [&](bool with_shift, func::CoverageMap &cov) {
        cuda::Context ctx;
        ctx.executor().setCoverage(&cov);
        ctx.loadModule(kScale, "scale.ptx");
        ctx.loadModule(kRingShift, "ring.ptx");
        const addr_t src = ctx.malloc(n * 4);
        const addr_t dst = ctx.malloc(n * 4);
        ctx.memcpyH2D(src, host.data(), n * 4);
        cuda::KernelArgs a;
        a.ptr(src).u32(n).f32(2.0f);
        ctx.launch("scale_buf", Dim3(1), Dim3(64), a);
        if (with_shift) {
            cuda::KernelArgs b;
            b.ptr(src).ptr(dst).u32(n).s32(5);
            ctx.launch("ring_shift", Dim3(1), Dim3(64), b);
        }
        ctx.deviceSynchronize();
    };

    func::CoverageMap regression, failing;
    runWith(false, regression);
    runWith(true, failing);
    const auto only = failing.diff(regression);
    EXPECT_NE(std::find(only.begin(), only.end(), "rem.s32"), only.end())
        << "differential coverage should isolate rem.s32";
}

TEST(Instrument, InstrumentedKernelStillComputesAndLogs)
{
    const ptx::Module m = ptx::parseModule(kRingShift, "ring.ptx");
    const ptx::KernelDef inst = debug::instrumentKernel(m.kernels[0]);
    EXPECT_GT(inst.instrs.size(), m.kernels[0].instrs.size());
    EXPECT_EQ(inst.params.back().name, "__log");

    // Execute it and verify both the result and the log contents.
    GpuMemory mem;
    const unsigned n = 32;
    const addr_t src = 0x10000000, dst = 0x10001000, log = 0x10100000;
    for (unsigned i = 0; i < n; i++)
        mem.store<float>(src + i * 4, float(i));
    func::Executor exec(mem);
    func::FunctionalEngine eng(exec);
    func::LaunchEnv env;
    env.kernel = &inst;
    cuda::KernelArgs args;
    args.ptr(src).ptr(dst).u32(n).s32(3);
    std::vector<uint8_t> params = args.bytes();
    params.resize(inst.params.back().offset);
    const uint64_t lb = log;
    params.insert(params.end(), reinterpret_cast<const uint8_t *>(&lb),
                  reinterpret_cast<const uint8_t *>(&lb) + 8);
    env.params = params;
    eng.launch(env, Dim3(1), Dim3(32));

    for (unsigned i = 0; i < n; i++)
        ASSERT_FLOAT_EQ(mem.load<float>(dst + i * 4),
                        float((i + n - 3) % n));
    EXPECT_GT(mem.load<uint64_t>(log), 0u) << "no register writes logged";
}

// ---- checkpointing ----

TEST(Checkpoint, WriteAndResumeMatchesStraightRun)
{
    const unsigned n = 2048;
    std::vector<float> host(n);
    for (unsigned i = 0; i < n; i++)
        host[i] = float(i % 17) + 0.5f;

    auto buildApp = [&](cuda::Context &ctx, addr_t &src, addr_t &dst) {
        ctx.loadModule(kScale, "scale.ptx");
        ctx.loadModule(kRingShift, "ring.ptx");
        src = ctx.malloc(n * 4);
        dst = ctx.malloc(n * 4);
        ctx.memcpyH2D(src, host.data(), n * 4);
        runApp(ctx, src, dst, n);
    };

    // Straight functional run.
    std::vector<float> want(n);
    {
        cuda::Context ctx;
        addr_t src, dst;
        buildApp(ctx, src, dst);
        ctx.memcpyD2H(want.data(), dst, n * 4);
    }

    // Checkpoint inside kernel 1 (the ring shift): M=4, t=2, y=6.
    mlgs::test::ScopedTmpDir tmp;
    const std::string path = tmp.file("resume.ckpt");
    {
        cuda::Context ctx;
        chkpt::CheckpointConfig cfg;
        cfg.kernel_x = 1;
        cfg.cta_m = 4;
        cfg.cta_t = 2;
        cfg.instr_y = 6;
        cfg.path = path;
        chkpt::CheckpointWriter writer(ctx, cfg);
        addr_t src, dst;
        buildApp(ctx, src, dst);
        EXPECT_TRUE(writer.reached());
    }

    // Resume in Performance mode; the memory image must match.
    for (const auto mode :
         {cuda::SimMode::Functional, cuda::SimMode::Performance}) {
        cuda::ContextOptions opts;
        opts.mode = mode;
        opts.gpu.num_cores = 2;
        cuda::Context ctx(opts);
        ctx.loadModule(kScale, "scale.ptx");
        ctx.loadModule(kRingShift, "ring.ptx");
        chkpt::CheckpointLoader loader(ctx, path);
        addr_t src = ctx.malloc(n * 4);
        addr_t dst = ctx.malloc(n * 4);
        ctx.memcpyH2D(src, host.data(), n * 4);
        // Replay the host program; hooks skip/resume appropriately.
        runApp(ctx, src, dst, n);
        std::vector<float> got(n);
        ctx.memcpyD2H(got.data(), dst, n * 4);
        EXPECT_EQ(got, want) << "mode " << int(mode);
    }
}

TEST(Checkpoint, CtaStateRoundTrips)
{
    // Serialize a partially-executed CTA and restore it bit-exactly.
    const ptx::Module m = ptx::parseModule(kRingShift, "ring.ptx");
    GpuMemory mem;
    for (unsigned i = 0; i < 64; i++)
        mem.store<float>(0x10000000 + i * 4, float(i));
    func::Executor exec(mem);
    func::FunctionalEngine eng(exec);
    func::LaunchEnv env;
    env.kernel = &m.kernels[0];
    cuda::KernelArgs args;
    args.ptr(0x10000000).ptr(0x10002000).u32(64).s32(3);
    env.params = args.bytes();

    auto cta = eng.makeCta(env, Dim3(1), Dim3(64), 0);
    eng.runCta(*cta, env, 5); // suspend after 5 instructions per warp

    BinaryWriter w;
    chkpt::saveCta(w, *cta);
    BinaryReader r(w.bytes());
    auto restored = chkpt::loadCta(r, m.kernels[0], Dim3(1), Dim3(64));

    ASSERT_EQ(restored->numThreads(), cta->numThreads());
    for (unsigned t = 0; t < cta->numThreads(); t++) {
        const auto a = cta->regs(t);
        const auto b = restored->regs(t);
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); i++)
            ASSERT_EQ(a[i].u64, b[i].u64);
    }
    for (unsigned wp = 0; wp < cta->numWarps(); wp++) {
        ASSERT_EQ(cta->stack(wp).entries().size(),
                  restored->stack(wp).entries().size());
        ASSERT_EQ(cta->warpInstrCount(wp), restored->warpInstrCount(wp));
    }

    // Both finish to the same result.
    eng.runCta(*cta, env);
    GpuMemory mem2;
    for (unsigned i = 0; i < 64; i++)
        mem2.store<float>(0x10000000 + i * 4, float(i));
    func::Executor exec2(mem2);
    func::FunctionalEngine eng2(exec2);
    eng2.runCta(*restored, env);
    for (unsigned i = 0; i < 64; i++)
        ASSERT_EQ(mem.load<float>(0x10002000 + i * 4),
                  mem2.load<float>(0x10002000 + i * 4));
}

// Two 40-thread CTAs: warp 1 of each is a partial warp with 8 live lanes.
// Shared memory, a barrier and a divergent branch give the checkpointed SIMT
// state some depth; few registers keep the file small enough to corrupt at
// every byte offset.
const char *kPartialWarp = R"(
.visible .entry partial_warp(.param .u64 Dst)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<6>;
    .reg .pred %p<2>;
    .shared .align 4 .b8 tile[160];
    ld.param.u64 %rd1, [Dst];
    mov.u32 %r1, %tid.x;
    mov.u32 %r2, %ctaid.x;
    mad.lo.u32 %r3, %r2, 40, %r1;
    mov.u64 %rd2, tile;
    mul.wide.u32 %rd3, %r1, 4;
    add.u64 %rd2, %rd2, %rd3;
    st.shared.u32 [%rd2], %r3;
    bar.sync 0;
    setp.lt.u32 %p1, %r1, 20;
    @%p1 bra SKIP;
    ld.shared.u32 %r4, [%rd2];
    add.u32 %r5, %r4, 1000;
    mul.wide.u32 %rd3, %r3, 4;
    add.u64 %rd3, %rd1, %rd3;
    st.global.u32 [%rd3], %r5;
SKIP:
    ret;
}
)";

/** Launch partial_warp over 80 outputs and return them. */
std::vector<uint32_t>
runPartialWarp(cuda::Context &ctx)
{
    const addr_t dst = ctx.malloc(80 * 4);
    ctx.memsetD(dst, 0, 80 * 4);
    cuda::KernelArgs args;
    args.ptr(dst);
    ctx.launch("partial_warp", Dim3(2), Dim3(40), args);
    ctx.deviceSynchronize();
    std::vector<uint32_t> out(80);
    ctx.memcpyD2H(out.data(), dst, out.size() * 4);
    return out;
}

std::unique_ptr<cuda::Context>
partialWarpContext(cuda::SimMode mode)
{
    cuda::ContextOptions opts;
    opts.mode = mode;
    opts.gpu.num_cores = 1;
    opts.sim_threads = 1;
    auto ctx = std::make_unique<cuda::Context>(opts);
    ctx->loadModule(kPartialWarp, "partial.ptx");
    return ctx;
}

void
writeFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char *>(bytes.data()),
            std::streamsize(bytes.size()));
}

/**
 * Load `bytes` as a checkpoint and resume it in `mode`. Returns true when a
 * FatalError rejected it, at load or at resume; any other exception fails
 * the test.
 */
bool
rejected(const std::string &path, const std::vector<uint8_t> &bytes,
         cuda::SimMode mode, const std::string &what)
{
    writeFile(path, bytes);
    try {
        auto ctx = partialWarpContext(mode);
        chkpt::CheckpointLoader loader(*ctx, path);
        runPartialWarp(*ctx);
        return false;
    } catch (const FatalError &) {
        return true;
    } catch (const std::exception &e) {
        ADD_FAILURE() << what << ": not a FatalError: " << e.what();
        return true;
    }
}

uint64_t
readLe(const std::vector<uint8_t> &b, size_t at, size_t n)
{
    uint64_t v = 0;
    std::memcpy(&v, b.data() + at, n);
    return v;
}

void
writeLe(std::vector<uint8_t> &b, size_t at, uint64_t v, size_t n)
{
    std::memcpy(b.data() + at, &v, n);
}

/**
 * Offset of CTA (cta_x, 0, 0)'s record inside a partial_warp checkpoint,
 * found by its id and 40-thread count.
 */
size_t
ctaRecordOffset(const std::vector<uint8_t> &file, uint32_t cta_x)
{
    uint8_t head[16] = {};
    std::memcpy(head, &cta_x, 4);
    const uint32_t nthreads = 40;
    std::memcpy(head + 12, &nthreads, 4);
    for (size_t i = 0; i + sizeof(head) <= file.size(); i++)
        if (std::memcmp(file.data() + i, head, sizeof(head)) == 0)
            return i;
    ADD_FAILURE() << "CTA " << cta_x << " record not found";
    return 0;
}

/** Offset of warp `warp`'s SIMT entry count in the CTA record at `cta`. */
size_t
warpRecordOffset(const std::vector<uint8_t> &file, size_t cta, unsigned warp)
{
    size_t pos = cta + 16; // id, thread count
    for (unsigned t = 0; t < 40; t++) {
        pos += 8 + 8 * readLe(file, pos, 8); // registers
        pos += 8 + readLe(file, pos, 8);     // local memory
    }
    pos += 4; // warp count
    for (unsigned w = 0; w < warp; w++)
        pos += 8 + 12 * readLe(file, pos, 8) + 1 + 8;
    return pos;
}

TEST(Checkpoint, CorruptFileIsFatalError)
{
    mlgs::test::ScopedTmpDir tmp;
    const std::string good_path = tmp.file("good.ckpt");
    const std::string bad_path = tmp.file("bad.ckpt");

    std::vector<uint32_t> want;
    {
        auto ctx = partialWarpContext(cuda::SimMode::Functional);
        want = runPartialWarp(*ctx);
    }
    // Both CTAs stop after 11 instructions per warp: warp 0 has just
    // diverged at the bra (its taken lanes wait at SKIP under the
    // fallthrough entry: two SIMT entries), warp 1 has one entry.
    {
        auto ctx = partialWarpContext(cuda::SimMode::Functional);
        chkpt::CheckpointConfig cfg;
        cfg.kernel_x = 0;
        cfg.cta_m = 0;
        cfg.cta_t = 1;
        cfg.instr_y = 11;
        cfg.path = good_path;
        chkpt::CheckpointWriter writer(*ctx, cfg);
        runPartialWarp(*ctx);
        ASSERT_TRUE(writer.reached());
    }
    std::vector<uint8_t> good;
    {
        std::ifstream f(good_path, std::ios::binary);
        good.assign(std::istreambuf_iterator<char>(f),
                    std::istreambuf_iterator<char>());
    }
    ASSERT_FALSE(good.empty());

    // The intact file resumes to the straight run's result in both modes.
    for (const auto mode :
         {cuda::SimMode::Functional, cuda::SimMode::Performance}) {
        auto ctx = partialWarpContext(mode);
        chkpt::CheckpointLoader loader(*ctx, good_path);
        EXPECT_EQ(runPartialWarp(*ctx), want) << "mode " << int(mode);
    }

    // Truncation at every byte offset.
    for (size_t n = 0; n < good.size(); n++) {
        const std::vector<uint8_t> cut(good.begin(), good.begin() + n);
        EXPECT_TRUE(rejected(bad_path, cut, cuda::SimMode::Functional,
                             "truncated to " + std::to_string(n)))
            << "truncated to " << n << " bytes";
    }

    // Single-byte flips at every offset: a clean rejection or a resumed run,
    // never a panic or a crash. The CTA ids and SIMT records also resume on
    // the timing model (register bytes only matter functionally).
    const size_t cta0 = ctaRecordOffset(good, 0);
    const size_t cta1 = ctaRecordOffset(good, 1);
    std::vector<std::pair<size_t, size_t>> simt; // [begin, end) byte ranges
    for (const size_t cta : {cta0, cta1}) {
        simt.push_back({cta, cta + 16});
        simt.push_back({warpRecordOffset(good, cta, 0) - 4,
                        warpRecordOffset(good, cta, 2) + 8});
    }
    for (size_t at = 0; at < good.size(); at++) {
        for (const uint8_t flip : {uint8_t(0x01), uint8_t(0xff)}) {
            std::vector<uint8_t> bad = good;
            bad[at] ^= flip;
            const std::string what = "byte " + std::to_string(at) + " ^ " +
                                     std::to_string(flip);
            rejected(bad_path, bad, cuda::SimMode::Functional, what);
            for (const auto &[b, e] : simt)
                if (at >= b && at < e)
                    rejected(bad_path, bad, cuda::SimMode::Performance, what);
        }
    }

    // Targeted SIMT corruptions, each rejected at load with an error that
    // names the checkpoint.
    const uint64_t ninstrs =
        ptx::parseModule(kPartialWarp, "partial.ptx").kernels[0].instrs.size();
    const size_t w0 = warpRecordOffset(good, cta0, 0);
    const size_t w1 = warpRecordOffset(good, cta0, 1);
    ASSERT_EQ(readLe(good, w0, 8), 2u) << "warp 0 should be diverged";
    ASSERT_EQ(readLe(good, w1, 8), 1u);
    ASSERT_EQ(readLe(good, w1 + 16, 4), 0xffu) << "8 live lanes";
    const size_t w0_top = w0 + 8 + 12;
    struct Case
    {
        const char *what;
        size_t at;
        uint64_t value;
        size_t width;
    };
    const Case cases[] = {
        {"top pc == instruction count", w0_top, ninstrs, 4},
        {"bottom pc past the kernel", w0 + 8, 0x7fffffff, 4},
        {"reconvergence pc past the kernel", w0_top + 4, ninstrs + 3, 4},
        {"partial-warp mask names a dead lane", w1 + 16, 0x1ff, 4},
        {"partial-warp mask of lane 31", w1 + 16, 0x80000000u, 4},
        {"empty mask", w0_top + 8, 0, 4},
        {"barrier flag 2", w1 + 8 + 12, 2, 1},
        {"CTA id outside the grid", cta1, 2, 4},
        {"CTA y outside the grid", cta1 + 4, 1, 4},
    };
    for (const Case &c : cases) {
        std::vector<uint8_t> bad = good;
        writeLe(bad, c.at, c.value, c.width);
        writeFile(bad_path, bad);
        try {
            auto ctx = partialWarpContext(cuda::SimMode::Functional);
            chkpt::CheckpointLoader loader(*ctx, bad_path);
            ADD_FAILURE() << c.what << ": accepted at load";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(bad_path), std::string::npos)
                << c.what << ": error does not name the checkpoint: "
                << e.what();
        }
    }
}

/**
 * Both CTAs restored with every warp parked at the bar.sync they just
 * executed: the barrier is complete but not yet released, the state the
 * timing model holds between the last arrival and the next cycle. The
 * timing model must release it when it installs the CTA; if it waited for
 * an arrival or exit that never comes, the run would stall until the
 * watchdog panics.
 */
TEST(Checkpoint, TimingResumeOfParkedWarpsMatchesStraightRun)
{
    mlgs::test::ScopedTmpDir tmp;
    const std::string path = tmp.file("parked.ckpt");

    std::vector<uint32_t> want;
    {
        auto ctx = partialWarpContext(cuda::SimMode::Functional);
        want = runPartialWarp(*ctx);
    }
    // Nine instructions per warp end at the bar.sync.
    {
        auto ctx = partialWarpContext(cuda::SimMode::Functional);
        chkpt::CheckpointConfig cfg;
        cfg.kernel_x = 0;
        cfg.cta_m = 0;
        cfg.cta_t = 1;
        cfg.instr_y = 9;
        cfg.path = path;
        chkpt::CheckpointWriter writer(*ctx, cfg);
        runPartialWarp(*ctx);
        ASSERT_TRUE(writer.reached());
    }
    std::vector<uint8_t> file;
    {
        std::ifstream f(path, std::ios::binary);
        file.assign(std::istreambuf_iterator<char>(f),
                    std::istreambuf_iterator<char>());
    }
    // The functional writer releases a completed barrier before it stops,
    // so the file holds the warps just past it; park them again.
    for (const uint32_t cta_x : {0u, 1u}) {
        const size_t cta = ctaRecordOffset(file, cta_x);
        for (unsigned w = 0; w < 2; w++) {
            const size_t rec = warpRecordOffset(file, cta, w);
            ASSERT_EQ(readLe(file, rec, 8), 1u) << "one SIMT entry";
            const size_t flag = rec + 8 + 12;
            ASSERT_EQ(file[flag], 0u) << "the writer left the barrier set";
            file[flag] = 1;
        }
    }
    writeFile(path, file);

    for (const auto mode :
         {cuda::SimMode::Functional, cuda::SimMode::Performance}) {
        auto ctx = partialWarpContext(mode);
        chkpt::CheckpointLoader loader(*ctx, path);
        EXPECT_EQ(runPartialWarp(*ctx), want) << "mode " << int(mode);
    }
}

// ---- oracle ----

TEST(Oracle, CorrelationTableIsSane)
{
    const unsigned n = 4096;
    std::vector<float> host(n, 1.25f);

    auto runLog = [&](cuda::SimMode mode) {
        cuda::ContextOptions opts;
        opts.mode = mode;
        opts.gpu.num_cores = 2;
        cuda::Context ctx(opts);
        ctx.loadModule(kScale, "scale.ptx");
        ctx.loadModule(kRingShift, "ring.ptx");
        const addr_t src = ctx.malloc(n * 4);
        const addr_t dst = ctx.malloc(n * 4);
        ctx.memcpyH2D(src, host.data(), n * 4);
        runApp(ctx, src, dst, n);
        return ctx.launchLog();
    };

    const auto flog = runLog(cuda::SimMode::Functional);
    const auto plog = runLog(cuda::SimMode::Performance);

    oracle::HwOracle orc(oracle::HwSpec::gtx1050());
    const auto rows = orc.correlate(flog, plog);
    ASSERT_EQ(rows.size(), 2u); // two distinct kernels
    for (const auto &row : rows) {
        EXPECT_GT(row.hw_cycles, 0.0);
        EXPECT_GT(row.sim_cycles, 0.0);
        EXPECT_GT(row.relative(), 0.0);
    }
    const double overall = oracle::HwOracle::overallRelative(rows);
    EXPECT_GT(overall, 1.0);
    EXPECT_LT(overall, 100000.0);
}

} // namespace
