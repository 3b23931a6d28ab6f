/**
 * @file
 * Semantic contract of the compiled micro-op executor (src/func/compiled/),
 * the only functional execution path. For every opcode class:
 *
 *  - the batch loop (runWarp) and the per-step path (stepWarp, which the
 *    timing model drives; forced here by attaching a SiteProfiler, exactly
 *    as production runs do) must produce bitwise-identical register files,
 *    memory images and all 12 FuncStats fields, so the batch loop's own
 *    accounting stays pinned;
 *  - where the independent scalar reference (difftest::RefExec, which
 *    shares no code with src/func) supports the kernel's ops, registers and
 *    memory must match it bitwise. RefExec has no atom, red or tex, so
 *    those cases check fixed expected values instead.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>

#include "difftest/ref_exec.h"
#include "func/compiled/exec.h"
#include "func/site_profiler.h"
#include "func/warp_stream.h"
#include "sim_test_util.h"

using namespace mlgs;
using namespace mlgs::test;

namespace
{

/** Final architectural state of one run. */
struct Image
{
    std::vector<uint8_t> out;
    std::vector<std::vector<uint64_t>> regs; ///< [thread][reg] raw cells
    func::FuncStats stats;
    addr_t in_addr = 0, out_addr = 0; ///< where the buffers were placed
};

/** (.param .u64 in, .param .u64 out) or just (.param .u64 out). */
ParamPack
kernelParams(const ptx::KernelDef &k, const Image &img)
{
    ParamPack p;
    if (k.findParam("in"))
        p.add<uint64_t>(img.in_addr);
    p.add<uint64_t>(img.out_addr);
    return p;
}

const ptx::KernelDef &
findKernel(const ptx::Module &m, const std::string &kernel)
{
    const auto *k = m.findKernel(kernel);
    MLGS_REQUIRE(k, "kernel not found: ", kernel);
    return *k;
}

/**
 * Run `kernel` on the compiled executor, CTA by CTA. With `step` set a
 * SiteProfiler is attached, which moves the engine off the batch loop onto
 * per-instruction stepWarp. Buffers are placed by a fresh allocator, so
 * addresses match across runs.
 */
Image
runOne(bool step, const char *src, const std::string &kernel, Dim3 grid,
       Dim3 block, const std::vector<uint8_t> &in, size_t out_bytes)
{
    MiniGpu gpu;
    func::SiteProfiler prof;
    if (step)
        gpu.exec.setSiteProfiler(&prof);
    const ptx::Module m = ptx::parseModule(src, "compiled_exec.ptx");
    const ptx::KernelDef &k = findKernel(m, kernel);

    Image img;
    if (!in.empty())
        img.in_addr = gpu.upload(in.data(), in.size());
    img.out_addr = gpu.alloc.alloc(out_bytes);
    gpu.mem.memset(img.out_addr, 0, out_bytes);

    func::LaunchEnv env;
    env.kernel = &k;
    env.params = kernelParams(k, img).bytes();
    env.symbols = &gpu.symbols;

    const unsigned tpc = unsigned(block.count());
    for (uint64_t c = 0; c < grid.count(); c++) {
        auto cta = gpu.engine.makeCta(env, grid, block, c);
        const bool done =
            gpu.engine.runCta(*cta, env, UINT64_MAX, &img.stats);
        EXPECT_TRUE(done);
        for (unsigned t = 0; t < tpc; t++) {
            const auto regs = cta->regs(t);
            std::vector<uint64_t> cells(regs.size());
            static_assert(sizeof(ptx::RegVal) == 8, "RegVal is a 64-bit cell");
            std::memcpy(cells.data(), regs.data(), regs.size() * 8);
            img.regs.push_back(std::move(cells));
        }
    }
    img.out = gpu.download<uint8_t>(img.out_addr, out_bytes);
    return img;
}

/** The same kernel on RefExec, over the buffer placement of `run`. */
Image
runRef(const char *src, const std::string &kernel, Dim3 grid, Dim3 block,
       const std::vector<uint8_t> &in, const Image &run)
{
    const ptx::Module m = ptx::parseModule(src, "compiled_exec.ptx");
    const ptx::KernelDef &k = findKernel(m, kernel);
    Image img;
    img.out.assign(run.out.size(), 0);
    std::vector<uint8_t> rin = in;
    std::vector<difftest::RefBuffer> bufs = {{run.out_addr, &img.out}};
    if (!in.empty())
        bufs.push_back({run.in_addr, &rin});
    difftest::RefExec ref(k, grid, block, kernelParams(k, run).bytes(),
                          std::move(bufs));
    ref.run();
    for (uint64_t c = 0; c < ref.numCtas(); c++)
        for (unsigned t = 0; t < ref.threadsPerCta(); t++)
            img.regs.push_back(ref.threadRegs(unsigned(c), t));
    return img;
}

/** Registers and memory must agree bitwise. */
void
expectStateEqual(const Image &ref, const Image &cmp, const char *what)
{
    EXPECT_EQ(ref.out, cmp.out) << what << ": memory image diverged";
    EXPECT_EQ(ref.regs.size(), cmp.regs.size()) << what;
    for (size_t t = 0; t < std::min(ref.regs.size(), cmp.regs.size()); t++) {
        EXPECT_EQ(ref.regs[t].size(), cmp.regs[t].size())
            << what << ": thread " << t;
        if (ref.regs[t] != cmp.regs[t]) {
            for (size_t r = 0;
                 r < std::min(ref.regs[t].size(), cmp.regs[t].size()); r++)
                EXPECT_EQ(ref.regs[t][r], cmp.regs[t][r])
                    << what << ": thread " << t << " reg " << r;
        }
    }
}

/** Every FuncStats counter must agree — the compiled batch loop keeps its
 *  own accounting and must not drift from the per-step path. */
void
expectStatsEqual(const func::FuncStats &a, const func::FuncStats &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.thread_instructions, b.thread_instructions);
    EXPECT_EQ(a.alu, b.alu);
    EXPECT_EQ(a.sfu, b.sfu);
    EXPECT_EQ(a.mem, b.mem);
    EXPECT_EQ(a.global_ld_bytes, b.global_ld_bytes);
    EXPECT_EQ(a.global_st_bytes, b.global_st_bytes);
    EXPECT_EQ(a.shared_accesses, b.shared_accesses);
    EXPECT_EQ(a.atomics, b.atomics);
    EXPECT_EQ(a.barriers, b.barriers);
    EXPECT_EQ(a.flops, b.flops);
    EXPECT_EQ(a.shared_races, b.shared_races);
}

/** Batch vs step: state and stats bitwise equal; returns the batch image. */
Image
expectPathsMatch(const char *src, const std::string &kernel, Dim3 grid,
                 Dim3 block, const std::vector<uint8_t> &in, size_t out_bytes)
{
    const Image batch = runOne(false, src, kernel, grid, block, in, out_bytes);
    const Image step = runOne(true, src, kernel, grid, block, in, out_bytes);
    expectStateEqual(batch, step, "batch vs step");
    expectStatsEqual(batch.stats, step.stats);
    return batch;
}

/** expectPathsMatch, plus bitwise agreement with RefExec. */
Image
expectAllMatch(const char *src, const std::string &kernel, Dim3 grid,
               Dim3 block, const std::vector<uint8_t> &in, size_t out_bytes)
{
    const Image batch =
        expectPathsMatch(src, kernel, grid, block, in, out_bytes);
    expectStateEqual(runRef(src, kernel, grid, block, in, batch), batch,
                     "RefExec vs compiled");
    return batch;
}

template <typename T>
std::vector<uint8_t>
asBytes(const std::vector<T> &v)
{
    std::vector<uint8_t> b(v.size() * sizeof(T));
    std::memcpy(b.data(), v.data(), b.size());
    return b;
}

// ---- integer arithmetic, shifts, min/max, bit ops ----

TEST(CompiledExec, IntegerArithMatchesInterp)
{
    const char *src = R"(
.visible .entry intarith(.param .u64 in, .param .u64 out)
{
    .reg .u64 %rd<6>;
    .reg .u32 %r<16>;
    .reg .s32 %s<16>;
    ld.param.u64 %rd1, [in];
    ld.param.u64 %rd2, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd3, %r1, 8;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.u32 %r2, [%rd4];
    ld.global.u32 %r3, [%rd4+4];
    mov.u32 %r15, 0;

    add.u32 %r4, %r2, %r3;
    sub.u32 %r5, %r2, %r3;
    mul.lo.u32 %r6, %r2, %r3;
    mad.lo.u32 %r7, %r2, %r3, %r4;
    and.b32 %r8, %r2, %r3;
    or.b32  %r9, %r2, %r3;
    xor.b32 %r10, %r2, %r3;
    shl.b32 %r11, %r2, %r1;
    shr.u32 %r12, %r2, %r1;
    cvt.s32.s64 %s1, %rd3;
    shr.s32 %s2, %s1, %r1;
    min.u32 %r13, %r2, %r3;
    max.u32 %r14, %r2, %r3;
    cvt.u32.u64 %r15, %rd3;
    mov.s32 %s3, -2147483648;
    mov.s32 %s4, 3;
    div.s32 %s5, %s3, %s4;
    rem.s32 %s6, %s3, %s4;
    min.s32 %s7, %s3, %s4;
    max.s32 %s8, %s3, %s4;
    popc.b32 %r15, %r2;
    clz.b32 %s9, %r3;
    brev.b32 %s10, %r2;
    mul.wide.u32 %rd5, %r2, %r3;
    mul.wide.s32 %rd3, %s3, %s4;

    mul.wide.u32 %rd3, %r1, 4;
    add.u64 %rd4, %rd2, %rd3;
    add.u32 %r4, %r4, %r5;
    add.u32 %r4, %r4, %r6;
    add.u32 %r4, %r4, %r7;
    xor.b32 %r4, %r4, %r8;
    xor.b32 %r4, %r4, %r9;
    xor.b32 %r4, %r4, %r10;
    add.u32 %r4, %r4, %r11;
    add.u32 %r4, %r4, %r12;
    add.u32 %r4, %r4, %r13;
    add.u32 %r4, %r4, %r14;
    add.u32 %r4, %r4, %r15;
    st.global.u32 [%rd4], %r4;
    ret;
}
)";
    std::vector<uint32_t> in;
    const uint32_t interesting[] = {0u, 1u, 0xffffffffu, 0x80000000u,
                                    0x7fffffffu, 3u, 31u, 32u};
    for (unsigned t = 0; t < 32; t++) {
        in.push_back(interesting[t % 8]);
        in.push_back(interesting[(t / 2 + 3) % 8]);
    }
    expectAllMatch(src, "intarith", Dim3(1), Dim3(32), asBytes(in), 32 * 4);
}

// ---- float arithmetic: NaN canonicalization, signed zeros, fma, sfu ----

TEST(CompiledExec, FloatArithMatchesInterp)
{
    const char *src = R"(
.visible .entry floatarith(.param .u64 in, .param .u64 out)
{
    .reg .u64 %rd<6>;
    .reg .u32 %r<4>;
    .reg .f32 %f<18>;
    ld.param.u64 %rd1, [in];
    ld.param.u64 %rd2, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd3, %r1, 8;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.f32 %f1, [%rd4];
    ld.global.f32 %f2, [%rd4+4];

    add.f32 %f3, %f1, %f2;
    sub.f32 %f4, %f1, %f2;
    mul.f32 %f5, %f1, %f2;
    min.f32 %f6, %f1, %f2;
    max.f32 %f7, %f1, %f2;
    fma.rn.f32 %f8, %f1, %f2, %f3;
    mad.f32 %f9, %f1, %f2, %f4;
    neg.f32 %f10, %f1;
    abs.f32 %f11, %f2;
    mov.f32 %f12, 0f40800000;
    div.f32 %f13, %f1, %f12;
    sqrt.approx.f32 %f14, %f11;
    rcp.approx.f32 %f15, %f12;
    lg2.approx.f32 %f16, %f12;
    ex2.approx.f32 %f17, %f16;

    mul.wide.u32 %rd3, %r1, 4;
    add.u64 %rd5, %rd2, %rd3;
    add.f32 %f3, %f3, %f4;
    add.f32 %f3, %f3, %f5;
    add.f32 %f3, %f3, %f6;
    add.f32 %f3, %f3, %f7;
    add.f32 %f3, %f3, %f8;
    add.f32 %f3, %f3, %f9;
    add.f32 %f3, %f3, %f10;
    add.f32 %f3, %f3, %f11;
    add.f32 %f3, %f3, %f13;
    add.f32 %f3, %f3, %f14;
    add.f32 %f3, %f3, %f15;
    add.f32 %f3, %f3, %f17;
    st.global.f32 [%rd5], %f3;
    ret;
}
)";
    std::vector<float> in;
    const float interesting[] = {0.0f,
                                 -0.0f,
                                 1.0f,
                                 -1.5f,
                                 std::numeric_limits<float>::infinity(),
                                 -std::numeric_limits<float>::infinity(),
                                 std::numeric_limits<float>::quiet_NaN(),
                                 1.000244140625f};
    for (unsigned t = 0; t < 32; t++) {
        in.push_back(interesting[t % 8]);
        in.push_back(interesting[(t / 3 + 5) % 8]);
    }
    expectAllMatch(src, "floatarith", Dim3(1), Dim3(32), asBytes(in),
                    32 * 4);
}

TEST(CompiledExec, MinMaxNanAndSignedZero)
{
    // min/max must be deterministic on NaN (canonical NaN result) and order
    // -0 < +0 on both paths and in RefExec.
    const char *src = R"(
.visible .entry minmax(.param .u64 out)
{
    .reg .u64 %rd<2>;
    .reg .f32 %f<8>;
    ld.param.u64 %rd1, [out];
    mov.f32 %f1, 0f7FC00000;
    mov.f32 %f2, 0f3F800000;
    min.f32 %f3, %f1, %f2;
    max.f32 %f4, %f2, %f1;
    st.global.f32 [%rd1+0], %f3;
    st.global.f32 [%rd1+4], %f4;
    mov.f32 %f5, 0f80000000;
    mov.f32 %f6, 0f00000000;
    min.f32 %f7, %f5, %f6;
    st.global.f32 [%rd1+8], %f7;
    max.f32 %f7, %f5, %f6;
    st.global.f32 [%rd1+12], %f7;
    ret;
}
)";
    const Image img = expectAllMatch(src, "minmax", Dim3(1), Dim3(1), {},
                                      4 * 4);
    uint32_t w[4];
    std::memcpy(w, img.out.data(), 16);
    EXPECT_EQ(w[2], 0x80000000u); // min(-0, +0) = -0
    EXPECT_EQ(w[3], 0x00000000u); // max(-0, +0) = +0
}

// ---- cvt rounding and f16 round trips ----

TEST(CompiledExec, CvtRoundingMatchesInterp)
{
    const char *src = R"(
.visible .entry cvts(.param .u64 in, .param .u64 out)
{
    .reg .u64 %rd<6>;
    .reg .u32 %r<4>;
    .reg .s32 %s<6>;
    .reg .f32 %f<6>;
    .reg .f16 %h<2>;
    ld.param.u64 %rd1, [in];
    ld.param.u64 %rd2, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd3, %r1, 4;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.f32 %f1, [%rd4];

    cvt.rzi.s32.f32 %s1, %f1;
    cvt.rni.s32.f32 %s2, %f1;
    cvt.rn.f32.s32 %f2, %s1;
    cvt.rn.f16.f32 %h1, %f1;
    cvt.f32.f16 %f3, %h1;
    cvt.s64.s32 %rd5, %s2;
    cvt.u32.s64 %r2, %rd5;

    mul.wide.u32 %rd3, %r1, 16;
    add.u64 %rd4, %rd2, %rd3;
    st.global.s32 [%rd4+0], %s1;
    st.global.s32 [%rd4+4], %s2;
    st.global.f32 [%rd4+8], %f3;
    st.global.u32 [%rd4+12], %r2;
    ret;
}
)";
    std::vector<float> in = {0.5f,  1.5f,   2.5f,  -0.5f, -1.5f, -2.5f,
                             0.49f, -0.49f, 3.7f,  -3.7f, 0.0f,  -0.0f,
                             1e9f,  -1e9f,  65504.0f, 1.0009765625f};
    expectAllMatch(src, "cvts", Dim3(1), Dim3(16), asBytes(in), 16 * 16);
}

// ---- bfe/bfi bit-field ops ----

TEST(CompiledExec, BfeBfiMatchesInterp)
{
    const char *src = R"(
.visible .entry bitfield(.param .u64 in, .param .u64 out)
{
    .reg .u64 %rd<6>;
    .reg .u32 %r<8>;
    .reg .s32 %s<4>;
    ld.param.u64 %rd1, [in];
    ld.param.u64 %rd2, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd3, %r1, 8;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.u32 %r2, [%rd4];
    ld.global.u32 %r3, [%rd4+4];

    and.b32 %r4, %r3, 31;
    shr.u32 %r5, %r3, 5;
    and.b32 %r5, %r5, 31;
    bfe.u32 %r6, %r2, %r4, %r5;
    cvt.s32.s64 %s1, %rd3;
    bfe.s32 %s2, %r2, %r4, %r5;
    bfi.b32 %r7, %r2, %r3, %r4, %r5;

    mul.wide.u32 %rd3, %r1, 12;
    add.u64 %rd5, %rd2, %rd3;
    st.global.u32 [%rd5+0], %r6;
    st.global.s32 [%rd5+4], %s2;
    st.global.u32 [%rd5+8], %r7;
    ret;
}
)";
    std::vector<uint32_t> in;
    for (unsigned t = 0; t < 32; t++) {
        in.push_back(0xf0f0a5c3u * (t + 1));
        in.push_back(t * 37u + (t << 7));
    }
    expectAllMatch(src, "bitfield", Dim3(1), Dim3(32), asBytes(in), 32 * 12);
}

// ---- shared memory + bar.sync tree reduction ----

TEST(CompiledExec, SharedReductionMatchesInterp)
{
    const char *src = R"(
.visible .entry reduce(.param .u64 in, .param .u64 out)
{
    .reg .u64 %rd<8>;
    .reg .u32 %r<8>;
    .reg .f32 %f<4>;
    .reg .pred %p<3>;
    .shared .align 4 .b8 sdata[256];
    ld.param.u64 %rd1, [in];
    ld.param.u64 %rd2, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd3, %r1, 4;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.f32 %f1, [%rd4];
    mov.u64 %rd5, sdata;
    add.u64 %rd6, %rd5, %rd3;
    st.shared.f32 [%rd6], %f1;
    bar.sync 0;
    mov.u32 %r2, 32;
LOOP:
    shr.u32 %r2, %r2, 1;
    setp.eq.u32 %p1, %r2, 0;
    @%p1 bra DONE;
    setp.ge.u32 %p2, %r1, %r2;
    @%p2 bra SKIP;
    add.u32 %r3, %r1, %r2;
    mul.wide.u32 %rd7, %r3, 4;
    add.u64 %rd7, %rd5, %rd7;
    ld.shared.f32 %f2, [%rd7];
    ld.shared.f32 %f1, [%rd6];
    add.f32 %f1, %f1, %f2;
    st.shared.f32 [%rd6], %f1;
SKIP:
    bar.sync 0;
    bra LOOP;
DONE:
    setp.ne.u32 %p2, %r1, 0;
    @%p2 bra EXIT;
    ld.shared.f32 %f3, [%rd5];
    st.global.f32 [%rd2], %f3;
EXIT:
    ret;
}
)";
    std::vector<float> in;
    for (unsigned t = 0; t < 64; t++)
        in.push_back(float(t) * 0.25f - 3.0f);
    expectAllMatch(src, "reduce", Dim3(2), Dim3(32), asBytes(in), 4);
}

// ---- global vector loads/stores ----

TEST(CompiledExec, VectorLdStMatchesInterp)
{
    const char *src = R"(
.visible .entry vecldst(.param .u64 in, .param .u64 out)
{
    .reg .u64 %rd<6>;
    .reg .u32 %r<4>;
    .reg .f32 %f<6>;
    ld.param.u64 %rd1, [in];
    ld.param.u64 %rd2, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd3, %r1, 8;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.v2.f32 {%f1, %f2}, [%rd4];
    add.f32 %f3, %f1, %f2;
    sub.f32 %f4, %f1, %f2;
    add.u64 %rd5, %rd2, %rd3;
    st.global.v2.f32 [%rd5], {%f3, %f4};
    ret;
}
)";
    std::vector<float> in;
    for (unsigned t = 0; t < 32; t++) {
        in.push_back(float(t) * 1.5f);
        in.push_back(float(t) - 16.5f);
    }
    // Every sum and difference here is exact in f32.
    const Image img = expectAllMatch(src, "vecldst", Dim3(1), Dim3(16),
                                     asBytes(in), 16 * 8);
    std::vector<float> out(16 * 2);
    std::memcpy(out.data(), img.out.data(), out.size() * 4);
    for (unsigned t = 0; t < 16; t++) {
        EXPECT_EQ(out[2 * t], in[2 * t] + in[2 * t + 1]) << "thread " << t;
        EXPECT_EQ(out[2 * t + 1], in[2 * t] - in[2 * t + 1]) << "thread " << t;
    }
    EXPECT_EQ(img.stats.global_ld_bytes, 16u * 8);
    EXPECT_EQ(img.stats.global_st_bytes, 16u * 8);
}

// ---- divergent control flow: data-dependent diamond, nested ----

TEST(CompiledExec, DivergentDiamondMatchesInterp)
{
    const char *src = R"(
.visible .entry diamond(.param .u64 in, .param .u64 out)
{
    .reg .u64 %rd<6>;
    .reg .u32 %r<8>;
    .reg .pred %p<4>;
    ld.param.u64 %rd1, [in];
    ld.param.u64 %rd2, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd3, %r1, 4;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.u32 %r2, [%rd4];
    mov.u32 %r3, 0;
    and.b32 %r4, %r2, 1;
    setp.eq.u32 %p1, %r4, 0;
    @%p1 bra EVEN;
    add.u32 %r3, %r3, 100;
    and.b32 %r4, %r2, 2;
    setp.eq.u32 %p2, %r4, 0;
    @%p2 bra JOIN1;
    add.u32 %r3, %r3, 1000;
JOIN1:
    bra JOIN;
EVEN:
    add.u32 %r3, %r3, 7;
JOIN:
    add.u32 %r3, %r3, %r2;
    add.u64 %rd5, %rd2, %rd3;
    st.global.u32 [%rd5], %r3;
    ret;
}
)";
    std::vector<uint32_t> in;
    for (unsigned t = 0; t < 64; t++)
        in.push_back(t * 2654435761u);
    expectAllMatch(src, "diamond", Dim3(2), Dim3(32), asBytes(in), 64 * 4);
}

// ---- atomics: global add contention + cas, shared add ----

TEST(CompiledExec, AtomicsMatchInterp)
{
    const char *src = R"(
.visible .entry atomics(.param .u64 out)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<6>;
    .reg .pred %p<2>;
    .shared .align 4 .b8 scount[4];
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    atom.global.add.u32 %r2, [%rd1], 1;
    mov.u64 %rd2, scount;
    atom.shared.add.u32 %r3, [%rd2], %r1;
    bar.sync 0;
    setp.ne.u32 %p1, %r1, 0;
    @%p1 bra SKIP;
    ld.shared.u32 %r4, [%rd2];
    st.global.u32 [%rd1+4], %r4;
SKIP:
    ret;
}
.visible .entry atomics2(.param .u64 out)
{
    .reg .u64 %rd<2>;
    .reg .u32 %r<6>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, 0;
    mov.u32 %r2, 42;
    atom.global.cas.b32 %r3, [%rd1+8], %r1, %r2;
    ret;
}
)";
    // RefExec has no atom: check fixed values.
    const Image img = expectPathsMatch(src, "atomics", Dim3(2), Dim3(32), {},
                                       3 * 4);
    uint32_t w[3];
    std::memcpy(w, img.out.data(), 12);
    EXPECT_EQ(w[0], 64u);  // 64 threads atomically incremented slot 0
    EXPECT_EQ(w[1], 496u); // sum 0..31 per CTA
    EXPECT_EQ(img.stats.atomics, 64u); // global lanes; shared atom excluded
    EXPECT_EQ(img.stats.shared_accesses, 2u * (32 + 1));

    // cas: the first lane swaps 0 -> 42, every later lane sees 42 (old value
    // returned in %r3, memory unchanged).
    const Image cas = expectPathsMatch(src, "atomics2", Dim3(1), Dim3(4), {},
                                       3 * 4);
    std::memcpy(w, cas.out.data(), 12);
    EXPECT_EQ(w[2], 42u);
    EXPECT_EQ(cas.stats.atomics, 4u);
}

// ---- selp / setp variants including float NaN compares ----

TEST(CompiledExec, SetpSelpMatchesInterp)
{
    const char *src = R"(
.visible .entry selects(.param .u64 in, .param .u64 out)
{
    .reg .u64 %rd<8>;
    .reg .u32 %r<8>;
    .reg .s32 %s<4>;
    .reg .f32 %f<4>;
    .reg .pred %p<8>;
    ld.param.u64 %rd1, [in];
    ld.param.u64 %rd2, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd3, %r1, 8;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.f32 %f1, [%rd4];
    ld.global.f32 %f2, [%rd4+4];
    ld.global.u32 %r2, [%rd4];
    ld.global.s32 %s1, [%rd4+4];

    setp.lt.f32 %p1, %f1, %f2;
    setp.ge.f32 %p2, %f1, %f2;
    setp.eq.f32 %p3, %f1, %f1;
    setp.lt.s32 %p4, %s1, 0;
    setp.hi.u32 %p5, %r2, 128;
    mov.u32 %r3, 1;
    mov.u32 %r4, 2;
    selp.u32 %r5, %r3, %r4, %p1;
    selp.u32 %r6, %r3, %r4, %p2;
    selp.u32 %r7, %r3, %r4, %p3;
    mov.u64 %rd5, 11;
    mov.u64 %rd6, 22;
    selp.u64 %rd7, %rd5, %rd6, %p4;
    selp.u32 %r3, %r3, %r4, %p5;

    mul.wide.u32 %rd3, %r1, 4;
    add.u64 %rd4, %rd2, %rd3;
    add.u32 %r5, %r5, %r6;
    add.u32 %r5, %r5, %r7;
    add.u32 %r5, %r5, %r3;
    cvt.u32.u64 %r6, %rd7;
    add.u32 %r5, %r5, %r6;
    st.global.u32 [%rd4], %r5;
    ret;
}
)";
    std::vector<float> in;
    const float vals[] = {0.0f, -0.0f, 1.0f, -2.0f,
                          std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -1e-20f, 3.5f};
    for (unsigned t = 0; t < 32; t++) {
        in.push_back(vals[t % 8]);
        in.push_back(vals[(t / 2 + 1) % 8]);
    }
    expectAllMatch(src, "selects", Dim3(1), Dim3(32), asBytes(in), 32 * 4);
}

TEST(CompiledExec, Setp32EveryComparisonMatchesInterp)
{
    // Every comparison the 32-bit integer setp lane loop picks per uop:
    // signed and unsigned orderings, bit-type equality, and the unsigned
    // Lo/Ls/Hi/Hs forms on a signed type. Bit i of the output word is the
    // i-th predicate.
    struct Cmp
    {
        const char *op, *a, *b;
    };
    const Cmp cmps[] = {
        {"eq.s32", "%s1", "%s2"}, {"ne.s32", "%s1", "%s2"},
        {"lt.s32", "%s1", "%s2"}, {"le.s32", "%s1", "%s2"},
        {"gt.s32", "%s1", "%s2"}, {"ge.s32", "%s1", "%s2"},
        {"lt.u32", "%r2", "%r3"}, {"le.u32", "%r2", "%r3"},
        {"gt.u32", "%r2", "%r3"}, {"ge.u32", "%r2", "%r3"},
        {"lo.u32", "%r2", "%r3"}, {"ls.u32", "%r2", "%r3"},
        {"hi.u32", "%r2", "%r3"}, {"hs.u32", "%r2", "%r3"},
        {"lo.s32", "%s1", "%s2"}, {"hi.s32", "%s1", "%s2"},
        {"eq.b32", "%b1", "%b2"}, {"ne.b32", "%b1", "%b2"},
        {"lt.s32", "%s1", "-1"},  {"hs.u32", "%r2", "7"},
    };
    std::string src = R"(
.visible .entry cmps(.param .u64 in, .param .u64 out)
{
    .reg .u64 %rd<6>;
    .reg .u32 %r<8>;
    .reg .s32 %s<4>;
    .reg .b32 %b<4>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [in];
    ld.param.u64 %rd2, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd3, %r1, 8;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.u32 %r2, [%rd4];
    ld.global.u32 %r3, [%rd4+4];
    ld.global.s32 %s1, [%rd4];
    ld.global.s32 %s2, [%rd4+4];
    ld.global.b32 %b1, [%rd4];
    ld.global.b32 %b2, [%rd4+4];
    mov.u32 %r4, 0;
)";
    unsigned bit = 0;
    for (const Cmp &c : cmps) {
        src += std::string("    setp.") + c.op + " %p1, " + c.a + ", " + c.b +
               ";\n    selp.u32 %r5, " + std::to_string(1u << bit++) +
               ", 0, %p1;\n    or.b32 %r4, %r4, %r5;\n";
    }
    src += R"(
    mul.wide.u32 %rd3, %r1, 4;
    add.u64 %rd5, %rd2, %rd3;
    st.global.u32 [%rd5], %r4;
    ret;
}
)";
    const int32_t vals[] = {0, 1, -1, 7, INT32_MIN, INT32_MAX, -7, 1 << 16};
    std::vector<int32_t> in;
    for (unsigned t = 0; t < 32; t++) {
        in.push_back(vals[t % 8]);
        in.push_back(vals[(t / 4 + t) % 8]);
    }
    expectAllMatch(src.c_str(), "cmps", Dim3(1), Dim3(32), asBytes(in),
                   32 * 4);
}

TEST(CompiledExec, StepResultResetBetweenSteps)
{
    // One caller-owned record passes through every kind of step; after each
    // step it must describe that step only.
    const char *src = R"(
.visible .entry steps(.param .u64 out)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<4>;
    .shared .align 4 .b8 sbuf[128];
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.u32 %r2, [%rd3];
    mov.u64 %rd2, sbuf;
    st.shared.u32 [%rd2], %r2;
    add.u32 %r3, %r2, 1;
    bar.sync 0;
    ret;
}
)";
    MiniGpu gpu;
    const ptx::Module m = ptx::parseModule(src, "compiled_exec.ptx");
    const ptx::KernelDef &k = findKernel(m, "steps");
    Image img;
    img.out_addr = gpu.alloc.alloc(32 * 4);
    func::LaunchEnv env;
    env.kernel = &k;
    env.params = kernelParams(k, img).bytes();
    env.symbols = &gpu.symbols;
    auto cta = gpu.engine.makeCta(env, Dim3(1), Dim3(32), 0);

    func::WarpStepResult res;
    const auto step = [&](const char *what) {
        gpu.exec.stepWarp(*cta, 0, env, res);
        SCOPED_TRACE(what);
        return res.pc;
    };
    for (const char *what : {"ld.param", "mov", "mul.wide", "add.u64"}) {
        step(what);
        EXPECT_TRUE(res.accesses.empty()) << what;
        EXPECT_EQ(res.shared_accesses, 0u) << what;
        EXPECT_FALSE(res.barrier || res.exited) << what;
    }

    EXPECT_EQ(step("ld.global"), 4u);
    EXPECT_EQ(res.active, kFullWarpMask);
    ASSERT_EQ(res.accesses.size(), 32u);
    for (unsigned lane = 0; lane < 32; lane++) {
        EXPECT_EQ(res.accesses[lane].addr, img.out_addr + 4 * lane);
        EXPECT_FALSE(res.accesses[lane].is_store);
    }
    const size_t capacity = res.accesses.capacity();

    for (const char *what : {"mov sbuf", "st.shared", "add.u32", "bar.sync"}) {
        step(what);
        EXPECT_TRUE(res.accesses.empty()) << what;
        EXPECT_EQ(res.accesses.capacity(), capacity) << what;
        EXPECT_EQ(res.shared_accesses,
                  std::string(what) == "st.shared" ? 32u : 0u)
            << what;
        EXPECT_EQ(res.barrier, std::string(what) == "bar.sync") << what;
        EXPECT_FALSE(res.exited) << what;
    }

    ASSERT_TRUE(cta->barrierComplete());
    cta->releaseBarrier();
    EXPECT_EQ(step("ret"), 9u);
    EXPECT_TRUE(res.exited);
    EXPECT_FALSE(res.barrier);
    EXPECT_TRUE(res.accesses.empty());
    EXPECT_EQ(res.shared_accesses, 0u);
    EXPECT_TRUE(cta->warpDone(0));
}

/** One issue record with its lines, for comparison and printing. */
struct FlatRecord
{
    uint32_t pc = 0;
    warp_mask_t active = 0;
    unsigned shared = 0;
    bool barrier = false, exited = false;
    std::vector<addr_t> loads, stores;

    bool operator==(const FlatRecord &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const FlatRecord &r)
{
    os << "pc " << r.pc << " active " << std::hex << r.active << " loads";
    for (const addr_t a : r.loads)
        os << " " << a;
    os << " stores";
    for (const addr_t a : r.stores)
        os << " " << a;
    return os << std::dec << " shared " << r.shared << " bar " << r.barrier
              << " exit " << r.exited;
}

std::vector<FlatRecord>
flatten(const func::IssueStream &s)
{
    std::vector<FlatRecord> out;
    for (const func::IssueRecord &r : s.recs) {
        const auto loads = s.loadLines(r), stores = s.storeLines(r);
        out.push_back({r.pc, r.active, r.shared_accesses, r.barrier, r.exited,
                       {loads.begin(), loads.end()},
                       {stores.begin(), stores.end()}});
    }
    return out;
}

/**
 * Every warp's issue records of a serial CTA-by-CTA run, warps interleaved
 * `chunk` instructions at a time. With `step` each record is a stepWarp
 * result coalesced by IssueStream::appendStep; otherwise runWarp's IssueSink
 * coalesces lane accesses as they run. The output buffer's bytes go to
 * `out`, the input buffer's address to `in_addr`.
 */
std::vector<std::vector<FlatRecord>>
issueRecords(bool step, const char *src, const std::string &kernel, Dim3 grid,
             Dim3 block, const std::vector<uint8_t> &in, size_t out_bytes,
             unsigned line_bytes, unsigned chunk, std::vector<uint8_t> *out,
             addr_t *in_addr)
{
    MiniGpu gpu;
    const ptx::Module m = ptx::parseModule(src, "compiled_exec.ptx");
    const ptx::KernelDef &k = findKernel(m, kernel);
    Image img;
    if (!in.empty())
        img.in_addr = gpu.upload(in.data(), in.size());
    img.out_addr = gpu.alloc.alloc(out_bytes);
    gpu.mem.memset(img.out_addr, 0, out_bytes);
    func::LaunchEnv env;
    env.kernel = &k;
    env.params = kernelParams(k, img).bytes();
    env.symbols = &gpu.symbols;

    std::vector<std::vector<FlatRecord>> warps;
    func::WarpStepResult res;
    for (uint64_t c = 0; c < grid.count(); c++) {
        auto cta = gpu.engine.makeCta(env, grid, block, c);
        std::vector<func::IssueStream> streams(cta->numWarps());
        while (!cta->allDone()) {
            for (unsigned w = 0; w < cta->numWarps(); w++) {
                const uint64_t limit = cta->warpInstrCount(w) + chunk;
                if (!step) {
                    func::IssueSink sink(streams[w], line_bytes);
                    func::compiled::runWarp(gpu.exec, *cta, w, env, limit,
                                            nullptr, &sink);
                    continue;
                }
                while (!cta->warpDone(w) && !cta->warpAtBarrier(w) &&
                       cta->warpInstrCount(w) < limit) {
                    gpu.exec.stepWarp(*cta, w, env, res);
                    streams[w].appendStep(res, line_bytes);
                }
            }
            if (cta->barrierComplete())
                cta->releaseBarrier();
        }
        for (const auto &s : streams)
            warps.push_back(flatten(s));
    }
    *out = gpu.download<uint8_t>(img.out_addr, out_bytes);
    *in_addr = img.in_addr;
    return warps;
}

/**
 * Detailed timing consumes runWarp's issue records in place of stepWarp's
 * results: record for record, pc, mask, shared lanes, barrier and exit flags
 * and the coalesced load and store lines (order included) must agree, for
 * line sizes where accesses straddle lines and with warps interleaved at
 * chunk boundaries that fall mid-block.
 */
TEST(CompiledExec, IssueRecordsMatchSteppedResults)
{
    const char *src = R"(
.visible .entry mixed(.param .u64 in, .param .u64 out)
{
    .reg .u64 %rd<10>;
    .reg .u32 %r<12>;
    .reg .f32 %f<6>;
    .reg .pred %p<3>;
    .shared .align 4 .b8 sbuf[256];
    ld.param.u64 %rd1, [in];
    ld.param.u64 %rd2, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd3, %r1, 37;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.u32 %r2, [%rd4+6];
    mul.wide.u32 %rd5, %r1, 8;
    add.u64 %rd6, %rd1, %rd5;
    ld.global.v2.f32 {%f1, %f2}, [%rd6];
    mov.u64 %rd7, sbuf;
    mul.wide.u32 %rd8, %r1, 4;
    add.u64 %rd8, %rd7, %rd8;
    st.shared.u32 [%rd8], %r2;
    bar.sync 0;
    xor.b32 %r3, %r1, 1;
    mul.wide.u32 %rd9, %r3, 4;
    add.u64 %rd9, %rd7, %rd9;
    ld.shared.u32 %r4, [%rd9];
    and.b32 %r5, %r1, 3;
    setp.eq.u32 %p1, %r5, 0;
    @%p1 bra SKIP;
    add.u32 %r4, %r4, %r2;
    atom.global.add.u32 %r6, [%rd2], %r5;
SKIP:
    mov.u32 %r7, 0;
LOOP:
    add.u32 %r7, %r7, 1;
    setp.lt.u32 %p2, %r7, %r5;
    @%p2 bra LOOP;
    add.f32 %f3, %f1, %f2;
    add.u64 %rd9, %rd2, %rd3;
    st.global.u32 [%rd9+4], %r4;
    st.global.f32 [%rd9+8], %f3;
    ret;
}
)";
    std::vector<uint32_t> in(64 * 10);
    for (unsigned i = 0; i < in.size(); i++)
        in[i] = i * 2654435761u;
    const size_t out_bytes = 64 * 37 + 16;
    for (const unsigned line : {32u, 128u}) {
        for (const unsigned chunk : {3u, 7u, 1000u}) {
            SCOPED_TRACE("line " + std::to_string(line) + " chunk " +
                         std::to_string(chunk));
            std::vector<uint8_t> out_step, out_run;
            addr_t in_addr = 0;
            const auto stepped = issueRecords(
                true, src, "mixed", Dim3(2), Dim3(64), asBytes(in),
                out_bytes, line, chunk, &out_step, &in_addr);
            const auto run = issueRecords(
                false, src, "mixed", Dim3(2), Dim3(64), asBytes(in),
                out_bytes, line, chunk, &out_run, &in_addr);
            EXPECT_EQ(out_step, out_run);
            ASSERT_EQ(stepped.size(), run.size());
            for (size_t w = 0; w < stepped.size(); w++) {
                ASSERT_EQ(stepped[w].size(), run[w].size()) << "warp " << w;
                for (size_t i = 0; i < stepped[w].size(); i++)
                    EXPECT_EQ(stepped[w][i], run[w][i])
                        << "warp " << w << " record " << i;
                EXPECT_TRUE(stepped[w].back().exited) << "warp " << w;
            }

            // The unaligned load (pc 5) in lane order: each lane's first
            // line, then the next line when its 4 bytes straddle into it.
            std::vector<addr_t> want;
            bool straddled = false;
            for (unsigned lane = 0; lane < 32; lane++) {
                const addr_t a = in_addr + 37 * lane + 6;
                const addr_t la = a & ~addr_t(line - 1);
                const addr_t lb = (a + 3) & ~addr_t(line - 1);
                straddled |= lb != la;
                for (const addr_t l : {la, lb})
                    if (std::find(want.begin(), want.end(), l) == want.end())
                        want.push_back(l);
            }
            EXPECT_TRUE(straddled);
            ASSERT_EQ(run[0][5].pc, 5u);
            EXPECT_EQ(run[0][5].loads, want);
        }
    }
}

// ---- warp-wide ld/st micro-ops in every execution mode ----

/** How a memory case runs: stepped, batched into FuncStats, or into a sink. */
enum class MemMode { Step, Stats, Sink };

const char *
memModeName(MemMode m)
{
    return m == MemMode::Step ? "stepWarp" : m == MemMode::Stats
                                                 ? "runWarp+FuncStats"
                                                 : "runWarp+IssueSink";
}

/**
 * One kernel `mem(.param .u64 in, .param .u64 out, ...)` and its data. The
 * buffers are placed by a fresh allocator in order in, out, fresh (`fresh`
 * is allocated but never written); `extra` gives the u64 parameters after
 * in and out from those three addresses.
 */
struct MemCase
{
    std::string src;
    Dim3 grid{2}, block{48};
    std::vector<uint8_t> in;
    size_t out_bytes = 0;
    size_t fresh_bytes = 0;
    std::function<std::vector<uint64_t>(addr_t, addr_t, addr_t)> extra;
    /** Runtime symbol bound to `in` (RefExec resolves none: not compared). */
    std::string in_symbol;
};

/** What one run of a MemCase leaves behind. */
struct MemRun
{
    std::vector<uint8_t> out;
    std::vector<std::vector<uint64_t>> regs; ///< [cta * threads + tid][reg]
    func::FuncStats stats;                   ///< Step and Stats modes
    std::vector<std::vector<FlatRecord>> records; ///< Step and Sink modes
    size_t new_pages = 0; ///< device pages the launch materialized
    addr_t in = 0, out_addr = 0, fresh = 0;
    std::vector<uint8_t> params;
};

/**
 * Run a MemCase CTA by CTA with the race shadow on, warps interleaved five
 * instructions at a time. Step mode also attaches a site profiler, as
 * production per-step runs do, and converts each step into an issue record.
 */
MemRun
runMem(MemMode mode, const MemCase &c)
{
    MiniGpu gpu;
    gpu.exec.setRaceCheck(true);
    func::SiteProfiler prof;
    if (mode == MemMode::Step)
        gpu.exec.setSiteProfiler(&prof);
    const ptx::Module m = ptx::parseModule(c.src, "mem_ops.ptx");
    const ptx::KernelDef &k = findKernel(m, "mem");

    MemRun run;
    run.in = gpu.upload(c.in.data(), c.in.size());
    if (!c.in_symbol.empty())
        gpu.symbols[c.in_symbol] = run.in;
    run.out_addr = gpu.alloc.alloc(c.out_bytes);
    gpu.mem.memset(run.out_addr, 0, c.out_bytes);
    if (c.fresh_bytes)
        run.fresh = gpu.alloc.alloc(c.fresh_bytes);
    ParamPack p;
    p.add<uint64_t>(run.in);
    p.add<uint64_t>(run.out_addr);
    if (c.extra)
        for (const uint64_t v : c.extra(run.in, run.out_addr, run.fresh))
            p.add<uint64_t>(v);
    run.params = p.bytes();

    func::LaunchEnv env;
    env.kernel = &k;
    env.params = run.params;
    env.symbols = &gpu.symbols;
    const ptx::Uop *uops =
        ptx::compiledProgram(k, ptx::LowerBugs{}).uops.data();
    const size_t pages = gpu.mem.pageCount();
    func::WarpStepResult res;
    for (uint64_t ci = 0; ci < c.grid.count(); ci++) {
        auto cta = gpu.engine.makeCta(env, c.grid, c.block, ci);
        cta->enableRaceCheck();
        std::vector<func::IssueStream> streams(cta->numWarps());
        for (unsigned rounds = 0; !cta->allDone(); rounds++) {
            MLGS_REQUIRE(rounds < 100000, "memory case does not finish");
            for (unsigned w = 0; w < cta->numWarps(); w++) {
                const uint64_t limit = cta->warpInstrCount(w) + 5;
                if (mode == MemMode::Stats) {
                    func::compiled::runWarp(gpu.exec, *cta, w, env, limit,
                                            &run.stats);
                } else if (mode == MemMode::Sink) {
                    func::IssueSink sink(streams[w], 32);
                    func::compiled::runWarp(gpu.exec, *cta, w, env, limit,
                                            nullptr, &sink);
                } else {
                    while (!cta->warpDone(w) && !cta->warpAtBarrier(w) &&
                           cta->warpInstrCount(w) < limit) {
                        gpu.exec.stepWarp(*cta, w, env, res);
                        run.stats.accumulate(res, uops[res.pc]);
                        streams[w].appendStep(res, 32);
                    }
                }
            }
            if (cta->barrierComplete()) {
                cta->releaseBarrier();
                run.stats.barriers++;
            }
        }
        if (const func::RaceShadow *rs = cta->raceShadow())
            run.stats.shared_races += rs->races().size();
        for (unsigned t = 0; t < unsigned(c.block.count()); t++) {
            const auto regs = cta->regs(t);
            std::vector<uint64_t> cells(regs.size());
            std::memcpy(cells.data(), regs.data(), regs.size() * 8);
            run.regs.push_back(std::move(cells));
        }
        if (mode != MemMode::Stats)
            for (const auto &s : streams)
                run.records.push_back(flatten(s));
    }
    run.new_pages = gpu.mem.pageCount() - pages;
    run.out = gpu.download<uint8_t>(run.out_addr, c.out_bytes);
    return run;
}

/** The same case on RefExec, over the placement and parameters of `run`. */
MemRun
refMem(const MemCase &c, const MemRun &run)
{
    const ptx::Module m = ptx::parseModule(c.src, "mem_ops.ptx");
    MemRun ref;
    ref.out.assign(c.out_bytes, 0);
    std::vector<uint8_t> in = c.in, fresh(c.fresh_bytes, 0);
    std::vector<difftest::RefBuffer> bufs = {{run.in, &in},
                                             {run.out_addr, &ref.out}};
    if (c.fresh_bytes)
        bufs.push_back({run.fresh, &fresh});
    difftest::RefExec ex(findKernel(m, "mem"), c.grid, c.block, run.params,
                         std::move(bufs));
    ex.run();
    for (uint64_t ci = 0; ci < ex.numCtas(); ci++)
        for (unsigned t = 0; t < ex.threadsPerCta(); t++)
            ref.regs.push_back(ex.threadRegs(unsigned(ci), t));
    return ref;
}

/** Run `c` in every mode and on RefExec; all must agree. Returns Step's. */
MemRun
expectMemModesAgree(const MemCase &c)
{
    const MemRun step = runMem(MemMode::Step, c);
    const MemRun stats = runMem(MemMode::Stats, c);
    const MemRun sink = runMem(MemMode::Sink, c);
    const auto image = [](const MemRun &r) {
        Image img;
        img.out = r.out;
        img.regs = r.regs;
        return img;
    };
    expectStateEqual(image(step), image(stats), "stepWarp vs runWarp+stats");
    expectStateEqual(image(step), image(sink), "stepWarp vs runWarp+sink");
    if (c.in_symbol.empty())
        expectStateEqual(image(refMem(c, step)), image(step),
                         "RefExec vs step");
    expectStatsEqual(step.stats, stats.stats);
    EXPECT_EQ(step.records, sink.records) << "issue records diverged";
    EXPECT_EQ(step.new_pages, stats.new_pages);
    EXPECT_EQ(step.new_pages, sink.new_pages);
    return step;
}

/** "%v<first>" or "{%v<first>, ...}" for a vec-`n` register list. */
std::string
vregs(unsigned first, unsigned n)
{
    if (n == 1)
        return "%v" + std::to_string(first);
    std::string s = "{";
    for (unsigned i = 0; i < n; i++) {
        s += i ? ", %v" : "%v";
        s += std::to_string(first + i);
    }
    return s + "}";
}

constexpr unsigned kMemThreads = 48; ///< one full and one partial warp
constexpr unsigned kMemCtas = 2;

/**
 * The matrix kernel for one space, element type and vector width. Its data
 * registers are .b64 cells holding lane-varying 64-bit patterns, so every
 * narrower load must leave the bytes above its element untouched. Three
 * sections repeat the space's loads and stores under a full mask, inside a
 * divergent branch (odd lanes skip) and under a guard (tid % 3 == 0).
 */
std::string
memKernel(const std::string &space, const std::string &type, unsigned esz,
          unsigned vec)
{
    const unsigned w = esz * vec;
    const unsigned ntot = kMemThreads * kMemCtas;
    const std::string ty = (vec > 1 ? ".v" + std::to_string(vec) : "") +
                           "." + type;
    const std::string sp = space == "generic" ? "" : "." + space;
    std::string k = R"(
.visible .entry mem(.param .u64 in, .param .u64 out,
                    .param .u64 pdata, .param .u64 p1, .param .u64 p2,
                    .param .u64 p3, .param .u64 p4, .param .u64 p5,
                    .param .u64 p6, .param .u64 p7)
{
    .reg .u64 %rd<24>;
    .reg .u32 %r<10>;
    .reg .b64 %v<32>;
    .reg .pred %p<4>;
    .shared .align 16 .b8 sbuf[)" + std::to_string(kMemThreads * w) + R"(];
    .local .align 16 .b8 lbuf[128];
    ld.param.u64 %rd1, [in];
    ld.param.u64 %rd2, [out];
    mov.u32 %r1, %tid.x;
    mov.u32 %r2, %ntid.x;
    mov.u32 %r3, %ctaid.x;
    mad.lo.u32 %r4, %r3, %r2, %r1;
    cvt.u64.u32 %rd3, %r1;
    mul.lo.u64 %rd4, %rd3, 72340172838076673;
    and.b32 %r5, %r1, 1;
    setp.ne.u32 %p1, %r5, 0;
    rem.u32 %r6, %r1, 3;
    setp.eq.u32 %p2, %r6, 0;
    mov.u64 %rd13, sbuf;
    mov.u64 %rd14, lbuf;
    mul.wide.u32 %rd5, %r1, )" + std::to_string(w) + R"(;
    add.u64 %rd15, %rd13, %rd5;
    add.u32 %r7, %r1, 1;
    rem.u32 %r7, %r7, %r2;
    mul.wide.u32 %rd6, %r7, )" + std::to_string(w) + R"(;
    add.u64 %rd16, %rd13, %rd6;
    rem.u32 %r8, %r1, )" + std::to_string(64 / w) + R"(;
    mul.wide.u32 %rd7, %r8, )" + std::to_string(w) + R"(;
    mov.u64 %rd8, pdata;
    add.u64 %rd17, %rd8, %rd7;
)";
    for (unsigned i = 0; i < 32; i++) {
        const uint64_t pattern = 0x8877665544332211ull * (i + 1) + i;
        k += "    mov.b64 %v" + std::to_string(i) + ", " +
             std::to_string(pattern) + ";\n    xor.b64 %v" +
             std::to_string(i) + ", %v" + std::to_string(i) + ", %rd4;\n";
    }
    for (unsigned s = 0; s < 3; s++) {
        const std::string S = std::to_string(s);
        const auto masked = [&](const std::string &text) {
            if (s == 0) {
                k += "    " + text + "\n";
            } else if (s == 2) {
                k += "    @%p2 " + text + "\n";
            } else {
                const std::string label = "SKIP_" + std::to_string(k.size());
                k += "    @%p1 bra " + label + ";\n    " + text + "\n" +
                     label + ":\n";
            }
        };
        const std::string dst0 = vregs(s * 8, vec), dst1 = vregs(s * 8 + 4, vec);
        const std::string src = vregs(24 + s, vec);
        // Per-lane global slots of this section: in (%rd9), out (%rd10).
        k += "    mul.wide.u32 %rd11, %r4, " + std::to_string(w) + ";\n" +
             "    add.u64 %rd11, %rd11, " + std::to_string(s * ntot * w) +
             ";\n    add.u64 %rd9, %rd1, %rd11;\n" +
             "    add.u64 %rd10, %rd2, %rd11;\n";
        if (space == "global") {
            masked("st.global" + ty + " [%rd10], " + src + ";");
            masked("ld.global" + ty + " " + dst0 + ", [%rd9];");
            masked("ld.global" + ty + " " + dst1 + ", [%rd10];");
        } else if (space == "const") {
            masked("ld.const" + ty + " " + dst0 + ", [%rd9];");
            masked("ld.const" + ty + " " + dst1 + ", [%rd9+" +
                   std::to_string(w) + "];");
            k += "    st.global" + ty + " [%rd10], " + dst0 + ";\n";
        } else if (space == "param") {
            masked("ld.param" + ty + " " + dst0 + ", [%rd17];");
            masked("ld.param" + ty + " " + dst1 + ", [pdata+" +
                   std::to_string(s * 8) + "];");
        } else if (space == "shared") {
            masked("st.shared" + ty + " [%rd15], " + src + ";");
            k += "    bar.sync 0;\n";
            masked("ld.shared" + ty + " " + dst0 + ", [%rd16];");
            masked("ld.shared" + ty + " " + dst1 + ", [sbuf+" +
                   std::to_string(s * w) + "];");
            k += "    bar.sync 0;\n";
        } else if (space == "local") {
            masked(s == 1 ? "st.local" + ty + " [lbuf+" +
                                std::to_string(s * w) + "], " + src + ";"
                          : "st.local" + ty + " [%rd14+" +
                                std::to_string(s * w) + "], " + src + ";");
            masked("ld.local" + ty + " " + dst0 + ", [lbuf+" +
                   std::to_string(s * w) + "];");
            masked("ld.local" + ty + " " + dst1 + ", [%rd14+" +
                   std::to_string(s * w) + "];");
        } else { // generic: lanes pick global, shared or local by tid % 3
            k += "    add.u64 %rd18, %rd14, " + std::to_string(s * w) +
                 ";\n    setp.eq.u32 %p3, %r6, 1;\n"
                 "    selp.b64 %rd19, %rd15, %rd10, %p3;\n"
                 "    setp.eq.u32 %p3, %r6, 2;\n"
                 "    selp.b64 %rd19, %rd18, %rd19, %p3;\n";
            masked("st" + ty + " [%rd19], " + src + ";");
            k += "    bar.sync 0;\n";
            masked("ld" + ty + " " + dst0 + ", [%rd19];");
            masked("ld" + ty + " " + dst1 + ", [sbuf+" +
                   std::to_string(s * w) + "];");
            k += "    bar.sync 0;\n";
        }
    }
    return k + "    ret;\n}\n";
}

/**
 * ld/st micro-ops decide space, type and bookkeeping once per uop. Every
 * space x element type x vector width x mask form must give the same
 * registers, memory, issue records and FuncStats through stepWarp, runWarp
 * into FuncStats and runWarp into an IssueSink, and match RefExec.
 */
TEST(CompiledExec, MemoryOpsMatchAcrossModes)
{
    struct Ty
    {
        const char *name;
        unsigned size;
    };
    const Ty types[] = {{"u8", 1},  {"s8", 1},  {"u16", 2}, {"s16", 2},
                        {"f16", 2}, {"u32", 4}, {"s32", 4}, {"f32", 4},
                        {"u64", 8}, {"s64", 8}, {"f64", 8}};
    const unsigned ntot = kMemThreads * kMemCtas;
    for (const char *space :
         {"global", "const", "shared", "local", "param", "generic"}) {
        for (const Ty &t : types) {
            for (const unsigned vec : {1u, 2u, 4u}) {
                SCOPED_TRACE(std::string(space) + " v" +
                             std::to_string(vec) + "." + t.name);
                const unsigned w = t.size * vec;
                MemCase c;
                c.src = memKernel(space, t.name, t.size, vec);
                c.grid = Dim3(kMemCtas);
                c.block = Dim3(kMemThreads);
                c.in.resize(3 * ntot * w + 32);
                for (size_t i = 0; i < c.in.size(); i++)
                    c.in[i] = uint8_t(i * 151 + 7 + (i >> 8));
                c.out_bytes = 3 * ntot * w;
                c.extra = [](addr_t, addr_t, addr_t) {
                    std::vector<uint64_t> pdata;
                    for (unsigned i = 0; i < 8; i++)
                        pdata.push_back(0x0f1e2d3c4b5a6978ull * (i + 3));
                    return pdata;
                };
                const MemRun run = expectMemModesAgree(c);
                EXPECT_EQ(run.new_pages, 0u);
                if (std::string(space) == "shared") {
                    EXPECT_GT(run.stats.shared_accesses, 0u);
                }
                if (std::string(space) == "global") {
                    EXPECT_GT(run.stats.global_st_bytes, 0u);
                }
            }
        }
    }
}

/** Register id of `name` in the kernel of `src`. */
size_t
regId(const std::string &src, const std::string &name)
{
    const ptx::Module m = ptx::parseModule(src, "mem_ops.ptx");
    const auto &names = findKernel(m, "mem").reg_names;
    const auto it = std::find(names.begin(), names.end(), name);
    MLGS_REQUIRE(it != names.end(), "no register ", name);
    return size_t(it - names.begin());
}

TEST(CompiledExec, MemoryOpsEdgeCases)
{
    // A misaligned u64 and v2.u32 that straddle a 4 KB page boundary in
    // lane 5, through a narrower load into a cell holding a 64-bit value
    // (its high half stays), and a store that straddles out's boundary.
    MemCase c;
    c.src = R"(
.visible .entry mem(.param .u64 in, .param .u64 out, .param .u64 skew_in,
                    .param .u64 skew_out)
{
    .reg .u64 %rd<10>;
    .reg .u32 %r<4>;
    .reg .b64 %v<6>;
    ld.param.u64 %rd1, [in];
    ld.param.u64 %rd2, [out];
    ld.param.u64 %rd3, [skew_in];
    ld.param.u64 %rd4, [skew_out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd5, %r1, 8;
    add.u64 %rd6, %rd1, %rd3;
    add.u64 %rd6, %rd6, %rd5;
    add.u64 %rd7, %rd2, %rd4;
    add.u64 %rd7, %rd7, %rd5;
    mov.b64 %v1, 1234605616436508552;
    ld.global.u64 %v0, [%rd6];
    ld.global.u32 %v1, [%rd6];
    ld.global.v2.u32 {%v2, %v3}, [%rd6];
    st.global.u64 [%rd7], %v0;
    ret;
}
)";
    c.grid = Dim3(1);
    c.block = Dim3(32);
    c.in.resize(3 * 4096);
    for (size_t i = 0; i < c.in.size(); i++)
        c.in[i] = uint8_t(i * 29 + 3);
    c.out_bytes = 3 * 4096;
    // Lane 5's 8 bytes start 3 bytes before a page boundary.
    const auto skew = [](addr_t base) {
        const addr_t boundary = (base / 4096 + 1) * 4096;
        return uint64_t(boundary - 3 - 5 * 8 - base);
    };
    c.extra = [&](addr_t in, addr_t out, addr_t) {
        return std::vector<uint64_t>{skew(in), skew(out)};
    };
    const MemRun run = expectMemModesAgree(c);
    const addr_t lane5 = skew(run.in) + 5 * 8;
    ASSERT_EQ((run.in + lane5) % 4096, 4093u);
    uint64_t want = 0;
    std::memcpy(&want, c.in.data() + lane5, 8);
    const size_t v0 = regId(c.src, "%v0"), v1 = regId(c.src, "%v1");
    EXPECT_EQ(run.regs[5][v0], want);
    EXPECT_EQ(run.regs[5][v1] >> 32, 0x11223344u) << "high half clobbered";
    EXPECT_EQ(uint32_t(run.regs[5][v1]), uint32_t(want));
    uint64_t stored = 0;
    std::memcpy(&stored, run.out.data() + skew(run.out_addr) + 5 * 8, 8);
    EXPECT_EQ(stored, want);

    // A page never written reads as zeros and is not materialized, per lane
    // (each lane its own page) and through a uniform address.
    MemCase fresh;
    fresh.src = R"(
.visible .entry mem(.param .u64 in, .param .u64 out, .param .u64 fresh)
{
    .reg .u64 %rd<8>;
    .reg .u32 %r<4>;
    .reg .b64 %v<6>;
    ld.param.u64 %rd1, [fresh];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd2, %r1, 4096;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.u32 %v0, [%rd3+12];
    ld.global.v2.u64 {%v1, %v2}, [%rd3+64];
    ld.const.u8 %v3, [%rd3];
    ld.global.v4.f32 {%v4, %v5, %v1, %v2}, [%rd1+4000];
    ret;
}
)";
    fresh.grid = Dim3(1);
    fresh.block = Dim3(40);
    fresh.in.assign(8, 1);
    fresh.out_bytes = 8;
    fresh.fresh_bytes = 41 * 4096;
    fresh.extra = [](addr_t, addr_t, addr_t f) {
        return std::vector<uint64_t>{f};
    };
    const MemRun zeros = expectMemModesAgree(fresh);
    EXPECT_EQ(zeros.new_pages, 0u);
    for (unsigned t = 0; t < 40; t++)
        for (unsigned v = 0; v < 6; v++)
            EXPECT_EQ(zeros.regs[t][regId(fresh.src, "%v" + std::to_string(v))],
                      0u)
                << "thread " << t << " %v" << v;

    // A uniform global address ([sym+imm], a runtime symbol bound to the in
    // buffer) is read once and broadcast; every lane still books its access.
    MemCase uni;
    uni.src = R"(
.global .align 8 .b8 gdata[64];
.visible .entry mem(.param .u64 in, .param .u64 out)
{
    .reg .b64 %v<4>;
    .reg .u32 %r<2>;
    .reg .pred %p<2>;
    mov.u32 %r1, %tid.x;
    setp.lt.u32 %p1, %r1, 20;
    ld.global.u64 %v0, [gdata+8];
    @%p1 ld.const.v2.u32 {%v1, %v2}, [gdata+16];
    ret;
}
)";
    uni.grid = Dim3(1);
    uni.block = Dim3(36);
    uni.in.resize(64);
    for (size_t i = 0; i < 64; i++)
        uni.in[i] = uint8_t(i * 7 + 1);
    uni.out_bytes = 8;
    uni.in_symbol = "gdata";
    const MemRun bcast = expectMemModesAgree(uni);
    uint64_t want8 = 0, want16 = 0;
    std::memcpy(&want8, uni.in.data() + 8, 8);
    std::memcpy(&want16, uni.in.data() + 16, 8);
    const size_t u0 = regId(uni.src, "%v0"), u1 = regId(uni.src, "%v1"),
                 u2 = regId(uni.src, "%v2");
    for (unsigned t = 0; t < 36; t++) {
        EXPECT_EQ(bcast.regs[t][u0], want8) << "thread " << t;
        EXPECT_EQ(bcast.regs[t][u1], t < 20 ? uint32_t(want16) : 0u);
        EXPECT_EQ(bcast.regs[t][u2], t < 20 ? want16 >> 32 : 0u);
    }
    EXPECT_EQ(bcast.stats.global_ld_bytes, 36u * 8 + 20u * 8);
    // Both warps' ld.global and the first warp's guarded ld.const each
    // touch one line.
    unsigned with_loads = 0;
    for (const auto &warp : bcast.records)
        for (const FlatRecord &r : warp)
            if (!r.loads.empty()) {
                EXPECT_EQ(r.loads.size(), 1u);
                with_loads++;
            }
    EXPECT_EQ(with_loads, 3u);
}

TEST(CompiledExec, MemoryOpsOutOfBoundsAreFatalInEveryMode)
{
    // Each access runs on every lane of one warp, after the same access
    // under a guard no lane passes; param is 80 bytes (in, out and pdata),
    // sbuf 64 and lbuf 16.
    const char *accesses[] = {
        "ld.shared.u32 %v0, [sbuf+64];",
        "st.shared.u32 [sbuf+62], %v0;",
        "ld.shared.v2.u32 {%v0, %v1}, [%rd3+60];",
        "st.shared.u64 [%rd3+64], %v0;",
        "ld.param.u32 %v0, [pdata+64];",
        "ld.param.v4.u32 {%v0, %v1, %v2, %v3}, [%rd5+56];",
        "st.param.u32 [pdata], %v0;",
        "ld.local.u32 %v0, [lbuf+16];",
        "st.local.u64 [lbuf+12], %v0;",
        "ld.local.u8 %v0, [%rd4+16];",
        "st.local.v2.u32 [%rd4+12], {%v0, %v1};",
        "ld.u32 %v0, [%rd3+64];",
        "st.u32 [%rd4+16], %v0;",
        // Two bytes below the window: the offset wraps around, and
        // offset + size wraps back into range.
        "ld.shared.u32 %v0, [%rd2];",
        "st.local.u32 [%rd1], %v0;",
        "atom.shared.add.u32 %v0, [%rd2], 1;",
    };
    for (const char *acc : accesses) {
        SCOPED_TRACE(acc);
        MemCase c;
        const std::string body = std::string(R"(
.visible .entry mem(.param .u64 in, .param .u64 out,
                    .param .u64 pdata, .param .u64 p1, .param .u64 p2,
                    .param .u64 p3, .param .u64 p4, .param .u64 p5,
                    .param .u64 p6, .param .u64 p7)
{
    .reg .u64 %rd<6>;
    .reg .b64 %v<4>;
    .reg .pred %p<2>;
    .shared .align 8 .b8 sbuf[64];
    .local .align 8 .b8 lbuf[16];
    mov.u64 %rd3, sbuf;
    mov.u64 %rd4, lbuf;
    mov.u64 %rd5, pdata;
    sub.u64 %rd2, %rd3, 2;
    sub.u64 %rd1, %rd4, 2;
    setp.eq.u64 %p1, %rd3, 0;
    @%p1 )") + acc + "\n    " + acc + "\n    ret;\n}\n";
        c.src = body;
        c.grid = Dim3(1);
        c.block = Dim3(32);
        c.in.assign(8, 0);
        c.out_bytes = 8;
        c.extra = [](addr_t, addr_t, addr_t) {
            return std::vector<uint64_t>(8, 0);
        };
        ASSERT_NO_THROW(ptx::parseModule(c.src, "mem_ops.ptx"));
        for (const MemMode mode :
             {MemMode::Step, MemMode::Stats, MemMode::Sink}) {
            SCOPED_TRACE(memModeName(mode));
            EXPECT_THROW(runMem(mode, c), FatalError);
        }
    }
}

} // namespace
