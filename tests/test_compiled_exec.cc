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
 *    memory must match it bitwise. RefExec has no atom, red, tex or vector
 *    ld/st, so those cases check fixed expected values instead.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
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
    // RefExec has no vector ld/st: check fixed values. Every sum and
    // difference here is exact in f32.
    const Image img = expectPathsMatch(src, "vecldst", Dim3(1), Dim3(16),
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

} // namespace
