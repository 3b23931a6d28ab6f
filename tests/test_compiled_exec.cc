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
#include "func/site_profiler.h"
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
            const auto &regs = cta->thread(t).regs;
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

} // namespace
