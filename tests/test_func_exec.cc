/**
 * @file
 * Functional-executor unit tests with fixed expected values: per-instruction
 * semantics (including the paper's rem/bfe/brev cases), divergence,
 * barriers, atomics, and the injectable legacy bugs. (The suite keeps its
 * historical name, Interp.)
 */
#include <gtest/gtest.h>

#include <cmath>

#include "common/fp16.h"
#include "sim_test_util.h"

using namespace mlgs;
using namespace mlgs::test;

namespace
{

/** Run a one-output scalar kernel: a single thread stores one value. */
template <typename T>
T
runScalarKernel(const std::string &body, MiniGpu &gpu, int64_t a = 0,
                int64_t b = 0, int64_t c = 0)
{
    const std::string src = R"(
.visible .entry t(
    .param .u64 out,
    .param .s64 a,
    .param .s64 b,
    .param .s64 c
)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<10>;
    .reg .s32 %s<10>;
    .reg .f32 %f<10>;
    .reg .s64 %sd<6>;
    .reg .pred %p<4>;
    ld.param.u64 %rd1, [out];
    ld.param.s64 %sd1, [a];
    ld.param.s64 %sd2, [b];
    ld.param.s64 %sd3, [c];
)" + body + R"(
    ret;
}
)";
    const ptx::Module m = ptx::parseModule(src, "scalar.ptx");
    const addr_t out = gpu.alloc.alloc(16);
    ParamPack p;
    p.add<uint64_t>(out).add<int64_t>(a).add<int64_t>(b).add<int64_t>(c);
    gpu.run(m, "t", Dim3(1), Dim3(1), p);
    return gpu.mem.load<T>(out);
}

TEST(Interp, VecAddEndToEnd)
{
    const char *src = R"(
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
    MiniGpu gpu;
    const ptx::Module m = ptx::parseModule(src, "vecadd.ptx");
    const unsigned n = 1000; // not a multiple of the block size
    std::vector<float> a(n), b(n);
    for (unsigned i = 0; i < n; i++) {
        a[i] = float(i);
        b[i] = 2.0f * float(i) + 1.0f;
    }
    const addr_t da = gpu.uploadVec(a);
    const addr_t db = gpu.uploadVec(b);
    const addr_t dc = gpu.alloc.alloc(n * 4);
    ParamPack p;
    p.add<uint64_t>(da).add<uint64_t>(db).add<uint64_t>(dc).add<uint32_t>(n);
    const auto stats = gpu.run(m, "vecadd", Dim3(8), Dim3(128), p);
    const auto c = gpu.download<float>(dc, n);
    for (unsigned i = 0; i < n; i++)
        ASSERT_EQ(c[i], a[i] + b[i]) << i;
    EXPECT_GT(stats.instructions, 0u);
    EXPECT_EQ(stats.global_st_bytes, n * 4u);
}

// ---- the paper's instruction bug menagerie ----

TEST(Interp, RemUnsigned32)
{
    MiniGpu gpu;
    const auto r = runScalarKernel<uint32_t>(R"(
    cvt.u32.s64 %r1, %sd1;
    cvt.u32.s64 %r2, %sd2;
    rem.u32 %r3, %r1, %r2;
    st.global.u32 [%rd1], %r3;
)", gpu, 17, 5);
    EXPECT_EQ(r, 2u);
}

TEST(Interp, RemSignedNegativeDividend)
{
    MiniGpu gpu;
    const auto r = runScalarKernel<int32_t>(R"(
    cvt.s32.s64 %s1, %sd1;
    cvt.s32.s64 %s2, %sd2;
    rem.s32 %s3, %s1, %s2;
    st.global.s32 [%rd1], %s3;
)", gpu, -7, 3);
    EXPECT_EQ(r, -1); // C-style truncation semantics
}

TEST(Interp, LegacyRemBugProducesWrongSignedResult)
{
    func::BugModel bugs;
    bugs.legacy_rem = true;
    MiniGpu gpu(bugs);
    const auto r = runScalarKernel<int32_t>(R"(
    cvt.s32.s64 %s1, %sd1;
    cvt.s32.s64 %s2, %sd2;
    rem.s32 %s3, %s1, %s2;
    st.global.s32 [%rd1], %s3;
)", gpu, -7, 3);
    // data.u64 = u64(-7 sign-extended) % 3 == wrong value, not -1.
    EXPECT_NE(r, -1);
}

TEST(Interp, BfeSignedExtractsWithSignExtension)
{
    MiniGpu gpu;
    // Extract bits [4..11] of 0xF50 -> field 0xF5 -> signed 8-bit -11.
    const auto r = runScalarKernel<int32_t>(R"(
    mov.s32 %s1, 0xF50;
    mov.u32 %r1, 4;
    mov.u32 %r2, 8;
    bfe.s32 %s2, %s1, %r1, %r2;
    st.global.s32 [%rd1], %s2;
)", gpu);
    EXPECT_EQ(r, -11);
}

TEST(Interp, LegacyBfeBugSkipsSignExtension)
{
    func::BugModel bugs;
    bugs.legacy_bfe = true;
    MiniGpu gpu(bugs);
    const auto r = runScalarKernel<int32_t>(R"(
    mov.s32 %s1, 0xF50;
    mov.u32 %r1, 4;
    mov.u32 %r2, 8;
    bfe.s32 %s2, %s1, %r1, %r2;
    st.global.s32 [%rd1], %s2;
)", gpu);
    EXPECT_EQ(r, 0xF5);
}

TEST(Interp, BfeUnsigned)
{
    MiniGpu gpu;
    const auto r = runScalarKernel<uint32_t>(R"(
    mov.u32 %r1, 0xABCD;
    mov.u32 %r2, 8;
    mov.u32 %r3, 8;
    bfe.u32 %r4, %r1, %r2, %r3;
    st.global.u32 [%rd1], %r4;
)", gpu);
    EXPECT_EQ(r, 0xABu);
}

TEST(Interp, BrevReversesBits)
{
    MiniGpu gpu;
    const auto r = runScalarKernel<uint32_t>(R"(
    mov.u32 %r1, 0x00000001;
    brev.b32 %r2, %r1;
    st.global.u32 [%rd1], %r2;
)", gpu);
    EXPECT_EQ(r, 0x80000000u);
}

TEST(Interp, BrevRoundTripsItself)
{
    MiniGpu gpu;
    const auto r = runScalarKernel<uint32_t>(R"(
    mov.u32 %r1, 0xDEADBEEF;
    brev.b32 %r2, %r1;
    brev.b32 %r3, %r2;
    st.global.u32 [%rd1], %r3;
)", gpu);
    EXPECT_EQ(r, 0xDEADBEEFu);
}

TEST(Interp, FmaSingleRounding)
{
    auto bitsToFloat = [](uint32_t b) {
        float f;
        std::memcpy(&f, &b, sizeof(f));
        return f;
    };
    const float a = bitsToFloat(0x3F800100u);
    const float b = bitsToFloat(0x3F7FFE00u);
    const float c = -1.0f;
    const float fused = std::fmaf(a, b, c);
    const float split = a * b + c;
    ASSERT_NE(fused, split) << "operands do not discriminate fused vs split";

    const char *body = R"(
    mov.f32 %f1, 0f3F800100;
    mov.f32 %f2, 0f3F7FFE00;
    mov.f32 %f3, 0fBF800000;
    fma.rn.f32 %f4, %f1, %f2, %f3;
    st.global.f32 [%rd1], %f4;
)";
    {
        MiniGpu gpu;
        EXPECT_EQ(runScalarKernel<float>(body, gpu), fused);
    }
    {
        func::BugModel bugs;
        bugs.split_fma = true;
        MiniGpu gpu(bugs);
        EXPECT_EQ(runScalarKernel<float>(body, gpu), split);
    }
}

TEST(Interp, MulHiWide)
{
    MiniGpu gpu;
    const auto hi = runScalarKernel<uint32_t>(R"(
    mov.u32 %r1, 0x80000000;
    mov.u32 %r2, 4;
    mul.hi.u32 %r3, %r1, %r2;
    st.global.u32 [%rd1], %r3;
)", gpu);
    EXPECT_EQ(hi, 2u);

    const auto wide = runScalarKernel<uint64_t>(R"(
    mov.u32 %r1, 0x10000;
    mov.u32 %r2, 0x10000;
    mul.wide.u32 %sd4, %r1, %r2;
    st.global.u64 [%rd1], %sd4;
)", gpu);
    EXPECT_EQ(wide, 0x100000000ull);
}

TEST(Interp, DivByZeroIsAllOnes)
{
    MiniGpu gpu;
    const auto r = runScalarKernel<uint32_t>(R"(
    mov.u32 %r1, 5;
    mov.u32 %r2, 0;
    div.u32 %r3, %r1, %r2;
    st.global.u32 [%rd1], %r3;
)", gpu);
    EXPECT_EQ(r, 0xffffffffu);
}

TEST(Interp, ShiftSemantics)
{
    MiniGpu gpu;
    const auto r = runScalarKernel<int32_t>(R"(
    mov.s32 %s1, -64;
    mov.u32 %r1, 3;
    shr.s32 %s2, %s1, %r1;
    st.global.s32 [%rd1], %s2;
)", gpu);
    EXPECT_EQ(r, -8); // arithmetic shift

    const auto r2 = runScalarKernel<uint32_t>(R"(
    mov.u32 %r1, 0x80000000;
    mov.u32 %r2, 31;
    shr.u32 %r3, %r1, %r2;
    st.global.u32 [%rd1], %r3;
)", gpu);
    EXPECT_EQ(r2, 1u);
}

TEST(Interp, CvtFloatIntSaturation)
{
    MiniGpu gpu;
    const auto r = runScalarKernel<int32_t>(R"(
    mov.f32 %f1, 0f4F000000;  // 2^31 as float
    cvt.rzi.s32.f32 %s1, %f1;
    st.global.s32 [%rd1], %s1;
)", gpu);
    EXPECT_EQ(r, INT32_MAX);

    const auto r2 = runScalarKernel<int32_t>(R"(
    mov.f32 %f1, 0fC0533333;  // -3.3
    cvt.rzi.s32.f32 %s1, %f1;
    st.global.s32 [%rd1], %s1;
)", gpu);
    EXPECT_EQ(r2, -3);
}

TEST(Interp, CvtFp16RoundTrip)
{
    MiniGpu gpu;
    const auto r = runScalarKernel<float>(R"(
    mov.f32 %f1, 0f3FC00000;  // 1.5 representable in fp16
    .reg .f16 %h<2>;
    cvt.rn.f16.f32 %h1, %f1;
    cvt.f32.f16 %f2, %h1;
    st.global.f32 [%rd1], %f2;
)", gpu);
    EXPECT_EQ(r, 1.5f);
}

TEST(Interp, SelpAndSetp)
{
    MiniGpu gpu;
    const auto r = runScalarKernel<uint32_t>(R"(
    mov.u32 %r1, 7;
    mov.u32 %r2, 9;
    setp.lt.u32 %p1, %r1, %r2;
    mov.u32 %r3, 100;
    mov.u32 %r4, 200;
    selp.u32 %r5, %r3, %r4, %p1;
    st.global.u32 [%rd1], %r5;
)", gpu);
    EXPECT_EQ(r, 100u);
}

TEST(Interp, SfuApproxOps)
{
    MiniGpu gpu;
    const auto r = runScalarKernel<float>(R"(
    mov.f32 %f1, 0f40490FDB;  // pi
    sin.approx.f32 %f2, %f1;
    st.global.f32 [%rd1], %f2;
)", gpu);
    EXPECT_NEAR(r, 0.0f, 1e-6f);

    const auto r2 = runScalarKernel<float>(R"(
    mov.f32 %f1, 0f41200000;  // 10
    lg2.approx.f32 %f2, %f1;
    ex2.approx.f32 %f3, %f2;
    st.global.f32 [%rd1], %f3;
)", gpu);
    EXPECT_NEAR(r2, 10.0f, 1e-4f);
}

TEST(Interp, PopcAndClz)
{
    MiniGpu gpu;
    const auto r = runScalarKernel<uint32_t>(R"(
    mov.u32 %r1, 0x0000F0F0;
    popc.b32 %r2, %r1;
    st.global.u32 [%rd1], %r2;
)", gpu);
    EXPECT_EQ(r, 8u);

    const auto r2 = runScalarKernel<uint32_t>(R"(
    mov.u32 %r1, 0x00010000;
    clz.b32 %r2, %r1;
    st.global.u32 [%rd1], %r2;
)", gpu);
    EXPECT_EQ(r2, 15u);
}

// ---- divergence / barriers / shared / atomics ----

TEST(Interp, DivergentBranchBothPaths)
{
    const char *src = R"(
.visible .entry diverge(.param .u64 out)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<6>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    and.b32 %r2, %r1, 1;
    setp.eq.u32 %p1, %r2, 0;
    @%p1 bra EVEN;
    mov.u32 %r3, 111;
    bra STORE;
EVEN:
    mov.u32 %r3, 222;
STORE:
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r3;
    ret;
}
)";
    MiniGpu gpu;
    const ptx::Module m = ptx::parseModule(src, "t.ptx");
    const addr_t out = gpu.alloc.alloc(32 * 4);
    ParamPack p;
    p.add<uint64_t>(out);
    gpu.run(m, "diverge", Dim3(1), Dim3(32), p);
    const auto v = gpu.download<uint32_t>(out, 32);
    for (unsigned i = 0; i < 32; i++)
        EXPECT_EQ(v[i], i % 2 ? 111u : 222u) << i;
}

TEST(Interp, NestedDivergence)
{
    const char *src = R"(
.visible .entry nested(.param .u64 out)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<8>;
    .reg .pred %p<3>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    and.b32 %r2, %r1, 3;
    mov.u32 %r5, 0;
    setp.lt.u32 %p1, %r2, 2;
    @!%p1 bra HIGH;
    setp.eq.u32 %p2, %r2, 0;
    @!%p2 bra ONE;
    mov.u32 %r5, 10;
    bra JOIN0;
ONE:
    mov.u32 %r5, 11;
JOIN0:
    bra JOIN;
HIGH:
    setp.eq.u32 %p2, %r2, 2;
    @!%p2 bra THREE;
    mov.u32 %r5, 12;
    bra JOIN1;
THREE:
    mov.u32 %r5, 13;
JOIN1:
JOIN:
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r5;
    ret;
}
)";
    MiniGpu gpu;
    const ptx::Module m = ptx::parseModule(src, "t.ptx");
    const addr_t out = gpu.alloc.alloc(64 * 4);
    ParamPack p;
    p.add<uint64_t>(out);
    gpu.run(m, "nested", Dim3(1), Dim3(64), p);
    const auto v = gpu.download<uint32_t>(out, 64);
    for (unsigned i = 0; i < 64; i++)
        EXPECT_EQ(v[i], 10 + (i & 3)) << i;
}

TEST(Interp, SharedMemoryReductionWithBarrier)
{
    const char *src = R"(
.visible .entry reduce(.param .u64 in, .param .u64 out)
{
    .reg .u64 %rd<6>;
    .reg .u32 %r<10>;
    .reg .f32 %f<6>;
    .reg .pred %p<3>;
    .shared .align 4 .b8 sdata[512];

    ld.param.u64 %rd1, [in];
    ld.param.u64 %rd2, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd3, %r1, 4;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.f32 %f1, [%rd4];
    mov.u64 %rd5, sdata;
    add.u64 %rd5, %rd5, %rd3;
    st.shared.f32 [%rd5], %f1;
    bar.sync 0;
    mov.u32 %r2, 128;
LOOP:
    shr.u32 %r2, %r2, 1;
    setp.ge.u32 %p1, %r1, %r2;
    @%p1 bra SKIP;
    mul.wide.u32 %rd3, %r2, 4;
    add.u64 %rd3, %rd5, %rd3;
    ld.shared.f32 %f2, [%rd3];
    ld.shared.f32 %f1, [%rd5];
    add.f32 %f1, %f1, %f2;
    st.shared.f32 [%rd5], %f1;
SKIP:
    bar.sync 0;
    setp.gt.u32 %p2, %r2, 1;
    @%p2 bra LOOP;
    setp.ne.u32 %p1, %r1, 0;
    @%p1 bra DONE;
    ld.shared.f32 %f3, [%rd5];
    st.global.f32 [%rd2], %f3;
DONE:
    ret;
}
)";
    MiniGpu gpu;
    const ptx::Module m = ptx::parseModule(src, "t.ptx");
    std::vector<float> in(128);
    float expect = 0;
    for (unsigned i = 0; i < 128; i++) {
        in[i] = float(i) * 0.5f;
        expect += in[i];
    }
    const addr_t din = gpu.uploadVec(in);
    const addr_t dout = gpu.alloc.alloc(4);
    ParamPack p;
    p.add<uint64_t>(din).add<uint64_t>(dout);
    gpu.run(m, "reduce", Dim3(1), Dim3(128), p);
    EXPECT_FLOAT_EQ(gpu.mem.load<float>(dout), expect);
}

TEST(Interp, GlobalAtomicAddContended)
{
    const char *src = R"(
.visible .entry count(.param .u64 ctr)
{
    .reg .u64 %rd<2>;
    .reg .u32 %r<4>;
    ld.param.u64 %rd1, [ctr];
    atom.global.add.u32 %r1, [%rd1], 1;
    ret;
}
)";
    MiniGpu gpu;
    const ptx::Module m = ptx::parseModule(src, "t.ptx");
    const addr_t ctr = gpu.alloc.alloc(4);
    gpu.mem.store<uint32_t>(ctr, 0);
    ParamPack p;
    p.add<uint64_t>(ctr);
    gpu.run(m, "count", Dim3(4), Dim3(96), p);
    EXPECT_EQ(gpu.mem.load<uint32_t>(ctr), 4u * 96u);
}

TEST(Interp, AtomicCas)
{
    const char *src = R"(
.visible .entry casone(.param .u64 ptr)
{
    .reg .u64 %rd<2>;
    .reg .u32 %r<4>;
    ld.param.u64 %rd1, [ptr];
    mov.u32 %r1, 0;
    mov.u32 %r2, %tid.x;
    add.u32 %r2, %r2, 1;
    atom.global.cas.b32 %r3, [%rd1], %r1, %r2;
    ret;
}
)";
    MiniGpu gpu;
    const ptx::Module m = ptx::parseModule(src, "t.ptx");
    const addr_t ptr = gpu.alloc.alloc(4);
    gpu.mem.store<uint32_t>(ptr, 0);
    ParamPack p;
    p.add<uint64_t>(ptr);
    gpu.run(m, "casone", Dim3(1), Dim3(32), p);
    // Exactly one thread wins: deterministic warp-serial order -> tid 0.
    EXPECT_EQ(gpu.mem.load<uint32_t>(ptr), 1u);
}

TEST(Interp, LocalMemoryPerThreadScratch)
{
    const char *src = R"(
.visible .entry scratch(.param .u64 out)
{
    .reg .u64 %rd<5>;
    .reg .u32 %r<6>;
    .local .align 4 .b8 buf[16];
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    mov.u64 %rd2, buf;
    st.local.u32 [%rd2], %r1;
    st.local.u32 [%rd2+4], 7;
    ld.local.u32 %r2, [%rd2];
    ld.local.u32 %r3, [%rd2+4];
    add.u32 %r4, %r2, %r3;
    mul.wide.u32 %rd3, %r1, 4;
    add.u64 %rd4, %rd1, %rd3;
    st.global.u32 [%rd4], %r4;
    ret;
}
)";
    MiniGpu gpu;
    const ptx::Module m = ptx::parseModule(src, "t.ptx");
    const addr_t out = gpu.alloc.alloc(64 * 4);
    ParamPack p;
    p.add<uint64_t>(out);
    gpu.run(m, "scratch", Dim3(1), Dim3(64), p);
    const auto v = gpu.download<uint32_t>(out, 64);
    for (unsigned i = 0; i < 64; i++)
        EXPECT_EQ(v[i], i + 7) << i;
}

TEST(Interp, GuardedExitPartialWarp)
{
    const char *src = R"(
.visible .entry earlyexit(.param .u64 out)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<4>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    setp.gt.u32 %p1, %r1, 15;
    @%p1 exit;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], 42;
    ret;
}
)";
    MiniGpu gpu;
    const ptx::Module m = ptx::parseModule(src, "t.ptx");
    const addr_t out = gpu.alloc.alloc(32 * 4);
    gpu.mem.memset(out, 0, 32 * 4);
    ParamPack p;
    p.add<uint64_t>(out);
    gpu.run(m, "earlyexit", Dim3(1), Dim3(32), p);
    const auto v = gpu.download<uint32_t>(out, 32);
    for (unsigned i = 0; i < 32; i++)
        EXPECT_EQ(v[i], i <= 15 ? 42u : 0u) << i;
}

TEST(Interp, CoverageMapRecordsVariants)
{
    MiniGpu gpu;
    func::CoverageMap cov;
    gpu.exec.setCoverage(&cov);
    runScalarKernel<uint32_t>(R"(
    mov.u32 %r1, 17;
    mov.u32 %r2, 5;
    rem.u32 %r3, %r1, %r2;
    st.global.u32 [%rd1], %r3;
)", gpu);
    EXPECT_TRUE(cov.counts().count("rem.u32"));
    EXPECT_TRUE(cov.counts().count("st.global.u32"));
    func::CoverageMap base;
    base.hit("st.global.u32");
    const auto only = cov.diff(base);
    EXPECT_NE(std::find(only.begin(), only.end(), "rem.u32"), only.end());
}

} // namespace
