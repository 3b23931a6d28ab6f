/**
 * @file
 * Direct contract tests for func::BugModel: each injectable legacy bug must
 * change the result of exactly the instruction its doc comment names — and
 * nothing else. One probe kernel stores the three targeted instructions plus
 * a control group of neighbours (unsigned rem/bfe, signed div, explicit
 * mul+add, plain add); every flagged run is compared slot-by-slot against
 * the clean baseline.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "func/bug_model.h"
#include "func/site_profiler.h"
#include "sim_test_util.h"

using namespace mlgs;
using namespace mlgs::test;

namespace
{

// fma.rn probe constants (also used by the difftest generator): a*a lands
// exactly halfway between f32 neighbours, so the fused single rounding and
// the split round(a*b)+c double rounding produce different bit patterns.
constexpr float kFmaA = 1.000244140625f;     // 0x3F800800 = 1 + 2^-12
constexpr float kFmaC = 5.9604644775e-08f;   // 0x33800000 = 2^-24

enum Slot
{
    kRemS32 = 0,  // targeted by legacy_rem
    kBfeS32 = 1,  // targeted by legacy_bfe
    kFmaF32 = 2,  // targeted by split_fma
    kRemU32 = 3,  // control
    kDivS32 = 4,  // control
    kBfeU32 = 5,  // control
    kMulAdd = 6,  // control: explicit mul+add is already split
    kAddS32 = 7,  // control
    kNumSlots = 8
};

/**
 * Run the probe kernel under `bugs`; returns the 8 output slots raw. With
 * `step` set, a site profiler is attached, which moves the functional engine
 * from the batch loop onto the per-step path the timing model uses.
 */
std::vector<uint32_t>
runProbe(func::BugModel bugs, bool step = false)
{
    const char *src = R"(
.visible .entry bugprobe(.param .u64 out)
{
    .reg .u64 %rd<2>;
    .reg .u32 %r<8>;
    .reg .s32 %s<10>;
    .reg .f32 %f<8>;
    ld.param.u64 %rd1, [out];

    mov.s32 %s1, -7;
    mov.s32 %s2, 3;
    rem.s32 %s3, %s1, %s2;
    st.global.s32 [%rd1+0], %s3;

    mov.s32 %s4, 240;
    mov.u32 %r1, 4;
    mov.u32 %r2, 4;
    bfe.s32 %s5, %s4, %r1, %r2;
    st.global.s32 [%rd1+4], %s5;

    mov.f32 %f1, 0f3F800800;
    mov.f32 %f2, 0f33800000;
    fma.rn.f32 %f3, %f1, %f1, %f2;
    st.global.f32 [%rd1+8], %f3;

    mov.u32 %r3, 7;
    mov.u32 %r4, 3;
    rem.u32 %r5, %r3, %r4;
    st.global.u32 [%rd1+12], %r5;

    div.s32 %s6, %s1, %s2;
    st.global.s32 [%rd1+16], %s6;

    bfe.u32 %r6, %s4, %r1, %r2;
    st.global.u32 [%rd1+20], %r6;

    mul.f32 %f4, %f1, %f1;
    add.f32 %f5, %f4, %f2;
    st.global.f32 [%rd1+24], %f5;

    add.s32 %s7, %s1, %s2;
    st.global.s32 [%rd1+28], %s7;
    ret;
}
)";
    MiniGpu gpu(bugs);
    func::SiteProfiler prof;
    if (step)
        gpu.exec.setSiteProfiler(&prof);
    const ptx::Module m = ptx::parseModule(src, "bugprobe.ptx");
    const addr_t out = gpu.alloc.alloc(kNumSlots * 4);
    ParamPack p;
    p.add<uint64_t>(out);
    gpu.run(m, "bugprobe", Dim3(1), Dim3(1), p);
    return gpu.download<uint32_t>(out, kNumSlots);
}

uint32_t
bits(float f)
{
    uint32_t u;
    std::memcpy(&u, &f, 4);
    return u;
}

/** Everything except `changed` must be byte-identical to the baseline. */
void
expectOnlySlotChanged(const std::vector<uint32_t> &base,
                      const std::vector<uint32_t> &bugged, int changed)
{
    for (int s = 0; s < kNumSlots; s++) {
        if (s == changed)
            EXPECT_NE(bugged[s], base[s]) << "targeted slot " << s;
        else
            EXPECT_EQ(bugged[s], base[s]) << "collateral change in slot " << s;
    }
}

TEST(BugModel, DefaultsAreAllOff)
{
    func::BugModel bugs;
    EXPECT_FALSE(bugs.anyEnabled());
    bugs.legacy_rem = true;
    EXPECT_TRUE(bugs.anyEnabled());
    bugs = {.legacy_bfe = true};
    EXPECT_TRUE(bugs.anyEnabled());
    bugs = {.split_fma = true};
    EXPECT_TRUE(bugs.anyEnabled());
}

TEST(BugModel, BaselineMatchesHostSemantics)
{
    const auto v = runProbe({});
    EXPECT_EQ(int32_t(v[kRemS32]), -7 % 3); // = -1, C and PTX agree
    EXPECT_EQ(int32_t(v[kBfeS32]), -1);     // 4-bit field 0xF, sign-extended
    EXPECT_EQ(v[kFmaF32], bits(std::fmaf(kFmaA, kFmaA, kFmaC)));
    EXPECT_EQ(v[kRemU32], 7u % 3u);
    EXPECT_EQ(int32_t(v[kDivS32]), -7 / 3);
    EXPECT_EQ(v[kBfeU32], 15u);
    EXPECT_EQ(v[kMulAdd], bits(kFmaA * kFmaA + kFmaC));
    EXPECT_EQ(int32_t(v[kAddS32]), -4);
    // The probe constants really do distinguish fused from split.
    ASSERT_NE(v[kFmaF32], v[kMulAdd]);
}

TEST(BugModel, LegacyRemChangesExactlyRemS32)
{
    const auto base = runProbe({});
    const auto bugged = runProbe({.legacy_rem = true});
    expectOnlySlotChanged(base, bugged, kRemS32);
    // The documented legacy behaviour: u64 % u64 on the raw register cells.
    // mov.s32 -7 leaves 0x00000000FFFFFFF9 in the cell, and
    // 0xFFFFFFF9 % 3 == 0 (vs the correct signed remainder -1).
    EXPECT_EQ(bugged[kRemS32], uint32_t(0xFFFFFFF9ull % 3ull));
    EXPECT_EQ(bugged[kRemS32], 0u);
}

TEST(BugModel, LegacyBfeChangesExactlyBfeS32)
{
    const auto base = runProbe({});
    const auto bugged = runProbe({.legacy_bfe = true});
    expectOnlySlotChanged(base, bugged, kBfeS32);
    // No sign extension: the raw 4-bit field 0xF.
    EXPECT_EQ(bugged[kBfeS32], 15u);
    // bfe.u32 never sign-extends, so it must match in both runs (checked
    // above) *and* equal the buggy signed result's raw field.
    EXPECT_EQ(bugged[kBfeU32], bugged[kBfeS32]);
}

TEST(BugModel, SplitFmaChangesExactlyFmaF32)
{
    const auto base = runProbe({});
    const auto bugged = runProbe({.split_fma = true});
    expectOnlySlotChanged(base, bugged, kFmaF32);
    // Two roundings: identical to the explicit mul+add sequence.
    EXPECT_EQ(bugged[kFmaF32], bits(kFmaA * kFmaA + kFmaC));
    EXPECT_EQ(bugged[kFmaF32], bugged[kMulAdd]);
}

// Bug injection is baked into the compiled executor at lowering time, so
// every flag must behave identically on its per-step path (timing model,
// warp streams, site profiler) as in the batch loop: same targeted slot,
// same buggy value, no collateral damage.

TEST(BugModel, LegacyRemUnderCompiledBackend)
{
    const auto base = runProbe({}, true);
    const auto bugged = runProbe({.legacy_rem = true}, true);
    expectOnlySlotChanged(base, bugged, kRemS32);
    EXPECT_EQ(bugged[kRemS32], 0u);
    // Step and batch produce the identical buggy bit pattern.
    EXPECT_EQ(bugged, runProbe({.legacy_rem = true}));
}

TEST(BugModel, LegacyBfeUnderCompiledBackend)
{
    const auto base = runProbe({}, true);
    const auto bugged = runProbe({.legacy_bfe = true}, true);
    expectOnlySlotChanged(base, bugged, kBfeS32);
    EXPECT_EQ(bugged[kBfeS32], 15u);
    EXPECT_EQ(bugged, runProbe({.legacy_bfe = true}));
}

TEST(BugModel, SplitFmaUnderCompiledBackend)
{
    const auto base = runProbe({}, true);
    const auto bugged = runProbe({.split_fma = true}, true);
    expectOnlySlotChanged(base, bugged, kFmaF32);
    EXPECT_EQ(bugged[kFmaF32], bits(kFmaA * kFmaA + kFmaC));
    EXPECT_EQ(bugged, runProbe({.split_fma = true}));
}

TEST(BugModel, FlagsComposeIndependently)
{
    const auto base = runProbe({});
    const auto all = runProbe(
        {.legacy_rem = true, .legacy_bfe = true, .split_fma = true});
    for (int s : {kRemS32, kBfeS32, kFmaF32})
        EXPECT_NE(all[s], base[s]) << "slot " << s;
    for (int s : {kRemU32, kDivS32, kBfeU32, kMulAdd, kAddS32})
        EXPECT_EQ(all[s], base[s]) << "slot " << s;
    // Each targeted slot takes the same value as under its lone flag.
    EXPECT_EQ(all[kRemS32], runProbe({.legacy_rem = true})[kRemS32]);
    EXPECT_EQ(all[kBfeS32], runProbe({.legacy_bfe = true})[kBfeS32]);
    EXPECT_EQ(all[kFmaF32], runProbe({.split_fma = true})[kFmaF32]);
}

} // namespace
