/**
 * @file
 * Static-verifier test corpus: each seeded-defect fixture must produce its
 * expected diagnostic (check, severity, source line), every PTX module the
 * simulator ships must lint clean, the dynamic shared-memory race shadow
 * must confirm a seeded race without perturbing any other observable, and
 * the parser/analysis error paths must carry precise locations.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "blas/blas.h"
#include "common/thread_pool.h"
#include "cudnn/cudnn.h"
#include "cudnn/kernels.h"
#include "ptx/parser.h"
#include "ptx/verifier/verifier.h"
#include "runtime/context.h"
#include "sim_test_util.h"

using namespace mlgs;
using namespace mlgs::ptx::verifier;

namespace
{

/** 1-based source line of the first occurrence of `needle` in `src`. */
int
lineOf(const std::string &src, const std::string &needle)
{
    const size_t pos = src.find(needle);
    EXPECT_NE(pos, std::string::npos) << "fixture lost its '" << needle << "'";
    if (pos == std::string::npos)
        return -1;
    return 1 + int(std::count(src.begin(), src.begin() + ptrdiff_t(pos), '\n'));
}

std::vector<Diagnostic>
lint(const char *src, const char *name)
{
    const ptx::Module m = ptx::parseModule(src, name);
    return verifyModule(m);
}

bool
hasDiag(const std::vector<Diagnostic> &diags, Check check, Severity sev,
        int line = -1)
{
    for (const auto &d : diags)
        if (d.check == check && d.severity == sev &&
            (line < 0 || d.line == line))
            return true;
    return false;
}

// ---- seeded-defect fixtures --------------------------------------------

// %rd2/%rd3 declared .u64/.u32 but accessed at the other width: rem.u64
// reads the 32-bit %r1 at 64 bits (error), add.u32 writes the 64-bit %rd3
// at 32 bits, leaving a stale upper half (warning).
const char *kBadTypes = R"(.version 6.4
.target sm_61
.address_size 64
.visible .entry bad_types(.param .u64 Out)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<4>;
    ld.param.u64 %rd1, [Out];
    mov.u32 %r1, %tid.x;
    rem.u64 %rd2, %rd1, %r1;
    add.u32 %rd3, %r1, 7;
    st.global.u32 [%rd1], %r1;
    ret;
}
)";

// %f2 is never written anywhere (error); %f3 is written only on the
// not-taken side of a branch (may-be-uninitialized warning).
const char *kBadUninit = R"(.version 6.4
.target sm_61
.address_size 64
.visible .entry bad_uninit(.param .u64 Out)
{
    .reg .u64 %rd<2>;
    .reg .u32 %r<2>;
    .reg .f32 %f<5>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [Out];
    mov.u32 %r1, %tid.x;
    setp.eq.u32 %p1, %r1, 0;
    @%p1 bra SKIP;
    mov.f32 %f3, 0f3f800000;
SKIP:
    mov.f32 %f1, 0f40000000;
    fma.rn.f32 %f4, %f1, %f2, %f3;
    st.global.f32 [%rd1], %f4;
    ret;
}
)";

// bar.sync on only one side of a tid-guarded branch whose reconvergence
// point (JOIN) post-dominates the barrier: half the warp never arrives.
const char *kBadBarrier = R"(.version 6.4
.target sm_61
.address_size 64
.visible .entry bad_barrier(.param .u64 Out)
{
    .reg .u64 %rd<2>;
    .reg .u32 %r<3>;
    .reg .pred %p<2>;
    .shared .align 4 .b8 buf[256];
    ld.param.u64 %rd1, [Out];
    mov.u32 %r1, %tid.x;
    setp.lt.u32 %p1, %r1, 16;
    @%p1 bra SIDE;
    mov.u32 %r2, 1;
    bra JOIN;
SIDE:
    bar.sync 0;
    mov.u32 %r2, 2;
JOIN:
    st.global.u32 [%rd1], %r2;
    ret;
}
)";

// Thread t stores buf[4t] then loads buf[4t+4] (= thread t+1's slot) with
// no intervening barrier, plus an unguarded store to a warp-uniform
// address: both are phase-level shared-memory races.
const char *kBadRace = R"(.version 6.4
.target sm_61
.address_size 64
.visible .entry bad_race(.param .u64 Out)
{
    .reg .u64 %rd<6>;
    .reg .u32 %r<4>;
    .reg .f32 %f<3>;
    .shared .align 4 .b8 buf[512];
    ld.param.u64 %rd1, [Out];
    mov.u32 %r1, %tid.x;
    mov.u64 %rd2, buf;
    mul.wide.u32 %rd3, %r1, 4;
    add.u64 %rd4, %rd2, %rd3;
    mov.f32 %f1, 0f3f800000;
    st.shared.f32 [%rd4], %f1;
    ld.shared.f32 %f2, [%rd4+4];
    st.shared.u32 [buf], %r1;
    st.global.f32 [%rd1], %f2;
    ret;
}
)";

// Same neighbour exchange with the bar.sync where it belongs: clean.
const char *kGoodRace = R"(.version 6.4
.target sm_61
.address_size 64
.visible .entry good_race(.param .u64 Out)
{
    .reg .u64 %rd<6>;
    .reg .u32 %r<4>;
    .reg .f32 %f<3>;
    .shared .align 4 .b8 buf[512];
    ld.param.u64 %rd1, [Out];
    mov.u32 %r1, %tid.x;
    mov.u64 %rd2, buf;
    mul.wide.u32 %rd3, %r1, 4;
    add.u64 %rd4, %rd2, %rd3;
    mov.f32 %f1, 0f3f800000;
    st.shared.f32 [%rd4], %f1;
    bar.sync 0;
    ld.shared.f32 %f2, [%rd4+4];
    st.global.f32 [%rd1], %f2;
    ret;
}
)";

TEST(Verifier, TypeMismatchFixture)
{
    const auto diags = lint(kBadTypes, "bad_types.ptx");
    EXPECT_TRUE(hasDiag(diags, Check::TypeMismatch, Severity::Error,
                        lineOf(kBadTypes, "rem.u64")))
        << "64-bit read of a 32-bit register must be an error";
    EXPECT_TRUE(hasDiag(diags, Check::TypeMismatch, Severity::Warning,
                        lineOf(kBadTypes, "add.u32 %rd3")))
        << "32-bit write into a 64-bit register must warn (stale upper half)";
    EXPECT_EQ(maxSeverity(diags), Severity::Error);
}

TEST(Verifier, UninitReadFixture)
{
    const auto diags = lint(kBadUninit, "bad_uninit.ptx");
    const int fma_line = lineOf(kBadUninit, "fma.rn.f32");
    EXPECT_TRUE(hasDiag(diags, Check::UninitRead, Severity::Error, fma_line))
        << "%f2 is never written on any path";
    EXPECT_TRUE(hasDiag(diags, Check::UninitRead, Severity::Warning, fma_line))
        << "%f3 is written on only one path";
}

TEST(Verifier, DivergentBarrierFixture)
{
    const auto diags = lint(kBadBarrier, "bad_barrier.ptx");
    EXPECT_TRUE(hasDiag(diags, Check::DivergentBarrier, Severity::Error,
                        lineOf(kBadBarrier, "bar.sync")));
}

TEST(Verifier, SharedRaceFixture)
{
    const auto diags = lint(kBadRace, "bad_race.ptx");
    EXPECT_TRUE(hasDiag(diags, Check::SharedRace, Severity::Warning,
                        lineOf(kBadRace, "ld.shared.f32")))
        << "cross-thread neighbour load in the store's phase must warn";
    EXPECT_TRUE(hasDiag(diags, Check::SharedRace, Severity::Warning,
                        lineOf(kBadRace, "st.shared.u32 [buf]")))
        << "unguarded store to a warp-uniform address must warn";
}

TEST(Verifier, BarrierSeparatedExchangeIsClean)
{
    EXPECT_TRUE(lint(kGoodRace, "good_race.ptx").empty());
}

TEST(Verifier, DiagnosticFormatting)
{
    const auto diags = lint(kBadBarrier, "bad_barrier.ptx");
    ASSERT_FALSE(diags.empty());
    const std::string s = formatDiagnostic("bad_barrier.ptx", diags[0]);
    EXPECT_NE(s.find("bad_barrier.ptx:"), std::string::npos);
    EXPECT_NE(s.find("error:"), std::string::npos);
    EXPECT_NE(s.find("[divergent-barrier]"), std::string::npos);
    EXPECT_NE(s.find("kernel 'bad_barrier'"), std::string::npos);
}

// ---- shipped modules must lint clean -----------------------------------

TEST(Verifier, ShippedModulesLintClean)
{
    const std::vector<std::pair<std::string, std::string>> units = {
        {"libcublas_lite.ptx", blas::kBlasPtx},
        {"libcudnn_common.ptx", cudnn::kCommonPtx},
        {"libcudnn_conv.ptx", cudnn::kConvPtx},
        {"libcudnn_winograd.ptx", cudnn::kWinogradPtx},
        {"libcudnn_lrn.ptx", cudnn::kLrnPtx},
        {"libcudnn_fft32.ptx", cudnn::buildFftPtx32()},
        {"libcudnn_fft16.ptx", cudnn::buildFftPtx16()},
        {"libcudnn_cgemm.ptx", cudnn::buildCgemmPtx()},
    };
    for (const auto &[name, src] : units) {
        const ptx::Module m = ptx::parseModule(src, name);
        const auto diags = verifyModule(m);
        for (const auto &d : diags)
            ADD_FAILURE() << formatDiagnostic(name, d);
    }
}

TEST(Verifier, StrictModeAcceptsShippedLibraries)
{
    cuda::ContextOptions opts;
    opts.verify_ptx = cuda::PtxVerify::Strict;
    cuda::Context ctx(opts);
    // CudnnHandle loads all eight library modules through Context::loadModule,
    // so a single diagnostic anywhere in the shipped PTX would fatal() here.
    EXPECT_NO_THROW({
        cudnn::CudnnHandle h(ctx);
        blas::BlasHandle b(ctx);
    });
}

TEST(Verifier, StrictModeRejectsDefectiveModule)
{
    cuda::ContextOptions opts;
    opts.verify_ptx = cuda::PtxVerify::Strict;
    cuda::Context ctx(opts);
    EXPECT_THROW(ctx.loadModule(kBadRace, "bad_race.ptx"), FatalError);
}

TEST(Verifier, WarnModeKeepsGoing)
{
    cuda::ContextOptions opts;
    opts.verify_ptx = cuda::PtxVerify::Warn;
    cuda::Context ctx(opts);
    EXPECT_NO_THROW(ctx.loadModule(kBadRace, "bad_race.ptx"));
    EXPECT_EQ(ctx.moduleCount(), 1);
}

// ---- dynamic confirmation (check_races) --------------------------------

func::FuncStats
runRaceKernel(test::MiniGpu &gpu, const char *src, const char *kernel,
              addr_t *out_addr = nullptr)
{
    const ptx::Module m = ptx::parseModule(src, "race.ptx");
    const addr_t out = gpu.alloc.alloc(64 * 4);
    if (out_addr)
        *out_addr = out;
    test::ParamPack p;
    p.add<uint64_t>(out);
    return gpu.run(m, kernel, Dim3(1), Dim3(64), p);
}

TEST(DynamicRace, ConfirmsSeededRace)
{
    test::MiniGpu gpu;
    gpu.exec.setRaceCheck(true);
    const auto stats = runRaceKernel(gpu, kBadRace, "bad_race");
    EXPECT_GT(stats.shared_races, 0u)
        << "the neighbour-slot load must be confirmed as a dynamic race";
}

TEST(DynamicRace, BarrierSeparatedExchangeIsRaceFree)
{
    test::MiniGpu gpu;
    gpu.exec.setRaceCheck(true);
    const auto stats = runRaceKernel(gpu, kGoodRace, "good_race");
    EXPECT_EQ(stats.shared_races, 0u);
}

TEST(DynamicRace, OffByDefault)
{
    test::MiniGpu gpu;
    const auto stats = runRaceKernel(gpu, kBadRace, "bad_race");
    EXPECT_EQ(stats.shared_races, 0u) << "shadow must not run unless enabled";
}

/** Every stat except shared_races, plus the output bytes. */
struct Observables
{
    func::FuncStats stats;
    std::vector<uint8_t> out;
};

Observables
observeSgemm(bool check_races)
{
    // sgemm_tiled_nn: shared-memory tiles, barriers, 4 CTAs across a
    // 4-worker pool — the configuration the shadow must leave untouched.
    test::MiniGpu gpu;
    ThreadPool pool(4);
    gpu.engine.setThreadPool(&pool);
    gpu.exec.setRaceCheck(check_races);

    const ptx::Module m = ptx::parseModule(blas::kBlasPtx, "libcublas_lite.ptx");
    const unsigned n = 32;
    std::vector<float> a(n * n), b(n * n);
    for (unsigned i = 0; i < n * n; i++) {
        a[i] = float(i % 17) * 0.25f - 1.0f;
        b[i] = float(i % 13) * 0.5f - 2.0f;
    }
    const addr_t da = gpu.uploadVec(a);
    const addr_t db = gpu.uploadVec(b);
    const addr_t dc = gpu.alloc.alloc(n * n * 4);

    test::ParamPack p;
    p.add<uint64_t>(da).add<uint64_t>(db).add<uint64_t>(dc);
    p.add<uint32_t>(n).add<uint32_t>(n).add<uint32_t>(n);
    p.add<float>(1.0f).add<float>(0.0f);

    Observables obs;
    obs.stats = gpu.run(m, "sgemm_tiled_nn", Dim3(2, 2), Dim3(16, 16), p);
    obs.out = gpu.download<uint8_t>(dc, n * n * 4);
    return obs;
}

TEST(DynamicRace, BitwiseNeutralAtFourThreads)
{
    const Observables off = observeSgemm(false);
    const Observables on = observeSgemm(true);
    EXPECT_EQ(on.out, off.out);
    EXPECT_EQ(on.stats.instructions, off.stats.instructions);
    EXPECT_EQ(on.stats.thread_instructions, off.stats.thread_instructions);
    EXPECT_EQ(on.stats.alu, off.stats.alu);
    EXPECT_EQ(on.stats.sfu, off.stats.sfu);
    EXPECT_EQ(on.stats.mem, off.stats.mem);
    EXPECT_EQ(on.stats.global_ld_bytes, off.stats.global_ld_bytes);
    EXPECT_EQ(on.stats.global_st_bytes, off.stats.global_st_bytes);
    EXPECT_EQ(on.stats.shared_accesses, off.stats.shared_accesses);
    EXPECT_EQ(on.stats.atomics, off.stats.atomics);
    EXPECT_EQ(on.stats.barriers, off.stats.barriers);
    EXPECT_EQ(on.stats.flops, off.stats.flops);
    EXPECT_EQ(on.stats.shared_races, 0u) << "sgemm_tiled_nn is race-free";
    EXPECT_EQ(off.stats.shared_races, 0u);
}

// ---- error-path location satellites ------------------------------------

TEST(PtxParser, ParseErrorCarriesLineAndColumn)
{
    // The stray '$' sits on line 6 of this source string.
    const char *bad = R"(.version 6.4
.target sm_61
.address_size 64
.visible .entry broken()
{
    $bogus
}
)";
    try {
        ptx::parseModule(bad, "broken.ptx");
        FAIL() << "expected ParseError";
    } catch (const ptx::ParseError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("broken.ptx:6:"), std::string::npos)
            << "diagnostic must name line 6, got: " << msg;
    }
}

TEST(PtxAnalysis, UsesGlobalAtomicsRequiresAnalyzedKernel)
{
    ptx::KernelDef k;
    k.name = "never_analyzed";
    EXPECT_THROW(ptx::usesGlobalAtomics(k), PanicError);
}

TEST(Verifier, DiagnosticsStableOverDiskRoundTrip)
{
    // mlgs-lint consumes modules from files; the diagnostics (including
    // their line numbers) must not depend on whether the source came from
    // an in-memory literal or a file read back from disk.
    mlgs::test::ScopedTmpDir tmp;
    const std::string path = tmp.file("bad_race.ptx");
    {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good());
        out << kBadRace;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream src;
    src << in.rdbuf();

    const auto mem_diags = lint(kBadRace, "bad_race.ptx");
    const auto file_diags = lint(src.str().c_str(), "bad_race.ptx");
    ASSERT_EQ(file_diags.size(), mem_diags.size());
    for (size_t i = 0; i < mem_diags.size(); i++) {
        EXPECT_EQ(file_diags[i].check, mem_diags[i].check) << "diag " << i;
        EXPECT_EQ(file_diags[i].severity, mem_diags[i].severity)
            << "diag " << i;
        EXPECT_EQ(file_diags[i].line, mem_diags[i].line) << "diag " << i;
    }
}

} // namespace
