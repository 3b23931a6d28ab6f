/**
 * @file
 * Golden-stats regression suite: five representative conv runs (the sgemm
 * forward-GEMM path, the winograd non-fused tile pipeline, implicit gemm,
 * the forward FFT path for its SFU sin/cos and float div, and backward-filter
 * algo 0 for its red.global atomics) are simulated live and every TimingTotals counter plus the per-bank DRAM
 * row hit/miss vectors are diffed against a checked-in JSON baseline —
 * byte for byte, since the simulator guarantees bitwise-deterministic
 * statistics across thread counts and compilers. Until now only the
 * trace-replay bench pinned these numbers; this makes the pin tier-1.
 *
 * Regenerating after an intentional model change:
 *
 *     MLGS_UPDATE_GOLDEN=1 ./mlgs_tests --gtest_filter='GoldenStats.*'
 *
 * rewrites tests/golden_stats.json in the source tree and the test passes;
 * review the diff like any other code change.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/trace_workloads.h"
#include "cudnn/cudnn.h"
#include "runtime/context.h"

using namespace mlgs;
using namespace mlgs::bench;

namespace
{

struct GoldenRun
{
    const char *name;
    Pass pass;
    int algo;
};

/**
 * The paper workloads the golden file pins, all on the conv_sample shape;
 * the pass and algorithm pick the kernel family under test. The first
 * three issue no SFU op, float div or red; fft and bwd_filter_algo0 pin
 * those op classes.
 */
const GoldenRun kRuns[] = {
    {"sgemm", Pass::Forward, int(cudnn::ConvFwdAlgo::Gemm)},
    {"winograd_tile", Pass::Forward,
     int(cudnn::ConvFwdAlgo::WinogradNonfused)},
    {"implicit_gemm", Pass::Forward, int(cudnn::ConvFwdAlgo::ImplicitGemm)},
    {"fft", Pass::Forward, int(cudnn::ConvFwdAlgo::Fft)},
    {"bwd_filter_algo0", Pass::BackwardFilter,
     int(cudnn::ConvBwdFilterAlgo::Algo0)},
};

void
appendBankVector(std::ostringstream &os, const char *key,
                 const std::vector<uint64_t> &v)
{
    os << "      \"" << key << "\": [";
    for (size_t i = 0; i < v.size(); i++)
        os << (i ? ", " : "") << v[i];
    os << "]";
}

/** Simulate one run and render its stats block (fixed key order). */
std::string
renderRun(const GoldenRun &run)
{
    ConvTraceSpec spec;
    spec.pass = run.pass;
    spec.algo = run.algo;

    cuda::Context ctx(convTraceOptions(spec));
    runConvFrontend(ctx, spec);

    const timing::TimingTotals &t = ctx.gpuModel().totals();
    std::ostringstream os;
    os << "    \"" << run.name << "\": {\n";
    for (const auto &c : timing::kTimingCounters)
        os << "      \"" << c.name << "\": " << t.*c.member << ",\n";
    appendBankVector(os, "bank_row_hits", ctx.gpuModel().perBankRowHits());
    os << ",\n";
    appendBankVector(os, "bank_row_misses", ctx.gpuModel().perBankRowMisses());
    os << "\n    }";
    return os.str();
}

std::string
renderAll()
{
    std::ostringstream os;
    os << "{\n  \"golden_stats\": {\n";
    for (size_t i = 0; i < std::size(kRuns); i++)
        os << renderRun(kRuns[i]) << (i + 1 < std::size(kRuns) ? ",\n" : "\n");
    os << "  }\n}\n";
    return os.str();
}

/** First line where the two renderings differ, for a readable diff. */
std::string
firstLineDiff(const std::string &want, const std::string &got)
{
    std::istringstream a(want), b(got);
    std::string la, lb;
    unsigned line = 0;
    while (true) {
        const bool ea = !std::getline(a, la);
        const bool eb = !std::getline(b, lb);
        line++;
        if (ea && eb)
            return "no textual difference";
        if (ea != eb || la != lb) {
            std::ostringstream os;
            os << "line " << line << ":\n  golden: " << (ea ? "<eof>" : la)
               << "\n  live:   " << (eb ? "<eof>" : lb);
            return os.str();
        }
    }
}

} // namespace

TEST(GoldenStats, RepresentativeKernelsMatchCheckedInBaseline)
{
    const std::string live = renderAll();
    const char *path = MLGS_GOLDEN_STATS_JSON;

    if (std::getenv("MLGS_UPDATE_GOLDEN")) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << live;
        SUCCEED() << "regenerated " << path;
        return;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing " << path
        << " — run once with MLGS_UPDATE_GOLDEN=1 to create it";
    std::ostringstream golden;
    golden << in.rdbuf();

    EXPECT_EQ(golden.str(), live)
        << "live stats diverged from tests/golden_stats.json; first diff at "
        << firstLineDiff(golden.str(), live)
        << "\nIf the change is intentional, regenerate with "
           "MLGS_UPDATE_GOLDEN=1 and review the JSON diff.";
}
