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
 * Each run also carries a 256-cycle AerialVision sampler, pinned by its
 * bucket count, summed series and a digest over every bucket.
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
#include "common/fnv.h"
#include "cudnn/cudnn.h"
#include "runtime/context.h"
#include "stats/aerial.h"

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
appendVector(std::ostringstream &os, const char *key,
             const std::vector<uint64_t> &v, const char *indent = "      ")
{
    os << indent << "\"" << key << "\": [";
    for (size_t i = 0; i < v.size(); i++)
        os << (i ? ", " : "") << v[i];
    os << "]";
}

/**
 * The sampler's block: bucket count, series summed over buckets (banks
 * summed too) and an FNV-1a digest over every bucket's raw integer vectors.
 */
void
appendAerial(std::ostringstream &os, const stats::AerialSampler &sampler)
{
    uint64_t instructions = 0, bank_busy = 0, bank_pending = 0;
    std::vector<uint64_t> lanes(33, 0);
    std::vector<uint64_t> stalls(size_t(stats::StallKind::kCount), 0);
    Fnv1a digest;
    const auto hashVec = [&](const std::vector<uint64_t> &v) {
        digest.add<uint64_t>(v.size()).addBytes(v.data(), v.size() * 8);
    };
    for (const stats::AerialBucket &b : sampler.buckets()) {
        instructions += b.instructions;
        for (size_t i = 0; i < lanes.size(); i++)
            lanes[i] += b.lane_histogram[i];
        for (size_t i = 0; i < stalls.size(); i++)
            stalls[i] += b.stalls[i];
        for (size_t k = 0; k < b.bank_busy.size(); k++) {
            bank_busy += b.bank_busy[k];
            bank_pending += b.bank_pending[k];
        }
        digest.add<uint64_t>(b.start_cycle).add<uint64_t>(b.cycles);
        digest.add<uint64_t>(b.instructions);
        for (const auto *v : {&b.core_instructions, &b.core_thread_instructions,
                              &b.lane_histogram, &b.stalls, &b.bank_busy,
                              &b.bank_pending})
            hashVec(*v);
    }
    os << "      \"aerial\": {\n"
       << "        \"buckets\": " << sampler.buckets().size() << ",\n"
       << "        \"instructions\": " << instructions << ",\n";
    appendVector(os, "lane_histogram", lanes, "        ");
    os << ",\n";
    appendVector(os, "stalls", stalls, "        ");
    os << ",\n"
       << "        \"bank_busy\": " << bank_busy << ",\n"
       << "        \"bank_pending\": " << bank_pending << ",\n"
       << "        \"digest\": \"" << std::hex << digest.hash() << std::dec
       << "\"\n      },\n";
}

/** Simulate one run and render its stats block (fixed key order). */
std::string
renderRun(const GoldenRun &run)
{
    ConvTraceSpec spec;
    spec.pass = run.pass;
    spec.algo = run.algo;

    const cuda::ContextOptions opts = convTraceOptions(spec);
    cuda::Context ctx(opts);
    stats::AerialSampler sampler(256, opts.gpu.num_cores,
                                 opts.gpu.totalDramBanks());
    ctx.attachSampler(&sampler);
    runConvFrontend(ctx, spec);
    sampler.finish();

    const timing::TimingTotals &t = ctx.gpuModel().totals();
    std::ostringstream os;
    os << "    \"" << run.name << "\": {\n";
    appendAerial(os, sampler);
    for (const auto &c : timing::kTimingCounters)
        os << "      \"" << c.name << "\": " << t.*c.member << ",\n";
    appendVector(os, "bank_row_hits", ctx.gpuModel().perBankRowHits());
    os << ",\n";
    appendVector(os, "bank_row_misses", ctx.gpuModel().perBankRowMisses());
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
