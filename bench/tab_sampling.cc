/**
 * @file
 * Sampled fast-forward timing bench: the same workloads in both timing
 * modes (detailed / sampled), reporting wall-clock speedup
 * against the detailed cycle model and the total-cycle error the speedup
 * costs. Two workloads:
 *
 *  - a LeNet/MNIST training epoch (N batch-1 SGD steps in one context,
 *    simulated GTX 1050) — the repeated-launch workload sampling is built
 *    for: after step one, every cluster has its representative and the
 *    remaining steps fast-forward;
 *  - the Section V conv_sample forward sweep (GTX 1080 Ti), R repeats of
 *    three algorithms, where each algorithm's kernels cluster across
 *    repeats.
 *
 * Emits BENCH_sampling.json with the speedup-vs-error curve per workload.
 *
 * Flags: --lenet-steps N (default 32), --conv-repeats R (default 4),
 *        --quick (N=4, R=2 — the CI smoke configuration).
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/cli_flags.h"
#include "sample/sampled_backend.h"
#include "torchlet/lenet.h"
#include "torchlet/mnist_synth.h"

using namespace mlgs;
using namespace mlgs::bench;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

/** One workload in one timing mode. */
struct ModeRun
{
    sample::TimingMode tm = sample::TimingMode::Detailed;
    double wall_seconds = 0.0;
    uint64_t total_cycles = 0;   ///< device-busy cycles (grand totals)
    cycle_t elapsed_cycles = 0;  ///< max stream timeline
    uint64_t launches = 0;
    uint64_t detailed = 0;
    uint64_t extrapolated = 0;
    double error_bound = 0.0;    ///< per-cluster spread error bar
    std::string sampling_json;   ///< full report ("null" in detailed mode)
};

void
collect(cuda::Context &ctx, ModeRun &run)
{
    run.total_cycles = ctx.gpuModel().totals().cycles;
    run.elapsed_cycles = ctx.elapsedCycles();
    run.launches = ctx.launchLog().size();
    if (const auto *sb = ctx.sampledBackend()) {
        const auto rep = sb->report();
        run.detailed = rep.detailed_launches;
        run.extrapolated = rep.extrapolated_launches;
        run.error_bound = rep.cycle_error_bound_rel;
        run.sampling_json = sample::reportJson(rep, 6);
    } else {
        run.detailed = run.launches;
        run.sampling_json = "null";
    }
}

/** N batch-1 SGD steps of LeNet on synthetic MNIST, one context. */
ModeRun
runLenetEpoch(sample::TimingMode tm, int steps)
{
    ModeRun run;
    run.tm = tm;
    cuda::ContextOptions opts;
    opts.mode = cuda::SimMode::Performance;
    opts.gpu = timing::GpuConfig::gtx1050();
    opts.timing_mode = tm;

    const auto data = torchlet::makeMnist(size_t(steps), 555);
    const auto t0 = std::chrono::steady_clock::now();
    cuda::Context ctx(opts);
    cudnn::CudnnHandle h(ctx);
    torchlet::LeNetAlgos algos;
    torchlet::LeNet net(h, 1, algos, 7);
    for (int i = 0; i < steps; i++)
        net.trainStep(data.image(size_t(i)), data.labels.data() + i, 0.05f);
    ctx.deviceSynchronize();
    run.wall_seconds = secondsSince(t0);
    collect(ctx, run);
    return run;
}

/** R repeats of the conv_sample forward pass under three algorithms. */
ModeRun
runConvSweep(sample::TimingMode tm, int repeats)
{
    ModeRun run;
    run.tm = tm;
    cuda::ContextOptions opts;
    opts.mode = cuda::SimMode::Performance;
    opts.gpu = timing::GpuConfig::gtx1080ti();
    opts.timing_mode = tm;

    const ConvSampleShape cs;
    const cudnn::TensorDesc xd(cs.n, cs.c, cs.h, cs.w);
    const cudnn::FilterDesc wd(cs.k, cs.c, cs.r, cs.s);
    const cudnn::ConvDesc conv{cs.pad, cs.stride};

    Rng rng(123);
    std::vector<float> hx(xd.count()), hw(wd.count());
    for (auto &v : hx)
        v = rng.uniform(-1.0f, 1.0f);
    for (auto &v : hw)
        v = rng.uniform(-1.0f, 1.0f);

    const cudnn::ConvFwdAlgo algos[] = {
        cudnn::ConvFwdAlgo::Gemm,
        cudnn::ConvFwdAlgo::ImplicitGemm,
        cudnn::ConvFwdAlgo::WinogradNonfused,
    };

    const auto t0 = std::chrono::steady_clock::now();
    cuda::Context ctx(opts);
    cudnn::CudnnHandle h(ctx);
    const cudnn::TensorDesc yd = conv.outputDim(xd, wd);
    const addr_t dx = ctx.malloc(xd.bytes());
    const addr_t dw = ctx.malloc(wd.bytes());
    const addr_t dy = ctx.malloc(yd.bytes());
    ctx.memcpyH2D(dx, hx.data(), xd.bytes());
    ctx.memcpyH2D(dw, hw.data(), wd.bytes());
    for (int r = 0; r < repeats; r++)
        for (const auto algo : algos)
            h.convolutionForward(xd, dx, wd, dw, conv, algo, yd, dy);
    ctx.deviceSynchronize();
    run.wall_seconds = secondsSince(t0);
    collect(ctx, run);
    return run;
}

double
relErr(uint64_t value, uint64_t reference)
{
    if (reference == 0)
        return 0.0;
    const double d = double(value) - double(reference);
    return (d < 0 ? -d : d) / double(reference);
}

void
printRow(const ModeRun &r, const ModeRun &detailed)
{
    std::printf("    %-9s %9.1fs %14llu cycles  speedup %5.2fx  "
                "err %6.3f%%  (det %llu / extrap %llu)\n",
                sample::timingModeName(r.tm), r.wall_seconds,
                (unsigned long long)r.total_cycles,
                detailed.wall_seconds / r.wall_seconds,
                100.0 * relErr(r.total_cycles, detailed.total_cycles),
                (unsigned long long)r.detailed,
                (unsigned long long)r.extrapolated);
}

std::string
runsJson(const std::vector<ModeRun> &runs)
{
    const ModeRun &det = runs[0];
    std::string out;
    char buf[512];
    for (size_t i = 0; i < runs.size(); i++) {
        const ModeRun &r = runs[i];
        std::snprintf(
            buf, sizeof buf,
            "      {\"mode\": \"%s\", \"wall_seconds\": %.3f, "
            "\"total_cycles\": %llu, \"elapsed_cycles\": %llu, "
            "\"launches\": %llu, \"detailed_launches\": %llu, "
            "\"extrapolated_launches\": %llu, "
            "\"speedup_vs_detailed\": %.3f, \"cycle_rel_err\": %.6f, "
            "\"error_bound_rel\": %.6f,\n       \"sampling\": ",
            sample::timingModeName(r.tm), r.wall_seconds,
            (unsigned long long)r.total_cycles,
            (unsigned long long)r.elapsed_cycles,
            (unsigned long long)r.launches, (unsigned long long)r.detailed,
            (unsigned long long)r.extrapolated,
            det.wall_seconds / r.wall_seconds,
            relErr(r.total_cycles, det.total_cycles), r.error_bound);
        out += buf;
        out += r.sampling_json;
        out += "}";
        out += i + 1 < runs.size() ? ",\n" : "\n";
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    int lenet_steps = 32;
    int conv_repeats = 4;
    for (int i = 1; i < argc; i++) {
        const bool has_value = i + 1 < argc;
        try {
            if (!std::strcmp(argv[i], "--lenet-steps") && has_value) {
                lenet_steps = parseFlag("--lenet-steps", argv[++i]);
            } else if (!std::strcmp(argv[i], "--conv-repeats") && has_value) {
                conv_repeats = parseFlag("--conv-repeats", argv[++i]);
            } else if (!std::strcmp(argv[i], "--quick")) {
                lenet_steps = 4;
                conv_repeats = 2;
            } else {
                fatal("unexpected argument ", argv[i]);
            }
        } catch (const FatalError &e) {
            std::fprintf(stderr,
                         "usage: tab_sampling [--lenet-steps N] "
                         "[--conv-repeats R] [--quick]\n%s\n",
                         e.what());
            return 2;
        }
    }

    const sample::TimingMode modes[] = {
        sample::TimingMode::Detailed,
        sample::TimingMode::Sampled,
    };

    printHeader("tab_sampling",
                "sampled fast-forward timing: speedup vs cycle error");

    std::printf("  lenet training epoch (%d batch-1 steps, gtx1050):\n",
                lenet_steps);
    std::vector<ModeRun> lenet;
    for (const auto tm : modes) {
        lenet.push_back(runLenetEpoch(tm, lenet_steps));
        printRow(lenet.back(), lenet.front());
    }

    std::printf("  conv_sample fwd sweep (%d repeats x 3 algos, gtx1080ti):\n",
                conv_repeats);
    std::vector<ModeRun> convs;
    for (const auto tm : modes) {
        convs.push_back(runConvSweep(tm, conv_repeats));
        printRow(convs.back(), convs.front());
    }

    const double headline_speedup =
        lenet[0].wall_seconds / lenet[1].wall_seconds;
    const double headline_err =
        relErr(lenet[1].total_cycles, lenet[0].total_cycles);

    std::ofstream os("BENCH_sampling.json", std::ios::binary);
    os << "{\n"
       << "  \"build_meta\": " << buildMetaJson() << ",\n"
       << "  \"lenet_steps\": " << lenet_steps << ",\n"
       << "  \"conv_repeats\": " << conv_repeats << ",\n"
       << "  \"workloads\": [\n"
       << "    {\"name\": \"lenet_train_epoch_b1_gtx1050\", \"runs\": [\n"
       << runsJson(lenet) << "    ]},\n"
       << "    {\"name\": \"conv_fwd_sweep_gtx1080ti\", \"runs\": [\n"
       << runsJson(convs) << "    ]}\n"
       << "  ],\n";
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "  \"headline_sampled_speedup\": %.3f,\n"
                  "  \"headline_sampled_cycle_rel_err\": %.6f\n}\n",
                  headline_speedup, headline_err);
    os << buf;

    std::printf("\n  headline (lenet epoch, sampled): %.2fx wall-clock at "
                "%.3f%% total-cycle error\n",
                headline_speedup, 100.0 * headline_err);
    std::printf("  wrote BENCH_sampling.json\n");
    return 0;
}
