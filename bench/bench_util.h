/**
 * @file
 * Shared harness for the figure-reproduction benches: the conv_sample
 * workload (Section V methodology — NVIDIA's cuDNN convolution sample run
 * under every algorithm on a simulated GTX 1080 Ti) and the MNIST/LeNet
 * correlation workload (Section IV, simulated GTX 1050).
 */
#ifndef MLGS_BENCH_BENCH_UTIL_H
#define MLGS_BENCH_BENCH_UTIL_H

#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "cudnn/cudnn.h"
#include "power/power_model.h"
#include "sample/options.h"
#include "stats/aerial.h"
#include "torchlet/lenet_cpu.h"

namespace mlgs::bench
{

/**
 * Build/environment stamp embedded in every BENCH_*.json ("build_meta" key):
 * results are meaningless to compare across compilers, build types, or
 * resolved timing modes, so each artifact records the ones it was produced
 * under.
 */
inline std::string
buildMetaJson(int device_count = 1)
{
    const char *compiler =
#if defined(__clang__)
        "clang " __clang_version__;
#elif defined(__GNUC__)
        "gcc " __VERSION__;
#else
        "unknown";
#endif
    const char *build_type =
#ifdef NDEBUG
        "release";
#else
        "debug";
#endif
    std::ostringstream os;
    os << "{\"compiler\": \"" << compiler << "\", \"build_type\": \""
       << build_type
       << "\", \"sim_threads\": " << ThreadPool::resolveThreadCount(0)
       << ", \"timing_mode\": \""
       << sample::timingModeName(
              sample::resolveTimingMode(sample::TimingMode::Auto))
       << "\", \"device_count\": " << device_count << "}";
    return os.str();
}

/** The conv_sample problem (paper Section V; sizes scaled per DESIGN.md). */
struct ConvSampleShape
{
    int n = 2, c = 16, h = 14, w = 14;
    int k = 16, r = 3, s = 3, pad = 1, stride = 1;
};

/** Which convolution pass to run. */
enum class Pass { Forward, BackwardData, BackwardFilter };

struct ConvSampleResult
{
    std::string algo_name;
    timing::KernelRunStats last_kernel;
    cycle_t total_cycles = 0;
    double ipc = 0.0;
    std::unique_ptr<stats::AerialSampler> sampler;
    timing::TimingTotals totals;
};

/**
 * Run one conv_sample pass with one algorithm on the performance model.
 *
 * @param bucket AerialVision sampling bucket in cycles.
 */
inline ConvSampleResult
runConvSample(Pass pass, int fwd_algo, const ConvSampleShape &cs = {},
              unsigned bucket = 256,
              timing::SchedPolicy sched = timing::SchedPolicy::GTO,
              bool frfcfs = true)
{
    cuda::ContextOptions opts;
    opts.mode = cuda::SimMode::Performance;
    opts.gpu = timing::GpuConfig::gtx1080ti();
    opts.gpu.sched_policy = sched;
    opts.gpu.dram_frfcfs = frfcfs;
    cuda::Context ctx(opts);
    cudnn::CudnnHandle h(ctx);

    auto sampler = std::make_unique<stats::AerialSampler>(
        bucket, opts.gpu.num_cores, opts.gpu.totalDramBanks());
    ctx.attachSampler(sampler.get());

    const cudnn::TensorDesc xd(cs.n, cs.c, cs.h, cs.w);
    const cudnn::FilterDesc wd(cs.k, cs.c, cs.r, cs.s);
    const cudnn::ConvDesc conv{cs.pad, cs.stride};
    const cudnn::TensorDesc yd = conv.outputDim(xd, wd);

    Rng rng(123);
    std::vector<float> hx(xd.count()), hw(wd.count()), hdy(yd.count());
    for (auto &v : hx)
        v = rng.uniform(-1.0f, 1.0f);
    for (auto &v : hw)
        v = rng.uniform(-1.0f, 1.0f);
    for (auto &v : hdy)
        v = rng.uniform(-1.0f, 1.0f);

    const addr_t dx = ctx.malloc(xd.bytes());
    const addr_t dw = ctx.malloc(wd.bytes());
    const addr_t dy = ctx.malloc(yd.bytes());
    ctx.memcpyH2D(dx, hx.data(), xd.bytes());
    ctx.memcpyH2D(dw, hw.data(), wd.bytes());
    ctx.memcpyH2D(dy, hdy.data(), yd.bytes());

    ConvSampleResult res;
    switch (pass) {
      case Pass::Forward: {
        const auto algo = cudnn::ConvFwdAlgo(fwd_algo);
        res.algo_name = cudnn::fwdAlgoName(algo);
        h.convolutionForward(xd, dx, wd, dw, conv, algo, yd, dy);
        break;
      }
      case Pass::BackwardData: {
        const auto algo = cudnn::ConvBwdDataAlgo(fwd_algo);
        res.algo_name = cudnn::bwdDataAlgoName(algo);
        h.convolutionBackwardData(wd, dw, yd, dy, conv, algo, xd, dx);
        break;
      }
      case Pass::BackwardFilter: {
        const auto algo = cudnn::ConvBwdFilterAlgo(fwd_algo);
        res.algo_name = cudnn::bwdFilterAlgoName(algo);
        h.convolutionBackwardFilter(xd, dx, yd, dy, conv, algo, wd, dw);
        break;
      }
    }
    ctx.deviceSynchronize();
    sampler->finish();

    for (const auto &rec : ctx.launchLog())
        res.total_cycles += rec.cycles;
    res.totals = ctx.gpuModel().totals();
    res.ipc = res.total_cycles
                  ? double(res.totals.warp_instructions) /
                        double(res.total_cycles)
                  : 0.0;
    res.sampler = std::move(sampler);
    return res;
}

/** Per-kernel aggregated cycles from a launch log. */
inline std::map<std::string, uint64_t>
cyclesByKernel(const std::vector<cuda::LaunchRecord> &log)
{
    std::map<std::string, uint64_t> out;
    for (const auto &rec : log)
        out[rec.kernel_name] += rec.cycles;
    return out;
}

/** MNIST/LeNet run (Section IV): 3 classified images, selectable mode. */
struct MnistRun
{
    std::vector<cuda::LaunchRecord> log;
    timing::TimingTotals totals;
    cycle_t elapsed_cycles = 0;
    int correct = 0;
};

inline MnistRun
runMnistInference(cuda::SimMode mode, const torchlet::LeNetWeights &weights,
                  const torchlet::MnistData &data, int images = 3)
{
    cuda::ContextOptions opts;
    opts.mode = mode;
    opts.gpu = timing::GpuConfig::gtx1050();
    cuda::Context ctx(opts);
    cudnn::CudnnHandle h(ctx);
    torchlet::LeNetAlgos algos; // conv1 FFT(32x32), conv2 WN, GEMV2T head
    torchlet::LeNet net(h, 1, algos);
    net.setWeights(weights);

    // Second net variant: conv2 through 16x16 FFT tiles (the MNIST run in
    // the paper exercises both fft2d_r2c_32x32 and _16x16).
    torchlet::LeNetAlgos algos16 = algos;
    algos16.conv2 = cudnn::ConvFwdAlgo::FftTiling;
    torchlet::LeNet net16(h, 1, algos16);
    net16.setWeights(weights);

    MnistRun run;
    for (int i = 0; i < images; i++) {
        auto &n = (i == images - 1) ? net16 : net;
        const int pred = n.predict(data.image(size_t(i)))[0];
        if (uint32_t(pred) == data.labels[size_t(i)])
            run.correct++;
    }
    run.log = ctx.launchLog();
    run.totals = ctx.gpuModel().totals();
    run.elapsed_cycles = ctx.elapsedCycles();
    return run;
}

/** Pretrained weights + dataset shared by the MNIST benches. */
inline const torchlet::LeNetWeights &
pretrainedWeights()
{
    static const torchlet::LeNetWeights w = [] {
        const auto train = torchlet::makeMnist(60, 1234);
        return torchlet::trainLeNetOnHost(train, 42, 250, 16, 0.05f);
    }();
    return w;
}

inline const torchlet::MnistData &
testImages()
{
    static const torchlet::MnistData d = torchlet::makeMnist(10, 999);
    return d;
}

inline void
printHeader(const char *fig, const char *title)
{
    std::printf("==================================================\n");
    std::printf("%s — %s\n", fig, title);
    std::printf("==================================================\n");
}

} // namespace mlgs::bench

#endif // MLGS_BENCH_BENCH_UTIL_H
