/**
 * @file
 * Shared record/replay harness for the trace subsystem: the conv_sample
 * workload (the fig11/fig12 forward-GEMM problem and every other algorithm
 * the sweeps iterate) and a one-step LeNet training workload, each split into
 * "build the ContextOptions" and "drive the frontend" so a TraceRecorder can
 * be attached in between. Used by the mlgs-trace CLI, the tab_algo_sweep
 * --replay bench, the mlgs-sweep serve client, and the trace fidelity tests.
 */
#ifndef MLGS_BENCH_TRACE_WORKLOADS_H
#define MLGS_BENCH_TRACE_WORKLOADS_H

#include <chrono>
#include <vector>

#include "bench/bench_util.h"
#include "torchlet/lenet.h"
#include "torchlet/mnist_synth.h"
#include "trace/recorder.h"
#include "trace/replayer.h"

namespace mlgs::bench
{

inline double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

inline const char *
passName(Pass p)
{
    switch (p) {
      case Pass::Forward: return "forward";
      case Pass::BackwardData: return "bwd_data";
      case Pass::BackwardFilter: return "bwd_filter";
    }
    return "?";
}

/** One conv_sample configuration (pass x algorithm x ablation knobs). */
struct ConvTraceSpec
{
    Pass pass = Pass::Forward;
    int algo = int(cudnn::ConvFwdAlgo::Gemm); ///< fig11/fig12 default
    ConvSampleShape shape;
    timing::SchedPolicy sched = timing::SchedPolicy::GTO;
    bool frfcfs = true;
};

inline const char *
convAlgoName(const ConvTraceSpec &spec)
{
    switch (spec.pass) {
      case Pass::Forward:
        return cudnn::fwdAlgoName(cudnn::ConvFwdAlgo(spec.algo));
      case Pass::BackwardData:
        return cudnn::bwdDataAlgoName(cudnn::ConvBwdDataAlgo(spec.algo));
      case Pass::BackwardFilter:
        return cudnn::bwdFilterAlgoName(cudnn::ConvBwdFilterAlgo(spec.algo));
    }
    return "?";
}

/** The Section V sweep: every algorithm of every pass (17 configurations). */
inline std::vector<ConvTraceSpec>
sweepSpecs()
{
    std::vector<ConvTraceSpec> specs;
    const auto add = [&](Pass pass, int algo) {
        ConvTraceSpec s;
        s.pass = pass;
        s.algo = algo;
        specs.push_back(s);
    };
    for (int a = 0; a <= int(cudnn::ConvFwdAlgo::WinogradNonfused); a++)
        add(Pass::Forward, a);
    for (int a = 0; a <= int(cudnn::ConvBwdDataAlgo::WinogradNonfused); a++)
        add(Pass::BackwardData, a);
    for (int a = 0; a <= int(cudnn::ConvBwdFilterAlgo::WinogradNonfused); a++)
        add(Pass::BackwardFilter, a);
    return specs;
}

inline cuda::ContextOptions
convTraceOptions(const ConvTraceSpec &spec)
{
    cuda::ContextOptions opts;
    opts.mode = cuda::SimMode::Performance;
    opts.gpu = timing::GpuConfig::gtx1080ti();
    opts.gpu.sched_policy = spec.sched;
    opts.gpu.dram_frfcfs = spec.frfcfs;
    // Recorded traces are golden-stats artifacts: pin the detailed cycle
    // model so an MLGS_TIMING in the environment can't change them. Timing-
    // mode comparisons opt in by overriding timing_mode explicitly.
    opts.timing_mode = sample::TimingMode::Detailed;
    return opts;
}

/**
 * Drive the conv_sample frontend on a context built with convTraceOptions().
 * Ends with a D2H readback of the pass's output tensor, so a recording of
 * this run carries (and replay verifies) the final tensor bytes. Returns the
 * output tensor.
 */
inline std::vector<float>
runConvFrontend(cuda::Context &ctx, const ConvTraceSpec &spec)
{
    cudnn::CudnnHandle h(ctx);
    const auto &cs = spec.shape;

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

    addr_t out_addr = 0;
    size_t out_count = 0;
    switch (spec.pass) {
      case Pass::Forward:
        h.convolutionForward(xd, dx, wd, dw, conv,
                             cudnn::ConvFwdAlgo(spec.algo), yd, dy);
        out_addr = dy;
        out_count = yd.count();
        break;
      case Pass::BackwardData:
        h.convolutionBackwardData(wd, dw, yd, dy, conv,
                                  cudnn::ConvBwdDataAlgo(spec.algo), xd, dx);
        out_addr = dx;
        out_count = xd.count();
        break;
      case Pass::BackwardFilter:
        h.convolutionBackwardFilter(xd, dx, yd, dy, conv,
                                    cudnn::ConvBwdFilterAlgo(spec.algo), wd,
                                    dw);
        out_addr = dw;
        out_count = wd.count();
        break;
    }
    ctx.deviceSynchronize();

    std::vector<float> out(out_count);
    ctx.memcpyD2H(out.data(), out_addr, out_count * sizeof(float));
    return out;
}

inline cuda::ContextOptions
lenetTraceOptions(cuda::SimMode mode = cuda::SimMode::Performance)
{
    cuda::ContextOptions opts;
    opts.mode = mode;
    opts.gpu = timing::GpuConfig::gtx1050();
    opts.timing_mode = sample::TimingMode::Detailed; // golden-stats workload
    return opts;
}

/**
 * One LeNet SGD training step (forward + backward + update) on a synthetic
 * MNIST image, ending with a full weight readback so the trace carries the
 * post-step parameter tensors. Returns the mean loss.
 */
inline float
runLenetTrainStepFrontend(cuda::Context &ctx,
                          torchlet::LeNetWeights *out_weights = nullptr)
{
    cudnn::CudnnHandle h(ctx);
    torchlet::LeNetAlgos algos;
    torchlet::LeNet net(h, 1, algos, 7);
    const auto data = torchlet::makeMnist(1, 555);
    const float loss = net.trainStep(data.image(0), data.labels.data(), 0.05f);
    const auto w = net.getWeights();
    if (out_weights)
        *out_weights = w;
    ctx.deviceSynchronize();
    return loss;
}

/** Totals + elapsed cycles of one replay pass on a fresh context. */
struct ReplayRun
{
    trace::ReplayResult result;
    timing::TimingTotals totals;
    cycle_t elapsed_cycles = 0;
};

/**
 * One replay pass. With `streams` (captured warp instruction streams) the
 * replay is trace-driven timing-only — no functional interpretation — and
 * still produces bitwise-identical statistics.
 */
inline ReplayRun
replayTrace(const trace::TraceReplayer &rep, std::string *stats_json = nullptr,
            const func::WarpStreamCache *streams = nullptr)
{
    cuda::Context ctx(rep.options());
    ReplayRun run;
    run.result = streams ? rep.replayTimingOnly(ctx, *streams)
                         : rep.replay(ctx);
    run.totals = ctx.gpuModel().totals();
    run.elapsed_cycles = ctx.elapsedCycles();
    if (stats_json)
        *stats_json = trace::statsJson(ctx);
    return run;
}

} // namespace mlgs::bench

#endif // MLGS_BENCH_TRACE_WORKLOADS_H
