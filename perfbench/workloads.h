/**
 * @file
 * Seeded workload generation. Each frontend runs on a recording Context with
 * a TraceRecorder attached; the simulator under test later receives only the
 * recorded .mlgstrace. The seed drives the synthetic MNIST image, the LeNet
 * weight init and the conv_sample input tensors.
 */
#ifndef MLGS_PERFBENCH_WORKLOADS_H
#define MLGS_PERFBENCH_WORKLOADS_H

#include <string>
#include <vector>

#include "common/rng.h"
#include "cudnn/cudnn.h"
#include "torchlet/lenet.h"
#include "torchlet/mnist_synth.h"
#include "trace/recorder.h"
#include "trace/replayer.h"

namespace mlgs::perfbench
{

enum class Pass { Forward, BackwardData, BackwardFilter };

/** One §V conv_sample configuration: a pass and one of its algorithms. */
struct ConvSpec
{
    Pass pass = Pass::Forward;
    int algo = 0;
};

inline std::string
convName(const ConvSpec &c)
{
    switch (c.pass) {
      case Pass::Forward:
        return std::string("fwd.") + cudnn::fwdAlgoName(cudnn::ConvFwdAlgo(c.algo));
      case Pass::BackwardData:
        return std::string("bwd_data.") +
               cudnn::bwdDataAlgoName(cudnn::ConvBwdDataAlgo(c.algo));
      case Pass::BackwardFilter:
        return std::string("bwd_filter.") +
               cudnn::bwdFilterAlgoName(cudnn::ConvBwdFilterAlgo(c.algo));
    }
    return "?";
}

/** The §V sweep without the two fused-WINOGRAD configurations (15). */
inline std::vector<ConvSpec>
sweepSpecs()
{
    std::vector<ConvSpec> out;
    for (int a = 0; a <= int(cudnn::ConvFwdAlgo::WinogradNonfused); a++)
        if (a != int(cudnn::ConvFwdAlgo::Winograd))
            out.push_back({Pass::Forward, a});
    for (int a = 0; a <= int(cudnn::ConvBwdDataAlgo::WinogradNonfused); a++)
        if (a != int(cudnn::ConvBwdDataAlgo::Winograd))
            out.push_back({Pass::BackwardData, a});
    for (int a = 0; a <= int(cudnn::ConvBwdFilterAlgo::WinogradNonfused); a++)
        out.push_back({Pass::BackwardFilter, a});
    return out;
}

/** A recorded workload: its trace and the recording run's statistics. */
struct Recorded
{
    std::string name;
    trace::TraceFile trace;
    std::string stats_json; ///< trace::statsJson of the recording Context
    uint64_t warp_instrs = 0;
};

/**
 * One LeNet SGD train step (batch 1, GTX 1050, detailed timing) recorded on
 * a functional context: the API op stream and every D2H payload are
 * mode-independent for this network, and replay re-verifies the payloads.
 * The trace is tagged for detailed replay.
 */
inline Recorded
recordLenetStep(uint64_t seed)
{
    cuda::ContextOptions opts;
    opts.mode = cuda::SimMode::Functional;
    opts.gpu = timing::GpuConfig::gtx1050();
    opts.timing_mode = sample::TimingMode::Detailed;
    opts.sim_threads = 1;
    cuda::Context ctx(opts);
    trace::TraceRecorder rec(ctx);
    {
        cudnn::CudnnHandle h(ctx);
        torchlet::LeNet net(h, 1, torchlet::LeNetAlgos{}, seed * 2 + 1);
        const auto data = torchlet::makeMnist(1, seed * 2 + 2);
        net.trainStep(data.image(0), data.labels.data(), 0.05f);
        (void)net.getWeights(); // full weight readback ends the trace
        ctx.deviceSynchronize();
    }
    rec.detach();
    Recorded r{"lenet_step", rec.finalize(), trace::statsJson(ctx),
                ctx.totalWarpInstructions()};
    r.trace.options.mode = uint8_t(cuda::SimMode::Performance);
    return r;
}

/**
 * One conv_sample pass (n=2 c=16 14x14, k=16 3x3, pad 1, GTX 1080 Ti) with
 * seeded inputs, ending in a D2H readback of the output tensor. Recorded on
 * a performance context when `perf_record` is set: algorithms that
 * accumulate with atomics produce mode-dependent float bits, and replay
 * verifies the recorded payloads.
 */
inline Recorded
recordConv(const ConvSpec &spec, uint64_t seed, bool perf_record)
{
    cuda::ContextOptions opts;
    opts.mode = perf_record ? cuda::SimMode::Performance
                            : cuda::SimMode::Functional;
    opts.gpu = timing::GpuConfig::gtx1080ti();
    opts.timing_mode = sample::TimingMode::Detailed;
    opts.sim_threads = 1;
    cuda::Context ctx(opts);
    trace::TraceRecorder rec(ctx);
    {
        cudnn::CudnnHandle h(ctx);
        const cudnn::TensorDesc xd(2, 16, 14, 14);
        const cudnn::FilterDesc wd(16, 16, 3, 3);
        const cudnn::ConvDesc conv{1, 1};
        const cudnn::TensorDesc yd = conv.outputDim(xd, wd);

        Rng rng(seed);
        std::vector<float> hx(xd.count()), hw(wd.count()), hdy(yd.count());
        for (auto *v : {&hx, &hw, &hdy})
            for (auto &f : *v)
                f = rng.uniform(-1.0f, 1.0f);
        const addr_t dx = ctx.malloc(xd.bytes());
        const addr_t dw = ctx.malloc(wd.bytes());
        const addr_t dy = ctx.malloc(yd.bytes());
        ctx.memcpyH2D(dx, hx.data(), xd.bytes());
        ctx.memcpyH2D(dw, hw.data(), wd.bytes());
        ctx.memcpyH2D(dy, hdy.data(), yd.bytes());

        addr_t out = dy;
        size_t out_bytes = yd.bytes();
        switch (spec.pass) {
          case Pass::Forward:
            h.convolutionForward(xd, dx, wd, dw, conv,
                                 cudnn::ConvFwdAlgo(spec.algo), yd, dy);
            break;
          case Pass::BackwardData:
            h.convolutionBackwardData(wd, dw, yd, dy, conv,
                                      cudnn::ConvBwdDataAlgo(spec.algo), xd,
                                      dx);
            out = dx;
            out_bytes = xd.bytes();
            break;
          case Pass::BackwardFilter:
            h.convolutionBackwardFilter(xd, dx, yd, dy, conv,
                                        cudnn::ConvBwdFilterAlgo(spec.algo),
                                        wd, dw);
            out = dw;
            out_bytes = wd.bytes();
            break;
        }
        ctx.deviceSynchronize();
        std::vector<uint8_t> host(out_bytes);
        ctx.memcpyD2H(host.data(), out, out_bytes);
    }
    rec.detach();
    Recorded r{convName(spec), rec.finalize(), trace::statsJson(ctx),
                ctx.totalWarpInstructions()};
    r.trace.options.mode = uint8_t(cuda::SimMode::Performance);
    return r;
}

} // namespace mlgs::perfbench

#endif // MLGS_PERFBENCH_WORKLOADS_H
