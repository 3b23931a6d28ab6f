/**
 * @file
 * Multi-GPU data-parallel training scaling bench: one LeNet SGD step at a
 * fixed global batch, strong-scaled across 1/2/4/8 simulated GPUs connected
 * by an NVLink-class link fabric. The step metric is simulated time — the
 * max-over-device elapsed-cycle delta for the step, since the step finishes
 * when the slowest device does — so speedup measures what the timing model
 * says about the workload, not host wall clock.
 *
 * The gradient exchange is the nccl-lite Chain all-reduce (the
 * bitwise-reproducible schedule DataParallelLeNet trains with); a second
 * section microbenchmarks Chain vs Ring on a LeNet-sized gradient so the
 * communication-bound tail of the scaling curve is attributable.
 *
 * Emits BENCH_multi_gpu.json.
 *
 * Flags: --batch N       global batch (default 16; must divide by 8)
 *        --steps S       measured steps per config (default 1)
 *        --quick         1/2-GPU configs only (the CI smoke configuration)
 *        --min-speedup2 X  exit 1 unless the 2-GPU speedup is >= X
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/cli_flags.h"
#include "nccl/nccl_lite.h"
#include "torchlet/data_parallel.h"
#include "torchlet/lenet.h"
#include "torchlet/mnist_synth.h"

using namespace mlgs;
using namespace mlgs::bench;

namespace
{

/** NVLink-class per-directed-link shape (vs the PCIe-ish default). */
link::LinkConfig
nvlinkClass()
{
    link::LinkConfig link;
    link.bytes_per_cycle = 64.0;
    link.latency = 700;
    return link;
}

cycle_t
maxElapsed(cuda::Context &ctx)
{
    cycle_t m = 0;
    for (int d = 0; d < ctx.deviceCount(); d++)
        m = std::max(m, ctx.elapsedCycles(d));
    return m;
}

void
syncAll(cuda::Context &ctx)
{
    for (int d = 0; d < ctx.deviceCount(); d++) {
        ctx.setDevice(d);
        ctx.deviceSynchronize();
    }
}

struct ScalingRun
{
    int devices = 1;
    cycle_t step_cycles = 0;
    float loss = 0.0f;
    uint64_t link_transfers = 0;
    uint64_t link_bytes = 0;
};

/** One strong-scaled config: `devices` GPUs sharing `global_batch`. */
ScalingRun
runScalingConfig(int devices, int global_batch, int steps)
{
    cuda::ContextOptions opts;
    opts.mode = cuda::SimMode::Performance;
    opts.gpu = timing::GpuConfig::gtx1050();
    opts.device_count = devices;
    opts.link = nvlinkClass();
    cuda::Context ctx(opts);

    torchlet::LeNetAlgos algos;
    algos.conv1 = cudnn::ConvFwdAlgo::ImplicitGemm;
    algos.conv2 = cudnn::ConvFwdAlgo::ImplicitGemm;
    // A batch-1 shard would switch the fc2 forward to the GEMV2T kernel and
    // off the shared SGEMM path every other shard size uses; pin one kernel
    // choice so every config runs the same math.
    algos.fc2_gemv2t = false;
    torchlet::DataParallelLeNet dp(ctx, global_batch, algos, 7);
    const auto data =
        torchlet::makeMnist(size_t(global_batch) * size_t(steps), 321);

    syncAll(ctx);
    const cycle_t base = maxElapsed(ctx);
    const uint64_t base_transfers = ctx.fabric().totalTransfers();
    const uint64_t base_bytes = ctx.fabric().totalBytes();

    ScalingRun run;
    run.devices = devices;
    for (int s = 0; s < steps; s++)
        run.loss = dp.trainStep(data.image(size_t(s) * size_t(global_batch)),
                                data.labels.data() +
                                    size_t(s) * size_t(global_batch),
                                0.05f);
    syncAll(ctx);
    run.step_cycles = (maxElapsed(ctx) - base) / cycle_t(steps);
    run.link_transfers = ctx.fabric().totalTransfers() - base_transfers;
    run.link_bytes = ctx.fabric().totalBytes() - base_bytes;
    return run;
}

struct AllReduceRun
{
    int devices = 0;
    const char *algo = "";
    cycle_t cycles = 0;
};

/** Chain-vs-Ring all-reduce of a LeNet-sized gradient (431,080 floats). */
AllReduceRun
runAllReduce(int devices, nccl::AllReduceAlgo algo, const char *algo_name)
{
    constexpr size_t kCount = 431080;
    cuda::ContextOptions opts;
    opts.mode = cuda::SimMode::Performance;
    opts.gpu = timing::GpuConfig::gtx1050();
    opts.device_count = devices;
    opts.link = nvlinkClass();
    cuda::Context ctx(opts);
    nccl::Communicator comm(ctx);

    std::vector<addr_t> bufs;
    std::vector<float> vals(kCount, 0.125f);
    for (int r = 0; r < devices; r++) {
        ctx.setDevice(r);
        bufs.push_back(ctx.malloc(kCount * sizeof(float)));
        ctx.memcpyH2D(bufs.back(), vals.data(), kCount * sizeof(float));
    }
    syncAll(ctx);
    const cycle_t base = maxElapsed(ctx);
    comm.allReduceSum(bufs, kCount, algo);
    syncAll(ctx);

    AllReduceRun run;
    run.devices = devices;
    run.algo = algo_name;
    run.cycles = maxElapsed(ctx) - base;
    return run;
}

} // namespace

int
main(int argc, char **argv)
{
    int global_batch = 16;
    int steps = 1;
    bool quick = false;
    double min_speedup2 = 0.0;
    for (int i = 1; i < argc; i++) {
        const bool has_value = i + 1 < argc;
        try {
            if (!std::strcmp(argv[i], "--batch") && has_value)
                global_batch = parseFlag("--batch", argv[++i]);
            else if (!std::strcmp(argv[i], "--steps") && has_value)
                steps = parseFlag("--steps", argv[++i]);
            else if (!std::strcmp(argv[i], "--quick"))
                quick = true;
            else if (!std::strcmp(argv[i], "--min-speedup2") && has_value)
                min_speedup2 = parseFlag<double>("--min-speedup2", argv[++i]);
            else
                fatal("unexpected argument ", argv[i]);
        } catch (const FatalError &e) {
            std::fprintf(stderr,
                         "usage: tab_multi_gpu [--batch N] [--steps S] "
                         "[--quick] [--min-speedup2 X]\n%s\n",
                         e.what());
            return 2;
        }
    }

    std::vector<int> device_counts = quick ? std::vector<int>{1, 2}
                                           : std::vector<int>{1, 2, 4, 8};
    if (global_batch % device_counts.back() != 0) {
        std::fprintf(stderr, "--batch must divide by %d\n",
                     device_counts.back());
        return 2;
    }

    printHeader("tab_multi_gpu",
                "data-parallel LeNet strong scaling over the link fabric");
    std::printf("  global batch %d, %d step(s), gtx1050 per device, "
                "NVLink-class links (64 B/cycle, 700 cycles)\n\n",
                global_batch, steps);

    std::vector<ScalingRun> runs;
    for (const int n : device_counts) {
        runs.push_back(runScalingConfig(n, global_batch, steps));
        const ScalingRun &r = runs.back();
        const double speedup =
            double(runs.front().step_cycles) / double(r.step_cycles);
        std::printf("    %d GPU%s: %12llu cycles/step  speedup %5.2fx  "
                    "efficiency %5.1f%%  (%llu link transfers, %.2f MB)\n",
                    r.devices, r.devices == 1 ? " " : "s",
                    (unsigned long long)r.step_cycles, speedup,
                    100.0 * speedup / r.devices,
                    (unsigned long long)r.link_transfers,
                    double(r.link_bytes) / 1.0e6);
    }

    std::printf("\n  all-reduce of a LeNet-sized gradient "
                "(431,080 floats):\n");
    std::vector<AllReduceRun> ars;
    for (const int n : device_counts) {
        if (n < 2)
            continue;
        for (const auto &[algo, name] :
             {std::pair{nccl::AllReduceAlgo::Chain, "chain"},
              std::pair{nccl::AllReduceAlgo::Ring, "ring"}}) {
            ars.push_back(runAllReduce(n, algo, name));
            std::printf("    %d GPUs %-6s %12llu cycles\n", n, name,
                        (unsigned long long)ars.back().cycles);
        }
    }

    const double speedup2 = runs.size() > 1
                                ? double(runs[0].step_cycles) /
                                      double(runs[1].step_cycles)
                                : 1.0;

    std::ofstream os("BENCH_multi_gpu.json", std::ios::binary);
    os << "{\n"
       << "  \"build_meta\": " << buildMetaJson(device_counts.back())
       << ",\n"
       << "  \"global_batch\": " << global_batch << ",\n"
       << "  \"steps\": " << steps << ",\n"
       << "  \"link\": {\"bytes_per_cycle\": 64.0, \"latency\": 700},\n"
       << "  \"scaling\": [\n";
    for (size_t i = 0; i < runs.size(); i++) {
        const ScalingRun &r = runs[i];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "    {\"devices\": %d, \"step_cycles\": %llu, "
                      "\"speedup\": %.4f, \"loss\": %.6f, "
                      "\"link_transfers\": %llu, \"link_bytes\": %llu}%s\n",
                      r.devices, (unsigned long long)r.step_cycles,
                      double(runs[0].step_cycles) / double(r.step_cycles),
                      double(r.loss), (unsigned long long)r.link_transfers,
                      (unsigned long long)r.link_bytes,
                      i + 1 < runs.size() ? "," : "");
        os << buf;
    }
    os << "  ],\n  \"allreduce_431080_floats\": [\n";
    for (size_t i = 0; i < ars.size(); i++) {
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "    {\"devices\": %d, \"algo\": \"%s\", "
                      "\"cycles\": %llu}%s\n",
                      ars[i].devices, ars[i].algo,
                      (unsigned long long)ars[i].cycles,
                      i + 1 < ars.size() ? "," : "");
        os << buf;
    }
    char buf[80];
    std::snprintf(buf, sizeof buf, "  ],\n  \"speedup_2gpu\": %.4f\n}\n",
                  speedup2);
    os << buf;

    std::printf("\n  2-GPU speedup: %.2fx\n  wrote BENCH_multi_gpu.json\n",
                speedup2);
    if (min_speedup2 > 0.0 && speedup2 < min_speedup2) {
        std::fprintf(stderr,
                     "FAIL: 2-GPU speedup %.2fx below required %.2fx\n",
                     speedup2, min_speedup2);
        return 1;
    }
    return 0;
}
