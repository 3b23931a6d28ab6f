/**
 * @file
 * Section III-F claims, as a google-benchmark table: Performance mode is
 * ~7-8x slower (wall clock) than Functional mode, and checkpointing lets a
 * user fast-forward functionally and pay the detailed-model cost only for
 * the region of interest. Also emits BENCH_sim_speed.json — a
 * machine-readable record of simulator throughput (kernels/sec,
 * warp-instrs/sec, wall-clock) per mode and sim_threads setting, plus
 * detailed-timing replays of the recorded LeNet train step and the
 * fused-WINOGRAD forward conv (sim cycles/s, warp-instrs/s, CPU seconds),
 * so the perf trajectory is tracked across PRs.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <thread>

#include "bench/bench_util.h"
#include "bench/trace_workloads.h"
#include "chkpt/checkpoint.h"

using namespace mlgs;
using namespace mlgs::bench;

namespace
{

/** What one conv-workload run executed (throughput denominators). */
struct WorkloadCounts
{
    uint64_t kernels = 0;
    uint64_t warp_instructions = 0;
};

/** A mid-sized conv workload used for mode-speed comparison. */
WorkloadCounts
runConvWorkload(cuda::SimMode mode, unsigned sim_threads = 1)
{
    cuda::ContextOptions opts;
    opts.mode = mode;
    opts.gpu = timing::GpuConfig::gtx1050();
    opts.sim_threads = sim_threads;
    cuda::Context ctx(opts);
    cudnn::CudnnHandle h(ctx);

    const cudnn::TensorDesc xd(2, 8, 14, 14);
    const cudnn::FilterDesc wd(8, 8, 3, 3);
    const cudnn::ConvDesc conv{1, 1};
    const cudnn::TensorDesc yd = conv.outputDim(xd, wd);
    const addr_t x = ctx.malloc(xd.bytes());
    const addr_t w = ctx.malloc(wd.bytes());
    const addr_t y = ctx.malloc(yd.bytes());
    h.convolutionForward(xd, x, wd, w, conv, cudnn::ConvFwdAlgo::ImplicitGemm,
                         yd, y);
    h.convolutionForward(xd, x, wd, w, conv,
                         cudnn::ConvFwdAlgo::WinogradNonfused, yd, y);
    ctx.deviceSynchronize();

    WorkloadCounts counts;
    counts.kernels = ctx.launchLog().size();
    counts.warp_instructions = ctx.totalWarpInstructions();
    if (mode == cuda::SimMode::Performance)
        counts.warp_instructions = ctx.gpuModel().totals().warp_instructions;
    return counts;
}

void
BM_FunctionalMode(benchmark::State &state)
{
    const auto threads = unsigned(state.range(0));
    for (auto _ : state)
        runConvWorkload(cuda::SimMode::Functional, threads);
}
BENCHMARK(BM_FunctionalMode)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void
BM_PerformanceMode(benchmark::State &state)
{
    const auto threads = unsigned(state.range(0));
    for (auto _ : state)
        runConvWorkload(cuda::SimMode::Performance, threads);
}
// Detailed timing steps its cores on one host thread at any sim_threads.
BENCHMARK(BM_PerformanceMode)->Arg(1)->Unit(benchmark::kMillisecond);

/** Checkpoint fast-forward: functional prefix + detailed tail. */
void
BM_CheckpointResumeTail(benchmark::State &state)
{
    // Write the checkpoint once.
    const char *path = "/tmp/mlgs_bench.ckpt";
    const char *kScale = R"(
.visible .entry scale_buf(.param .u64 Buf, .param .u32 n, .param .f32 a)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<6>;
    .reg .f32 %f<4>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [Buf];
    ld.param.u32 %r1, [n];
    ld.param.f32 %f1, [a];
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mov.u32 %r4, %tid.x;
    mad.lo.u32 %r5, %r2, %r3, %r4;
    setp.ge.u32 %p1, %r5, %r1;
    @%p1 bra DONE;
    mul.wide.u32 %rd2, %r5, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.f32 %f2, [%rd3];
    mul.f32 %f3, %f2, %f1;
    st.global.f32 [%rd3], %f3;
DONE:
    ret;
}
)";
    const unsigned n = 1 << 16;
    auto runApp = [&](cuda::Context &ctx) {
        ctx.loadModule(kScale, "scale.ptx");
        const addr_t buf = ctx.malloc(n * 4);
        std::vector<float> host(n, 1.0f);
        ctx.memcpyH2D(buf, host.data(), n * 4);
        cuda::KernelArgs args;
        args.ptr(buf).u32(n).f32(1.0001f);
        for (int i = 0; i < 8; i++)
            ctx.launch("scale_buf", Dim3(n / 128), Dim3(128), args);
        ctx.deviceSynchronize();
    };
    {
        cuda::Context ctx;
        chkpt::CheckpointConfig cfg;
        cfg.kernel_x = 7; // detailed-simulate only the last kernel
        cfg.path = path;
        chkpt::CheckpointWriter writer(ctx, cfg);
        runApp(ctx);
    }
    for (auto _ : state) {
        cuda::ContextOptions opts;
        opts.mode = cuda::SimMode::Performance;
        opts.gpu = timing::GpuConfig::gtx1050();
        cuda::Context ctx(opts);
        ctx.loadModule(kScale, "pre.ptx"); // loader requires the kernel
        chkpt::CheckpointLoader loader(ctx, path);
        runApp(ctx);
    }
}
BENCHMARK(BM_CheckpointResumeTail)->Unit(benchmark::kMillisecond);

void
BM_FullPerformanceRun(benchmark::State &state)
{
    const char *kScale = R"(
.visible .entry scale_buf(.param .u64 Buf, .param .u32 n, .param .f32 a)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<6>;
    .reg .f32 %f<4>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [Buf];
    ld.param.u32 %r1, [n];
    ld.param.f32 %f1, [a];
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mov.u32 %r4, %tid.x;
    mad.lo.u32 %r5, %r2, %r3, %r4;
    setp.ge.u32 %p1, %r5, %r1;
    @%p1 bra DONE;
    mul.wide.u32 %rd2, %r5, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.f32 %f2, [%rd3];
    mul.f32 %f3, %f2, %f1;
    st.global.f32 [%rd3], %f3;
DONE:
    ret;
}
)";
    const unsigned n = 1 << 16;
    for (auto _ : state) {
        cuda::ContextOptions opts;
        opts.mode = cuda::SimMode::Performance;
        opts.gpu = timing::GpuConfig::gtx1050();
        cuda::Context ctx(opts);
        ctx.loadModule(kScale, "scale.ptx");
        const addr_t buf = ctx.malloc(n * 4);
        std::vector<float> host(n, 1.0f);
        ctx.memcpyH2D(buf, host.data(), n * 4);
        cuda::KernelArgs args;
        args.ptr(buf).u32(n).f32(1.0001f);
        for (int i = 0; i < 8; i++)
            ctx.launch("scale_buf", Dim3(n / 128), Dim3(128), args);
        ctx.deviceSynchronize();
    }
}
BENCHMARK(BM_FullPerformanceRun)->Unit(benchmark::kMillisecond);

// ---- machine-readable sim-speed record (BENCH_sim_speed.json) ----

struct SweepPoint
{
    const char *mode_name;
    cuda::SimMode mode;
    unsigned sim_threads;
    double wall_seconds = 0.0;
    WorkloadCounts counts;
};

/** Best-of-3 wall clock for one (mode, threads) configuration. */
void
measure(SweepPoint &pt)
{
    double best = 1e300;
    for (int rep = 0; rep < 3; rep++) {
        const auto t0 = std::chrono::steady_clock::now();
        pt.counts = runConvWorkload(pt.mode, pt.sim_threads);
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
    }
    pt.wall_seconds = best;
}

/** One detailed-timing replay of a recorded trace (best of 3 by CPU time). */
struct DetailedPoint
{
    const char *workload;
    trace::TraceFile trace;
    double cpu_seconds = 0.0;
    double wall_seconds = 0.0;
    uint64_t cycles = 0;
    uint64_t warp_instructions = 0;
};

/**
 * Record a frontend on a functional context (the op stream and D2H payloads
 * of both workloads here do not depend on the mode) and tag the trace for
 * detailed replay.
 */
template <typename Frontend>
trace::TraceFile
recordForDetailedReplay(cuda::ContextOptions opts, Frontend &&frontend)
{
    opts.mode = cuda::SimMode::Functional;
    cuda::Context ctx(opts);
    trace::TraceRecorder rec(ctx);
    frontend(ctx);
    rec.detach();
    trace::TraceFile trace = rec.finalize();
    trace.options.mode = uint8_t(cuda::SimMode::Performance);
    return trace;
}

void
measureDetailed(DetailedPoint &pt)
{
    const trace::TraceReplayer rep(pt.trace);
    cuda::ContextOptions opts = rep.options();
    opts.sim_threads = 1;
    pt.cpu_seconds = 1e300;
    for (int rep_i = 0; rep_i < 3; rep_i++) {
        const std::clock_t c0 = std::clock();
        const auto t0 = std::chrono::steady_clock::now();
        cuda::Context ctx(opts);
        rep.replay(ctx);
        const double cpu = double(std::clock() - c0) / CLOCKS_PER_SEC;
        const double wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        if (cpu < pt.cpu_seconds) {
            pt.cpu_seconds = cpu;
            pt.wall_seconds = wall;
        }
        pt.cycles = ctx.gpuModel().totals().cycles;
        pt.warp_instructions = ctx.gpuModel().totals().warp_instructions;
    }
}

void
writeSimSpeedJson(const char *path)
{
    SweepPoint pts[] = {
        {"functional", cuda::SimMode::Functional, 1, 0.0, {}},
        {"functional", cuda::SimMode::Functional, 2, 0.0, {}},
        {"functional", cuda::SimMode::Functional, 4, 0.0, {}},
        {"performance", cuda::SimMode::Performance, 1, 0.0, {}},
    };
    for (auto &pt : pts)
        measure(pt);

    ConvTraceSpec wino;
    wino.algo = int(cudnn::ConvFwdAlgo::Winograd);
    DetailedPoint detailed[] = {
        {"lenet_step",
         recordForDetailedReplay(lenetTraceOptions(),
                                 [](cuda::Context &ctx) {
                                     runLenetTrainStepFrontend(ctx);
                                 })},
        {"winograd_fwd",
         recordForDetailedReplay(convTraceOptions(wino),
                                 [&](cuda::Context &ctx) {
                                     runConvFrontend(ctx, wino);
                                 })},
    };
    for (auto &pt : detailed)
        measureDetailed(pt);

    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"build_meta\": %s,\n", buildMetaJson().c_str());
    std::fprintf(f, "  \"workload\": \"conv_fwd implicit_gemm+winograd_nonfused"
                    " n2c8h14w14 k8r3s3 gtx1050\",\n");
    std::fprintf(f, "  \"host_threads_available\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"runs\": [\n");
    const size_t n = sizeof(pts) / sizeof(pts[0]);
    for (size_t i = 0; i < n; i++) {
        const SweepPoint &pt = pts[i];
        const double ks = double(pt.counts.kernels) / pt.wall_seconds;
        const double ws = double(pt.counts.warp_instructions) / pt.wall_seconds;
        std::fprintf(f,
                     "    {\"mode\": \"%s\", \"sim_threads\": %u, "
                     "\"wall_seconds\": %.6f, \"kernels\": %llu, "
                     "\"kernels_per_sec\": %.2f, "
                     "\"warp_instructions\": %llu, "
                     "\"warp_instrs_per_sec\": %.2f}%s\n",
                     pt.mode_name, pt.sim_threads, pt.wall_seconds,
                     (unsigned long long)pt.counts.kernels, ks,
                     (unsigned long long)pt.counts.warp_instructions, ws,
                     i + 1 < n ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"detailed_replays\": [\n");
    const size_t nd = sizeof(detailed) / sizeof(detailed[0]);
    for (size_t i = 0; i < nd; i++) {
        const DetailedPoint &pt = detailed[i];
        std::fprintf(f,
                     "    {\"workload\": \"%s\", \"sim_threads\": 1, "
                     "\"cpu_seconds\": %.3f, \"wall_seconds\": %.3f, "
                     "\"cycles\": %llu, \"sim_cycles_per_cpu_s\": %.0f, "
                     "\"warp_instructions\": %llu, "
                     "\"warp_instrs_per_cpu_s\": %.0f}%s\n",
                     pt.workload, pt.cpu_seconds, pt.wall_seconds,
                     (unsigned long long)pt.cycles,
                     double(pt.cycles) / pt.cpu_seconds,
                     (unsigned long long)pt.warp_instructions,
                     double(pt.warp_instructions) / pt.cpu_seconds,
                     i + 1 < nd ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"speedup_functional_4t\": %.3f\n",
                 pts[0].wall_seconds / pts[2].wall_seconds);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s (functional 4t speedup %.2fx; detailed lenet_step "
                "%.2f CPU s, winograd_fwd %.2f CPU s)\n",
                path, pts[0].wall_seconds / pts[2].wall_seconds,
                detailed[0].cpu_seconds, detailed[1].cpu_seconds);
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    writeSimSpeedJson("BENCH_sim_speed.json");
    return 0;
}
