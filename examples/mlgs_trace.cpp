/**
 * @file
 * mlgs-trace: record, replay, and inspect .mlgstrace workload traces.
 *
 *   mlgs-trace record <out.mlgstrace> [--workload conv|lenet]
 *                     [--pass forward|bwd-data|bwd-filter] [--algo N]
 *                     [--stats FILE]
 *       Runs a built-in workload with a TraceRecorder attached and writes
 *       the trace. The default workload is the fig11/fig12 conv_sample
 *       problem (forward convolution, GEMM, GTX 1080 Ti).
 *
 *   mlgs-trace replay <in.mlgstrace> [--repeat N] [--timing-only] [--stats FILE]
 *       Re-drives the simulator straight from the trace — no cudnn/blas/
 *       torchlet frontend code runs. Every repeat is verified to produce
 *       identical timing totals; recorded D2H payloads are verified inside
 *       the replayer op by op. With --timing-only, the first replay
 *       captures the warp instruction streams and the remaining repeats
 *       re-drive only the timing model (trace-driven simulation): much
 *       faster, same bitwise statistics, D2H payloads not re-verified.
 *
 *   mlgs-trace info <in.mlgstrace>
 *       Prints the trace's configuration, tables, and op breakdown.
 */
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>

#include "bench/cli_flags.h"
#include "bench/trace_workloads.h"

using namespace mlgs;
using namespace mlgs::bench;

namespace
{

void
writeFileOrDie(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary);
    MLGS_REQUIRE(os.good(), "cannot open ", path, " for writing");
    os << text;
    MLGS_REQUIRE(os.good(), "short write to ", path);
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: mlgs-trace record <out.mlgstrace> [--workload conv|lenet]\n"
        "                         [--pass forward|bwd-data|bwd-filter]\n"
        "                         [--algo N] [--stats FILE]\n"
        "       mlgs-trace replay <in.mlgstrace> [--repeat N] [--timing-only]\n"
        "                         [--timing-mode detailed|sampled]\n"
        "                         [--per-launch] [--stats FILE]\n"
        "       mlgs-trace info   <in.mlgstrace>\n");
    return 2;
}

struct Args
{
    std::string cmd, path;
    std::string workload = "conv";
    std::string pass = "forward";
    int algo = int(cudnn::ConvFwdAlgo::Gemm);
    int repeat = 1;
    bool timing_only = false;
    bool per_launch = false;
    std::optional<sample::TimingMode> timing_mode;
    std::string stats;
};

/**
 * Fills `a` from argv; false for a malformed command line. Flag values are
 * validated here, before any file is touched, and a bad one throws a
 * FatalError naming the flag.
 */
bool
parseArgs(int argc, char **argv, Args &a)
{
    if (argc < 3)
        return false;
    a.cmd = argv[1];
    a.path = argv[2];
    for (int i = 3; i < argc; i++) {
        const std::string flag = argv[i];
        const auto value = [&]() -> const char * {
            MLGS_REQUIRE(i + 1 < argc, "missing value for ", flag);
            return argv[++i];
        };
        if (flag == "--workload")
            a.workload = value();
        else if (flag == "--pass")
            a.pass = value();
        else if (flag == "--algo")
            a.algo = bench::parseFlag(flag, value());
        else if (flag == "--repeat")
            a.repeat = bench::parseFlag(flag, value());
        else if (flag == "--timing-only")
            a.timing_only = true;
        else if (flag == "--timing-mode") {
            const char *v = value();
            a.timing_mode = sample::parseTimingMode(v);
            MLGS_REQUIRE(a.timing_mode, "unknown timing mode: ", v);
        } else if (flag == "--per-launch")
            a.per_launch = true;
        else if (flag == "--stats")
            a.stats = value();
        else {
            std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
            return false;
        }
    }
    MLGS_REQUIRE(!(a.timing_only && a.timing_mode),
                 "--timing-only and --timing-mode are exclusive: "
                 "trace-driven replay bypasses launch routing");
    return a.cmd == "record" || a.cmd == "replay" || a.cmd == "info";
}

const char *
timingSourceName(engine::TimingSource s)
{
    switch (s) {
      case engine::TimingSource::Detailed: return "detailed";
      case engine::TimingSource::Extrapolated: return "extrap";
      default: return "func";
    }
}

void
printPerLaunch(const cuda::Context &ctx)
{
    const auto &log = ctx.launchLog();
    std::printf("  per-launch breakdown (%zu launches):\n", log.size());
    std::printf("    %4s  %-28s %-9s %12s %12s %12s %6s\n", "#", "kernel",
                "source", "start", "cycles", "warp_instrs", "ipc");
    size_t i = 0;
    for (const auto &r : log) {
        const bool func = r.timing_source == engine::TimingSource::Functional;
        const uint64_t cycles =
            func ? uint64_t(r.end_cycle - r.start_cycle) : uint64_t(r.cycles);
        const uint64_t wi = func ? r.func_stats.instructions
                                 : r.perf.warp_instructions;
        std::printf("    %4zu  %-28s %-9s %12llu %12llu %12llu %6.2f\n", i++,
                    r.kernel_name.c_str(),
                    timingSourceName(r.timing_source),
                    (unsigned long long)r.start_cycle,
                    (unsigned long long)cycles, (unsigned long long)wi,
                    cycles ? double(wi) / double(cycles) : 0.0);
    }
}

int
doRecord(const Args &a)
{
    cuda::ContextOptions opts;
    ConvTraceSpec spec;
    if (a.workload == "conv") {
        if (a.pass == "forward")
            spec.pass = Pass::Forward;
        else if (a.pass == "bwd-data")
            spec.pass = Pass::BackwardData;
        else if (a.pass == "bwd-filter")
            spec.pass = Pass::BackwardFilter;
        else {
            std::fprintf(stderr, "unknown pass: %s\n", a.pass.c_str());
            return 2;
        }
        spec.algo = a.algo;
        opts = convTraceOptions(spec);
    } else if (a.workload == "lenet") {
        opts = lenetTraceOptions();
    } else {
        std::fprintf(stderr, "unknown workload: %s\n", a.workload.c_str());
        return 2;
    }

    const auto t0 = std::chrono::steady_clock::now();
    cuda::Context ctx(opts);
    trace::TraceRecorder rec(ctx); // before the frontend: module loads count
    if (a.workload == "conv") {
        runConvFrontend(ctx, spec);
        std::printf("recorded conv_sample %s/%s\n", a.pass.c_str(),
                    convAlgoName(spec));
    } else {
        const float loss = runLenetTrainStepFrontend(ctx);
        std::printf("recorded lenet train step (loss %.4f)\n", loss);
    }
    rec.detach();
    const trace::TraceFile trace = rec.finalize();
    trace.save(a.path);
    const auto &t = ctx.gpuModel().totals();
    std::printf("  %llu ops, %llu launches, %llu cycles, %.0f ms -> %s\n",
                (unsigned long long)trace.ops.size(),
                (unsigned long long)rec.launchCount(),
                (unsigned long long)t.cycles, msSince(t0), a.path.c_str());
    if (a.per_launch)
        printPerLaunch(ctx);
    if (!a.stats.empty())
        writeFileOrDie(a.stats, trace::statsJson(ctx));
    return 0;
}

int
doReplay(const Args &a)
{
    const auto rep = trace::TraceReplayer::fromFile(a.path);
    const int repeat = std::max(1, a.repeat);
    func::WarpStreamCache streams;
    ReplayRun first;
    std::string json;
    double total_ms = 0;
    for (int i = 0; i < repeat; i++) {
        const auto t0 = std::chrono::steady_clock::now();
        ReplayRun run;
        if (a.timing_only && i == 0) {
            // Full-fidelity first replay that captures the warp streams.
            cuda::Context ctx(rep.options());
            run.result = rep.replayCapturing(ctx, streams);
            run.totals = ctx.gpuModel().totals();
            run.elapsed_cycles = ctx.elapsedCycles();
            json = trace::statsJson(ctx);
        } else if (a.timing_mode || a.per_launch) {
            cuda::ContextOptions opts = rep.options();
            if (a.timing_mode)
                opts.timing_mode = *a.timing_mode;
            cuda::Context ctx(opts);
            run.result = rep.replay(ctx);
            run.totals = ctx.gpuModel().totals();
            run.elapsed_cycles = ctx.elapsedCycles();
            json = trace::statsJson(ctx);
            if (a.per_launch && i == 0)
                printPerLaunch(ctx);
        } else {
            run = replayTrace(rep, &json,
                              a.timing_only ? &streams : nullptr);
        }
        total_ms += msSince(t0);
        if (i == 0) {
            first = std::move(run);
        } else {
            MLGS_REQUIRE(first.totals == run.totals,
                         "replay ", i, " diverged from replay 0");
        }
    }
    const auto &t = first.totals;
    std::printf("replayed %s x%d: %llu ops, %llu launches (%llu modules "
                "elided), %llu cycles, %llu verified D2H bytes, "
                "%.0f ms/replay\n",
                a.path.c_str(), repeat,
                (unsigned long long)first.result.ops,
                (unsigned long long)first.result.launches,
                (unsigned long long)first.result.modules_elided,
                (unsigned long long)t.cycles,
                (unsigned long long)first.result.verified_bytes,
                total_ms / repeat);
    if (!a.stats.empty())
        writeFileOrDie(a.stats, json);
    return 0;
}

int
doInfo(const Args &a)
{
    const auto t = trace::TraceFile::load(a.path);
    std::printf("%s: .mlgstrace version %u\n", a.path.c_str(),
                trace::kTraceVersion);
    std::printf("  content hash: %016llx (verified)\n",
                (unsigned long long)t.contentHash());
    std::printf("  mode: %s, gpu: %s (%u cores, %u partitions)\n",
                cuda::SimMode(t.options.mode) == cuda::SimMode::Performance
                    ? "performance"
                    : "functional",
                t.options.gpu.name.c_str(), t.options.gpu.num_cores,
                t.options.gpu.num_partitions);
    std::printf("  strings: %u, blobs: %u (%llu bytes stored)\n",
                t.strings.size(), t.blobs.size(),
                (unsigned long long)t.blobs.storedBytes());
    std::printf("  modules: %zu\n", t.modules.size());
    for (const auto &m : t.modules)
        std::printf("    %-28s %s, %zu globals\n",
                    t.strings.str(m.name_sid).c_str(),
                    m.source_blob == trace::kNoBlob ? "source elided"
                                                    : "with source",
                    m.global_allocs.size());
    std::map<std::string, uint64_t> by_op;
    for (const auto &op : t.ops)
        by_op[trace::opCodeName(op.code)]++;
    std::printf("  ops: %zu\n", t.ops.size());
    for (const auto &[name, count] : by_op)
        std::printf("    %-20s %llu\n", name.c_str(),
                    (unsigned long long)count);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    try {
        if (!parseArgs(argc, argv, a))
            return usage();
    } catch (const FatalError &e) {
        std::fprintf(stderr, "mlgs-trace: %s\n", e.what());
        return usage();
    }
    try {
        if (a.cmd == "record")
            return doRecord(a);
        if (a.cmd == "replay")
            return doReplay(a);
        return doInfo(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mlgs-trace: %s\n", e.what());
        return 1;
    }
}
