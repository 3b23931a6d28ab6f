/**
 * @file
 * Section V methodology table: simulated cycles and IPC for every cuDNN
 * convolution algorithm the paper iterates over in conv_sample (forward,
 * backward data, backward filter), plus the DESIGN.md ablations: GTO vs LRR
 * scheduling and FR-FCFS vs FCFS DRAM scheduling.
 *
 * `tab_algo_sweep --replay [N]` runs the same sweep through the trace
 * subsystem instead: each configuration is recorded once and replayed N
 * times (default 5) straight from the trace, with every replay's timing
 * totals checked bitwise against the live run. Emits
 * BENCH_trace_replay.json with the record-once-replay-N speedup.
 */
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "bench/cli_flags.h"
#include "bench/trace_workloads.h"

using namespace mlgs;
using namespace mlgs::bench;

namespace
{

void
sweep(Pass pass, const char *title, const std::vector<int> &algos)
{
    std::printf("\n%s\n", title);
    std::printf("  %-32s %12s %8s %8s %8s\n", "algorithm", "cycles", "IPC",
                "L2 hit", "rowhit");
    double best_ipc = -1;
    std::string best;
    for (const int a : algos) {
        const auto res = runConvSample(pass, a);
        const auto &t = res.totals;
        const double l2 =
            (t.l2_hits + t.l2_misses)
                ? double(t.l2_hits) / double(t.l2_hits + t.l2_misses)
                : 0.0;
        const double rh =
            (t.dram_row_hits + t.dram_row_misses)
                ? double(t.dram_row_hits) /
                      double(t.dram_row_hits + t.dram_row_misses)
                : 0.0;
        std::printf("  %-32s %12llu %8.2f %7.0f%% %7.0f%%\n",
                    res.algo_name.c_str(),
                    (unsigned long long)res.total_cycles, res.ipc, 100 * l2,
                    100 * rh);
        if (res.ipc > best_ipc) {
            best_ipc = res.ipc;
            best = res.algo_name;
        }
    }
    std::printf("  highest IPC: %s\n", best.c_str());
}

// ---- trace-replay mode (--replay [N]) ----

int
replaySweep(int repeat)
{
    printHeader("Algo sweep (trace replay)",
                "record each configuration once, replay from the trace");
    std::printf("  %d replays per configuration, every replay checked "
                "bitwise against the live run\n\n", repeat);
    std::printf("  %-10s %-32s %10s %10s %10s %8s\n", "pass", "algorithm",
                "live ms", "record ms", "replay ms", "speedup");

    double live_total = 0, record_total = 0, replay_total = 0;
    std::string rows;
    bool all_match = true;

    for (const auto &spec : sweepSpecs()) {
        // Live run: exactly what the live sweep does per configuration —
        // frontend + simulation with the AerialVision sampler attached.
        const auto t_live = std::chrono::steady_clock::now();
        timing::TimingTotals live;
        {
            const auto res = runConvSample(spec.pass, spec.algo, spec.shape,
                                           256, spec.sched, spec.frfcfs);
            live = res.totals;
        }
        const double live_ms = msSince(t_live);

        // Record run: same work with a TraceRecorder observing, also
        // capturing the warp instruction streams for trace-driven replay.
        const auto t_rec = std::chrono::steady_clock::now();
        trace::TraceFile trace;
        std::shared_ptr<const func::WarpStreamCache> streams;
        {
            cuda::Context ctx(convTraceOptions(spec));
            trace::TraceRecorder rec(ctx);
            rec.captureWarpStreams();
            runConvFrontend(ctx, spec);
            rec.detach();
            trace = rec.finalize();
            streams = rec.warpStreams();
        }
        const double record_ms = msSince(t_rec);

        // Replay runs: trace-driven timing-only — no frontend and no
        // functional interpretation in the loop. A replayer fatal (address /
        // payload fidelity assert) must not abort the sweep after the record
        // phase succeeded: count it as a mismatch so the JSON is still
        // written and the process exit stays nonzero for CI.
        const trace::TraceReplayer rep(std::move(trace));
        double replay_ms = 0;
        bool match = true;
        std::string replay_error;
        for (int i = 0; i < repeat; i++) {
            const auto t0 = std::chrono::steady_clock::now();
            try {
                const auto run = replayTrace(rep, nullptr, streams.get());
                match = match && live == run.totals;
            } catch (const std::exception &e) {
                match = false;
                replay_error = e.what();
            }
            replay_ms += msSince(t0);
        }
        replay_ms /= repeat;
        all_match = all_match && match;
        if (!replay_error.empty())
            std::printf("  REPLAY FAILED: %s\n", replay_error.c_str());

        live_total += live_ms;
        record_total += record_ms;
        replay_total += replay_ms;

        const char *algo = convAlgoName(spec);
        std::printf("  %-10s %-32s %10.1f %10.1f %10.1f %7.1fx%s\n",
                    passName(spec.pass), algo, live_ms, record_ms, replay_ms,
                    live_ms / replay_ms, match ? "" : "  MISMATCH");

        char row[512];
        std::snprintf(row, sizeof row,
                      "    {\"pass\": \"%s\", \"algo\": \"%s\", "
                      "\"live_ms\": %.3f, \"record_ms\": %.3f, "
                      "\"replay_ms\": %.3f, \"cycles\": %llu, "
                      "\"bitwise_match\": %s},\n",
                      passName(spec.pass), algo, live_ms, record_ms,
                      replay_ms, (unsigned long long)live.cycles,
                      match ? "true" : "false");
        rows += row;
    }
    if (!rows.empty())
        rows.erase(rows.size() - 2, 1); // trailing comma

    // Sweep cost model: N live sweeps vs record-once + N replays.
    const double live_n = live_total * repeat;
    const double traced_n = record_total + replay_total * repeat;
    const double replay_speedup = live_total / replay_total;
    const double sweep_speedup = live_n / traced_n;

    std::ofstream os("BENCH_trace_replay.json", std::ios::binary);
    os << "{\n"
       << "  \"build_meta\": " << buildMetaJson() << ",\n"
       << "  \"repeat\": " << repeat << ",\n"
       << "  \"replay_mode\": \"timing_only_warp_stream\",\n"
       << "  \"all_bitwise_match\": " << (all_match ? "true" : "false")
       << ",\n"
       << "  \"live_ms_total\": " << live_total << ",\n"
       << "  \"record_ms_total\": " << record_total << ",\n"
       << "  \"replay_ms_total\": " << replay_total << ",\n"
       << "  \"replay_speedup_vs_live\": " << replay_speedup << ",\n"
       << "  \"sweep_speedup_record_once_replay_n\": " << sweep_speedup
       << ",\n"
       << "  \"rows\": [\n"
       << rows << "  ]\n"
       << "}\n";

    std::printf("\n  per-run replay speedup: %.1fx; %d-replay sweep "
                "(record once): %.1fx vs live re-execution\n",
                replay_speedup, repeat, sweep_speedup);
    std::printf("  all replays bitwise-identical to live: %s\n",
                all_match ? "yes" : "NO");
    std::printf("  wrote BENCH_trace_replay.json\n");
    return all_match ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--replay") == 0) {
        int repeat = 5;
        try {
            if (argc > 2)
                repeat = std::max(1, parseFlag("--replay", argv[2]));
        } catch (const FatalError &e) {
            std::fprintf(stderr, "usage: tab_algo_sweep [--replay [N]]\n%s\n",
                         e.what());
            return 2;
        }
        return replaySweep(repeat);
    }

    printHeader("Algo sweep", "conv_sample across every cuDNN algorithm "
                              "(GTX1080Ti model)");

    sweep(Pass::Forward, "FORWARD",
          {int(cudnn::ConvFwdAlgo::ImplicitGemm),
           int(cudnn::ConvFwdAlgo::Gemm), int(cudnn::ConvFwdAlgo::Fft),
           int(cudnn::ConvFwdAlgo::FftTiling),
           int(cudnn::ConvFwdAlgo::Winograd),
           int(cudnn::ConvFwdAlgo::WinogradNonfused)});
    sweep(Pass::BackwardData, "BACKWARD DATA",
          {int(cudnn::ConvBwdDataAlgo::Algo0),
           int(cudnn::ConvBwdDataAlgo::Algo1),
           int(cudnn::ConvBwdDataAlgo::FftTiling),
           int(cudnn::ConvBwdDataAlgo::Winograd),
           int(cudnn::ConvBwdDataAlgo::WinogradNonfused)});
    sweep(Pass::BackwardFilter, "BACKWARD FILTER",
          {int(cudnn::ConvBwdFilterAlgo::Algo0),
           int(cudnn::ConvBwdFilterAlgo::Algo1),
           int(cudnn::ConvBwdFilterAlgo::Algo3),
           int(cudnn::ConvBwdFilterAlgo::Fft),
           int(cudnn::ConvBwdFilterAlgo::FftTiling),
           int(cudnn::ConvBwdFilterAlgo::WinogradNonfused)});

    // Ablations (DESIGN.md section 4).
    std::printf("\nABLATIONS (forward, Winograd Nonfused)\n");
    for (const auto sched :
         {timing::SchedPolicy::GTO, timing::SchedPolicy::LRR}) {
        const auto res =
            runConvSample(Pass::Forward,
                          int(cudnn::ConvFwdAlgo::WinogradNonfused), {}, 256,
                          sched, true);
        std::printf("  scheduler %-4s: %10llu cycles, IPC %.2f\n",
                    sched == timing::SchedPolicy::GTO ? "GTO" : "LRR",
                    (unsigned long long)res.total_cycles, res.ipc);
    }
    for (const bool frfcfs : {true, false}) {
        const auto res = runConvSample(Pass::Forward,
                                       int(cudnn::ConvFwdAlgo::Fft), {}, 256,
                                       timing::SchedPolicy::GTO, frfcfs);
        const auto &t = res.totals;
        const double rh =
            (t.dram_row_hits + t.dram_row_misses)
                ? double(t.dram_row_hits) /
                      double(t.dram_row_hits + t.dram_row_misses)
                : 0.0;
        std::printf("  DRAM %-8s: %10llu cycles, row-hit %.0f%%\n",
                    frfcfs ? "FR-FCFS" : "FCFS",
                    (unsigned long long)res.total_cycles, 100 * rh);
    }
    return 0;
}
