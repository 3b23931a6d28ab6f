/**
 * @file
 * mlgs-sweep: batch client of the mlgs-serve daemon.
 *
 * Sweep mode (--sweep) drives the Section V methodology sweep — every cuDNN
 * convolution algorithm across forward / backward-data / backward-filter
 * (17 configurations) — through a running daemon. Each configuration is
 * recorded in-process (the recording context's stats JSON is the direct
 * in-process baseline), submitted cold, then re-submitted warm with 1, 4,
 * and 8 concurrent client connections. Every daemon answer is checked
 * byte-for-byte against the baseline: determinism plus byte-stable JSON
 * means cold, warm, and direct results must be identical. Emits
 * BENCH_serve.json with cold/warm latency, hit rate, and jobs/sec.
 *
 * Single-trace mode (--trace FILE [--repeat N]) submits one .mlgstrace N
 * times and requires every repeat after the first to be a cache hit with a
 * byte-identical answer — the CI smoke check.
 *
 *   mlgs-sweep --socket /tmp/mlgs.sock --sweep [--quick] [--out FILE]
 *   mlgs-sweep --socket /tmp/mlgs.sock --trace conv.mlgstrace --repeat 2
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/cli_flags.h"
#include "bench/trace_workloads.h"
#include "serve/client.h"

using namespace mlgs;
using namespace mlgs::bench;

namespace
{

struct SweepItem
{
    ConvTraceSpec spec;
    std::vector<uint8_t> trace_bytes;
    std::string direct_json; ///< stats JSON of the in-process recording run
    double record_ms = 0.0;
    double cold_ms = 0.0;
    double warm_ms = 0.0;
    bool cold_match = false;
    bool warm_hit = false;
};

int
runSingle(const std::string &socket, const std::string &path, int repeat)
{
    serve::Client client(socket);
    std::string first_json;
    bool ok = true;
    for (int i = 0; i < repeat; i++) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto resp = client.submitFile(path);
        const double ms = msSince(t0);
        if (resp.status != serve::Status::Ok) {
            std::fprintf(stderr, "submit %d: %s: %s\n", i + 1,
                         serve::statusName(resp.status), resp.error.c_str());
            return 1;
        }
        const bool identical = i == 0 || resp.stats_json == first_json;
        if (i == 0)
            first_json = resp.stats_json;
        std::printf("submit %d: cache_hit=%d deduped=%d latency_ms=%.2f "
                    "sim_ms=%.2f byte_identical=%d\n",
                    i + 1, int(resp.cache_hit), int(resp.deduped), ms,
                    resp.sim_ms, int(identical));
        // Every repeat must be answered from the cache, byte-identically.
        if (i > 0 && (!resp.cache_hit || !identical))
            ok = false;
    }
    std::printf("%s\n", ok ? "OK: repeats were byte-identical cache hits"
                           : "FAIL: repeat missed the cache or diverged");
    return ok ? 0 : 1;
}

/** One warm pass over all items with `nclients` concurrent connections. */
double
warmPass(const std::string &socket, std::vector<SweepItem> &items,
         unsigned nclients, bool record_latency)
{
    std::mutex mu;
    size_t next = 0;
    bool all_ok = true;
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < nclients; c++)
        threads.emplace_back([&] {
            serve::Client client(socket);
            for (;;) {
                size_t idx;
                {
                    std::lock_guard<std::mutex> lock(mu);
                    if (next >= items.size())
                        return;
                    idx = next++;
                }
                auto &item = items[idx];
                const auto s0 = std::chrono::steady_clock::now();
                const auto resp =
                    client.submitWithRetry(item.trace_bytes);
                const double ms = msSince(s0);
                std::lock_guard<std::mutex> lock(mu);
                if (record_latency) {
                    item.warm_ms = ms;
                    item.warm_hit = resp.status == serve::Status::Ok &&
                                    resp.cache_hit != 0;
                }
                if (resp.status != serve::Status::Ok ||
                    resp.stats_json != item.direct_json)
                    all_ok = false;
            }
        });
    for (auto &t : threads)
        t.join();
    const double total_ms = msSince(t0);
    if (!all_ok) {
        std::fprintf(stderr,
                     "warm pass with %u clients diverged from the direct "
                     "in-process baseline\n",
                     nclients);
        std::exit(1);
    }
    return total_ms;
}

int
runSweep(const std::string &socket, bool quick, const std::string &out_path)
{
    auto specs = sweepSpecs();
    if (quick)
        specs.resize(3);
    std::printf("mlgs-sweep: %zu configurations via %s\n", specs.size(),
                socket.c_str());

    // Record every configuration in-process. The recording context IS the
    // direct in-process simulation: its stats JSON is the baseline every
    // daemon answer must match byte-for-byte.
    std::vector<SweepItem> items;
    for (const auto &spec : specs) {
        SweepItem item;
        item.spec = spec;
        const auto t0 = std::chrono::steady_clock::now();
        {
            cuda::Context ctx(convTraceOptions(spec));
            trace::TraceRecorder rec(ctx);
            runConvFrontend(ctx, spec);
            rec.detach();
            const trace::TraceFile trace = rec.finalize();
            item.direct_json = trace::statsJson(ctx);
            BinaryWriter w;
            trace.write(w);
            item.trace_bytes = w.bytes();
        }
        item.record_ms = msSince(t0);
        std::printf("  recorded %-10s %-32s %8.1f ms, %zu trace bytes\n",
                    passName(spec.pass), convAlgoName(spec), item.record_ms,
                    item.trace_bytes.size());
        items.push_back(std::move(item));
    }

    // Cold pass: every submission simulates in the daemon.
    serve::Client client(socket);
    double cold_total = 0;
    for (auto &item : items) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto resp = client.submitWithRetry(item.trace_bytes);
        item.cold_ms = msSince(t0);
        cold_total += item.cold_ms;
        if (resp.status != serve::Status::Ok) {
            std::fprintf(stderr, "cold submit failed: %s: %s\n",
                         serve::statusName(resp.status), resp.error.c_str());
            return 1;
        }
        item.cold_match = resp.stats_json == item.direct_json;
        std::printf("  cold %-10s %-32s %8.1f ms  cache_hit=%d  bitwise=%s\n",
                    passName(item.spec.pass), convAlgoName(item.spec),
                    item.cold_ms, int(resp.cache_hit),
                    item.cold_match ? "yes" : "NO");
    }
    const bool all_match =
        std::all_of(items.begin(), items.end(),
                    [](const SweepItem &i) { return i.cold_match; });

    // Warm passes: 1/4/8 concurrent clients, all answers from the cache.
    double warm_total = 0;
    std::string jobs_per_sec;
    for (const unsigned nclients : {1u, 4u, 8u}) {
        const double ms = warmPass(socket, items, nclients, nclients == 1);
        if (nclients == 1)
            warm_total = ms;
        const double jps = double(items.size()) / (ms / 1000.0);
        std::printf("  warm pass, %u client%s: %8.1f ms total, %.0f jobs/s\n",
                    nclients, nclients == 1 ? " " : "s", ms, jps);
        char buf[96];
        std::snprintf(buf, sizeof buf, "%s\n    {\"clients\": %u, "
                      "\"total_ms\": %.3f, \"jobs_per_sec\": %.1f}",
                      jobs_per_sec.empty() ? "" : ",", nclients, ms, jps);
        jobs_per_sec += buf;
    }
    const bool all_warm_hit =
        std::all_of(items.begin(), items.end(),
                    [](const SweepItem &i) { return i.warm_hit; });
    const double speedup = warm_total > 0 ? cold_total / warm_total : 0.0;

    const auto info = client.info();

    std::string rows;
    for (const auto &item : items) {
        char row[256];
        std::snprintf(row, sizeof row,
                      "    {\"pass\": \"%s\", \"algo\": \"%s\", "
                      "\"cold_ms\": %.3f, \"warm_ms\": %.3f, "
                      "\"bitwise_match\": %s, \"warm_cache_hit\": %s},\n",
                      passName(item.spec.pass), convAlgoName(item.spec),
                      item.cold_ms, item.warm_ms,
                      item.cold_match ? "true" : "false",
                      item.warm_hit ? "true" : "false");
        rows += row;
    }
    if (!rows.empty())
        rows.erase(rows.size() - 2, 1); // trailing comma

    std::ofstream os(out_path, std::ios::binary);
    os << "{\n"
       << "  \"build_meta\": " << buildMetaJson() << ",\n"
       << "  \"configs\": " << items.size() << ",\n"
       << "  \"all_bitwise_match_vs_direct\": "
       << (all_match ? "true" : "false") << ",\n"
       << "  \"all_warm_cache_hit\": " << (all_warm_hit ? "true" : "false")
       << ",\n"
       << "  \"cold_ms_total\": " << cold_total << ",\n"
       << "  \"warm_ms_total\": " << warm_total << ",\n"
       << "  \"warm_speedup\": " << speedup << ",\n"
       << "  \"daemon_cache_hits\": " << info.cache_hits << ",\n"
       << "  \"daemon_cache_misses\": " << info.cache_misses << ",\n"
       << "  \"daemon_jobs_completed\": " << info.jobs_completed << ",\n"
       << "  \"throughput\": [" << jobs_per_sec << "\n  ],\n"
       << "  \"rows\": [\n"
       << rows << "  ]\n"
       << "}\n";

    std::printf("\n  cold total %.1f ms, warm total %.1f ms: %.0fx "
                "warm-sweep speedup\n",
                cold_total, warm_total, speedup);
    std::printf("  all answers bitwise-identical to direct in-process "
                "simulation: %s\n",
                all_match ? "yes" : "NO");
    std::printf("  wrote %s\n", out_path.c_str());
    return (all_match && all_warm_hit) ? 0 : 1;
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --socket PATH (--sweep [--quick] [--out FILE] |"
        " --trace FILE [--repeat N])\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket, trace_path, out_path = "BENCH_serve.json";
    bool sweep = false, quick = false;
    int repeat = 2;
    try {
        for (int i = 1; i < argc; i++) {
            const auto arg = [&](const char *name) -> const char * {
                if (std::strcmp(argv[i], name) != 0)
                    return nullptr;
                if (i + 1 >= argc) {
                    std::fprintf(stderr, "%s requires a value\n", name);
                    std::exit(2);
                }
                return argv[++i];
            };
            if (const char *v = arg("--socket"))
                socket = v;
            else if (const char *v = arg("--trace"))
                trace_path = v;
            else if (const char *v = arg("--repeat"))
                repeat = std::max(1, bench::parseFlag("--repeat", v));
            else if (const char *v = arg("--out"))
                out_path = v;
            else if (std::strcmp(argv[i], "--sweep") == 0)
                sweep = true;
            else if (std::strcmp(argv[i], "--quick") == 0)
                quick = true;
            else
                return usage(argv[0]);
        }
    } catch (const FatalError &e) {
        std::fprintf(stderr, "mlgs-sweep: %s\n", e.what());
        return usage(argv[0]);
    }
    if (socket.empty() || (sweep == !trace_path.empty()))
        return usage(argv[0]);

    try {
        return sweep ? runSweep(socket, quick, out_path)
                     : runSingle(socket, trace_path, repeat);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mlgs-sweep: %s\n", e.what());
        return 1;
    }
}
