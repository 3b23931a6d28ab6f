/**
 * @file
 * mlgs_perfbench: host-speed benchmark of the simulator, driven as a
 * library. One process runs one workload:
 *
 *   mlgs_perfbench --workload lenet_step --seed 1 --seconds 30 --trace 0
 *                  --work-dir DIR
 *
 * Workloads (each replay starts from a fresh Context, caches empty):
 *   lenet_step    detailed replay of a one-image LeNet SGD step (GTX 1050)
 *   winograd_fwd  detailed replay of the fused-WINOGRAD forward conv
 *                 (GTX 1080 Ti)
 *   serve_sweep   an in-process mlgs-serve daemon (one worker) driven by 4
 *                 closed-loop clients through a cold and a warm pass of
 *                 15 §V configs
 *
 * Traces are recorded from seeded frontends before anything is timed; the
 * simulator under test sees only the recorded traces. Simulated time is
 * cycles of the modelled GPU; host time is what the simulator takes to run.
 * Gated host times are CPU seconds at a nominal CPU speed: measured CPU
 * seconds scaled by a reference loop that runs on the same CPU meanwhile
 * (hostspeed.h). Raw CPU and wall seconds are printed next to them.
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 runs the untraced unit
 * once, then traced passes with a span around every layer call, prints the
 * per-layer metrics and writes the spans as Chrome trace-event JSON into the
 * work directory. The last stdout line is the result object.
 */
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "perfbench/hostspeed.h"
#include "perfbench/metrics.h"
#include "perfbench/spans.h"
#include "perfbench/workloads.h"
#include "ptx/parser.h"
#include "runtime/api_observer.h"
#include "serve/client.h"
#include "serve/server.h"
#include "trace/replayer.h"

using namespace mlgs;
using namespace mlgs::perfbench;

namespace
{

constexpr uint64_t kDefaultSeed = 1;

/**
 * Stats digests of the default seed. A simulator change that alters any
 * simulated count alters these; a pure host-speed change must not.
 */
const std::map<std::string, uint64_t> kDefaultDigests = {
    {"lenet_step", 0x94e0600cd700417dull},
    {"winograd_fwd", 0x2aa8fee32cd0eb70ull},
    {"serve_sweep", 0xd40799e343fd8bc1ull},
};

struct Args
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 30.0;
    bool trace = false;
    std::string work_dir = ".";
};

/** Operations attempted and failed; each failure is printed with its reason. */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void
    ok()
    {
        attempted++;
    }

    void
    fail(const std::string &why)
    {
        attempted++;
        failed++;
        std::printf("FAILED: %s\n", why.c_str());
    }

    /** Count one operation; a mismatch is a failure. */
    void
    check(bool good, const std::string &why)
    {
        good ? ok() : fail(why);
    }
};

/**
 * Restart the resident-memory high-water mark at the current resident size,
 * so that peakRssMb covers only what runs after this call (not the untimed
 * recording of the workload's traces, nor an earlier unit).
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream os("/proc/self/clear_refs");
    os << "5";
    os.close();
    if (!os)
        throw FatalError("cannot reset the peak RSS via /proc/self/clear_refs");
}

/** Peak resident memory since the last resetPeakRss (VmHWM), in MB. */
double
peakRssMb()
{
    std::ifstream is("/proc/self/status");
    for (std::string line; std::getline(is, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    throw FatalError("no VmHWM in /proc/self/status");
}

/** Repeat `unit` at least once, and again while it fits in `seconds`. */
std::vector<double>
repeatFor(double seconds, const std::function<double()> &unit)
{
    std::vector<double> times;
    const double t0 = nowSec();
    do {
        times.push_back(unit());
    } while (nowSec() - t0 + times.back() <= seconds);
    return times;
}

// ---------------------------------------------------------------------------
// Replay with per-API-op host timing

/**
 * Times every replayed API op from the ApiObserver callbacks: an op's host
 * time is the interval since the previous callback (callbacks fire after
 * each op takes effect; queued kernels run inside whichever op drains them).
 */
class OpTimer : public cuda::ApiObserver
{
  public:
    explicit OpTimer(SpanRecorder &spans) : spans_(spans) {}

    void start() { last_ = nowSec(); }

    std::map<std::string, double> seconds; ///< by op kind

    void
    onModuleLoaded(int, const std::string &, const std::string &) override
    {
        mark("load_module");
    }
    void onMalloc(addr_t, size_t, size_t) override { mark("other"); }
    void onFree(addr_t) override { mark("other"); }
    void
    onMemcpyH2D(addr_t, const void *, size_t, unsigned) override
    {
        mark("memcpy");
    }
    void
    onMemcpyD2H(const void *, addr_t, size_t, unsigned) override
    {
        mark("memcpy");
    }
    void
    onMemcpyD2D(addr_t, addr_t, size_t, unsigned) override
    {
        mark("memcpy");
    }
    void
    onMemset(addr_t, uint8_t, size_t, unsigned) override
    {
        mark("memcpy");
    }
    void
    onMemcpyToSymbol(const std::string &, addr_t, const void *,
                     size_t) override
    {
        mark("memcpy");
    }
    void
    onLaunch(int, const std::string &, const Dim3 &, const Dim3 &,
             const std::vector<uint8_t> &, unsigned) override
    {
        mark("launch");
    }
    void onCreateStream(unsigned) override { mark("other"); }
    void onDestroyStream(unsigned) override { mark("other"); }
    void onCreateEvent(unsigned) override { mark("other"); }
    void onRecordEvent(unsigned, unsigned) override { mark("other"); }
    void onWaitEvent(unsigned, unsigned) override { mark("sync"); }
    void onStreamSynchronize(unsigned) override { mark("sync"); }
    void onDeviceSynchronize() override { mark("sync"); }
    void
    onRegisterTexture(const std::string &, int) override
    {
        mark("other");
    }
    void
    onBindTextureLinear(int, addr_t, unsigned, unsigned,
                        func::TexAddressMode) override
    {
        mark("other");
    }
    void onUnbindTexture(int) override { mark("other"); }

  private:
    void
    mark(const char *kind)
    {
        const double t = nowSec();
        seconds[kind] += t - last_;
        spans_.add(std::string("runtime.api.") + kind, last_, t);
        last_ = t;
    }

    SpanRecorder &spans_;
    double last_ = 0.0;
};

/** What one replay pass produced. */
struct Replay
{
    double wall = 0.0;     ///< host seconds inside TraceReplayer::replay
    double cpu = 0.0;      ///< host CPU seconds of the same interval
    std::string stats_json; ///< trace::statsJson
    /** FNV-1a of statsJson plus the functional warp-instruction total. */
    uint64_t digest = 0;
    trace::ReplayResult result;
    timing::TimingTotals totals;
    cycle_t elapsed = 0;
    uint64_t func_warp_instrs = 0;
    size_t launches = 0;
    std::vector<uint64_t> bank_hits, bank_misses;
    std::map<std::string, double> api_s; ///< traced replays only
};

cuda::ContextOptions
replayOptions(const trace::TraceReplayer &rep, cuda::SimMode mode,
              unsigned threads)
{
    cuda::ContextOptions o = rep.options();
    o.mode = mode;
    o.sim_threads = threads;
    return o;
}

/**
 * One replay on a fresh Context (its construction is not timed). With
 * `spans`, every API op gets a span and the Context construction one too.
 */
Replay
replayOnce(const trace::TraceReplayer &rep, cuda::SimMode mode,
           unsigned threads, SpanRecorder *spans = nullptr)
{
    SpanRecorder off(false, 0);
    SpanRecorder &sp = spans ? *spans : off;
    Replay r;
    std::unique_ptr<cuda::Context> ctx;
    {
        ScopedSpan s(sp, "runtime.context");
        ctx = std::make_unique<cuda::Context>(replayOptions(rep, mode, threads));
    }
    OpTimer timer(sp);
    if (spans)
        ctx->setApiObserver(&timer);
    {
        ScopedSpan s(sp, mode == cuda::SimMode::Functional
                             ? "trace.replay.functional"
                             : "trace.replay.detailed");
        timer.start();
        const double t0 = nowSec(), c0 = cpuSec();
        r.result = rep.replay(*ctx);
        r.cpu = cpuSec() - c0;
        r.wall = nowSec() - t0;
    }
    ctx->setApiObserver(nullptr);
    r.api_s = timer.seconds;

    r.totals = ctx->gpuModel().totals();
    r.elapsed = ctx->elapsedCycles();
    r.func_warp_instrs = ctx->totalWarpInstructions();
    r.launches = ctx->launchLog().size();
    r.bank_hits = ctx->gpuModel().perBankRowHits();
    r.bank_misses = ctx->gpuModel().perBankRowMisses();
    r.stats_json = trace::statsJson(*ctx);
    r.digest = statsDigest(r.stats_json + "functional_warp_instructions: " +
                           std::to_string(r.func_warp_instrs) + "\n");
    return r;
}

std::string
fmt(const char *f, ...) __attribute__((format(printf, 1, 2)));

std::string
fmt(const char *f, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, f);
    std::vsnprintf(buf, sizeof buf, f, ap);
    va_end(ap);
    return buf;
}

std::string
join(const std::string &dir, const std::string &file)
{
    return dir + "/" + file;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Host wall and CPU seconds of one interval. */
struct HostTime
{
    double wall = 0.0;
    double cpu = 0.0;
};

// ---------------------------------------------------------------------------
// Workload preparation (untimed)

struct Prepared
{
    std::vector<Recorded> traces;   ///< distinct workload traces
    std::vector<std::string> paths; ///< one .mlgstrace file per trace
    /** serve_sweep: the submissions, as indices into traces. */
    std::vector<size_t> submissions;
    /** serve_sweep: the configuration each distinct trace records. */
    std::vector<ConvSpec> specs;
};

/** Record the 15 sweep configurations on 4 threads; dedup by content hash. */
void
recordSweep(Prepared &p, uint64_t seed)
{
    // Performance contexts: payload bits of the atomics-based algorithms
    // depend on the mode, and replay verifies the payloads.
    const std::vector<ConvSpec> specs = sweepSpecs();
    std::vector<Recorded> recs(specs.size());
    std::vector<std::string> errs;
    std::mutex mu;
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < 4; t++)
        pool.emplace_back([&] {
            for (size_t i; (i = next++) < specs.size();) {
                try {
                    recs[i] = recordConv(specs[i], seed, true);
                } catch (const std::exception &e) {
                    std::lock_guard<std::mutex> lock(mu);
                    errs.push_back(e.what());
                }
            }
        });
    for (auto &t : pool)
        t.join();
    if (!errs.empty())
        throw FatalError("recording the sweep failed: " + errs.front());
    std::map<uint64_t, size_t> by_hash;
    for (auto &rec : recs) {
        const auto [it, fresh] =
            by_hash.emplace(rec.trace.contentHash(), p.traces.size());
        if (fresh) {
            p.traces.push_back(std::move(rec));
            p.specs.push_back(specs[&rec - recs.data()]);
        }
        p.submissions.push_back(it->second);
    }
}

Prepared
prepare(const Args &a)
{
    Prepared p;
    if (a.workload == "lenet_step") {
        p.traces.push_back(recordLenetStep(a.seed));
    } else if (a.workload == "winograd_fwd") {
        p.traces.push_back(recordConv(
            {Pass::Forward, int(cudnn::ConvFwdAlgo::Winograd)}, a.seed, false));
    } else {
        recordSweep(p, a.seed);
    }
    for (size_t i = 0; i < p.traces.size(); i++) {
        p.paths.push_back(join(a.work_dir, fmt("t%zu.mlgstrace", i)));
        p.traces[i].trace.save(p.paths.back());
    }
    return p;
}

// ---------------------------------------------------------------------------
// serve

struct ServeRun
{
    double session_s = 0.0;
    double session_cpu_s = 0.0;
    double cold_s = 0.0;
    double cold_cpu_s = 0.0;
    double warm_s = 0.0;
    /** Host-speed readings at the session's start, cold/warm boundary, end. */
    HostSpeed::Reading speed0, speed1, speed2;
    std::vector<double> miss_sim_ms, queue_wait_ms, hit_ms;
    uint64_t warm_hits = 0;
    serve::ServerInfo info;
};

serve::ServerOptions
serverOptions(const std::string &socket)
{
    serve::ServerOptions o;
    o.socket_path = socket;
    // One worker: the cold pass then takes the sum of its jobs, not a
    // packing of unequal jobs onto workers that the seeded order decides.
    o.workers = 1;
    o.max_queue = 8;
    o.default_sim_threads = 1;
    return o;
}

/** Daemon start until the first connection is accepted and answered. */
HostTime
serveSetupOnce(const std::string &socket)
{
    const double t0 = nowSec(), c0 = cpuSec();
    serve::Server server(serverOptions(socket));
    server.start();
    HostTime t;
    {
        serve::Client c(socket);
        c.ping();
        t = {nowSec() - t0, cpuSec() - c0};
    }
    server.requestStop();
    server.join();
    return t;
}

/**
 * A fresh daemon and a closed loop of `clients` connections: a cold pass
 * submitting `cold` (trace indices, in order), then a warm pass submitting
 * `warm`, each job simulated at `sim_threads`. Every answer must be
 * byte-identical to `ref` (from sim_threads=1 runs); every warm answer must
 * be a cache hit.
 */
ServeRun
serveSession(const std::string &socket,
             const std::vector<std::vector<uint8_t>> &bytes,
             const std::vector<std::string> &ref, const std::vector<size_t> &cold,
             const std::vector<size_t> &warm, unsigned clients,
             unsigned sim_threads, Outcome &out, SpanRecorder &spans,
             const HostSpeed &speed)
{
    ServeRun run;
    serve::Server server(serverOptions(socket));
    server.start();
    std::vector<serve::Client> conns;
    for (unsigned c = 0; c < clients; c++)
        conns.emplace_back(socket);

    std::mutex mu;
    const auto pass = [&](const std::vector<size_t> &items, bool warm_pass) {
        ScopedSpan span(spans, warm_pass ? "serve.warm_pass" : "serve.cold_pass");
        std::atomic<size_t> next{0};
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < clients; c++)
            threads.emplace_back([&, c] {
                serve::SubmitOptions so;
                so.sim_threads = sim_threads;
                for (size_t i; (i = next++) < items.size();) {
                    const size_t t = items[i];
                    const double t0 = nowSec();
                    serve::SubmitResponse r;
                    std::string err;
                    try {
                        r = conns[c].submit(bytes[t], so);
                    } catch (const std::exception &e) {
                        err = e.what();
                    }
                    const double ms = (nowSec() - t0) * 1e3;
                    std::lock_guard<std::mutex> lock(mu);
                    if (!err.empty()) {
                        out.fail("serve submit threw: " + err);
                        continue;
                    }
                    if (r.status != serve::Status::Ok) {
                        out.fail(fmt("serve status %d: %s", int(r.status),
                                     r.error.c_str()));
                        continue;
                    }
                    if (r.stats_json != ref[t])
                        out.fail(fmt("serve answer (sim_threads=%u) differs "
                                     "from the in-process sim_threads=1 run",
                                     sim_threads));
                    else if (warm_pass && !r.cache_hit)
                        out.fail("warm submission was not a cache hit");
                    else
                        out.ok();
                    if (r.cache_hit) {
                        run.hit_ms.push_back(ms);
                        run.warm_hits += warm_pass;
                    } else if (!r.deduped) {
                        run.miss_sim_ms.push_back(r.sim_ms);
                        run.queue_wait_ms.push_back(ms - r.sim_ms);
                    }
                }
            });
        for (auto &t : threads)
            t.join();
    };

    run.speed0 = speed.read();
    const double t0 = nowSec(), c0 = cpuSec();
    pass(cold, false);
    const double t1 = nowSec(), c1 = cpuSec();
    run.speed1 = speed.read();
    pass(warm, true);
    const double t2 = nowSec(), c2 = cpuSec();
    run.speed2 = speed.read();
    run.session_s = t2 - t0;
    run.session_cpu_s = c2 - c0;
    run.cold_s = t1 - t0;
    run.cold_cpu_s = c1 - c0;
    run.warm_s = t2 - t1;
    run.info = conns[0].info();
    conns.clear();
    server.requestStop();
    server.join();
    return run;
}

std::vector<std::vector<uint8_t>>
traceBytes(const Prepared &p)
{
    std::vector<std::vector<uint8_t>> out;
    for (const auto &r : p.traces) {
        BinaryWriter w;
        r.trace.write(w);
        out.push_back(w.bytes());
    }
    return out;
}

std::vector<size_t>
shuffled(std::vector<size_t> v, uint64_t seed)
{
    std::mt19937_64 g(seed);
    std::shuffle(v.begin(), v.end(), g);
    return v;
}

// ---------------------------------------------------------------------------
// Top level

struct Run
{
    Args args;
    Prepared prep;
    Outcome out;
    MetricTable metrics;
    SpanRecorder spans;
    /** On for the measured units of an untraced run (see runUnit). */
    std::unique_ptr<HostSpeed> speed = std::make_unique<HostSpeed>(false);

    explicit Run(const Args &a)
        : args(a),
          spans(a.trace, (a.seed << 8) ^ std::hash<std::string>{}(a.workload))
    {
    }

    bool serve() const { return args.workload == "serve_sweep"; }

    void
    line(const std::string &s)
    {
        std::printf("%s\n", s.c_str());
        std::fflush(stdout);
    }
};

/** The untraced unit's results: medians over the run's units. */
struct UnitResult
{
    /** CPU seconds at the nominal CPU speed (raw in traced runs). */
    double norm_cpu_s = 0.0;
    double wall_s = 0.0;
    double warp_instrs_per_norm_cpu_s = 0.0;
    double peak_rss_mb = 0.0; ///< median over units of each unit's peak
    uint64_t digest = 0;
};

/**
 * Report lines of the CPU times of `units`. Returns their median at the
 * nominal CPU speed, or the median of the raw CPU times when the host-speed
 * reference is off (traced runs).
 */
double
describeCpu(Run &c, const std::vector<HostSpeed::Sample> &units)
{
    std::vector<double> cpu, rate, norm;
    for (const auto &u : units) {
        cpu.push_back(u.cpu);
        rate.push_back(u.rate);
        norm.push_back(u.norm);
    }
    const Summary cs = summarize(cpu);
    c.line("  cpu_s " + describe(cs, "s"));
    if (!c.speed->on())
        return cs.median;
    c.line("  host_speed " + describe(summarize(rate), " loops/s") +
           fmt(" (reference loop on the same CPU; nominal %g)",
               HostSpeed::kNominalLoopsPerSec));
    const Summary ns = summarize(norm);
    c.line("  norm_cpu_s " + describe(ns, "s") +
           " (cpu_s x host_speed / nominal)");
    return ns.median;
}

/** Batches of set-ups per run, and the least time each batch takes. */
constexpr int kSetupBatches = 15;
constexpr double kSetupBatchSec = 0.2;

/**
 * Process CPU seconds per set-up: set-ups run back to back in kSetupBatches
 * batches of at least kSetupBatchSec; a batch's CPU time over its set-up
 * count is one sample, and setup_s is their median. A batch's CPU time
 * covers everything its set-ups do, tear-down included.
 */
double
setupSeconds(Run &c, const std::function<void()> &once, const std::string &what)
{
    std::vector<double> cpu, wall;
    size_t total = 0;
    for (int b = 0; b < kSetupBatches; b++) {
        const double t0 = nowSec(), c0 = cpuSec();
        size_t n = 0;
        do {
            once();
            n++;
        } while (nowSec() - t0 < kSetupBatchSec);
        cpu.push_back((cpuSec() - c0) / double(n));
        wall.push_back((nowSec() - t0) / double(n));
        total += n;
    }
    const Summary cs = summarize(cpu);
    c.line(fmt("setup_s: %s; %zu set-ups in %d batches, per set-up:",
               what.c_str(), total, kSetupBatches));
    c.line("  cpu_s " + describe(cs, "s"));
    c.line("  wall_s " + describe(summarize(wall), "s"));
    return cs.median;
}

/** Set-up: trace load (content hash verified) + Context construction. */
double
replaySetup(Run &c)
{
    return setupSeconds(
        c,
        [&] {
            for (const auto &path : c.prep.paths) {
                trace::TraceReplayer rep(trace::TraceFile::load(path));
                cuda::Context ctx(
                    replayOptions(rep, cuda::SimMode::Performance, 1));
            }
        },
        "trace load with hash check + Context construction");
}

/**
 * Set-up of what must happen before the first job can be served: loading
 * the sweep's traces (content hash verified) and starting a daemon until it
 * accepts and answers the first connection.
 */
double
serveSetup(Run &c)
{
    std::vector<double> daemon;
    const double s = setupSeconds(
        c,
        [&] {
            for (const auto &path : c.prep.paths)
                (void)trace::TraceFile::load(path);
            daemon.push_back(
                serveSetupOnce(join(c.args.work_dir, "setup.sock")).cpu);
        },
        "trace loads with hash check + daemon start to first answered "
        "connection + daemon stop");
    c.line("  of which daemon start to first answer, raw CPU " +
           describe(summarize(daemon), "s"));
    return s;
}

UnitResult
replayUnit(Run &c, double seconds)
{
    const trace::TraceReplayer rep(c.prep.traces[0].trace);
    std::vector<Replay> runs;
    std::vector<HostSpeed::Sample> units;
    std::vector<double> rss;
    repeatFor(seconds, [&] {
        resetPeakRss();
        const HostSpeed::Reading a = c.speed->read();
        runs.push_back(replayOnce(rep, cuda::SimMode::Performance, 1));
        units.push_back(HostSpeed::sample(runs.back().cpu, a, c.speed->read()));
        rss.push_back(peakRssMb());
        return runs.back().wall;
    });
    std::vector<double> wall;
    for (const auto &r : runs) {
        c.out.check(r.digest == runs[0].digest,
                    "stats digest differs between repetitions");
        wall.push_back(r.wall);
    }
    c.line("unit: one detailed replay at sim_threads=1");
    const double norm = describeCpu(c, units);
    const Summary ws = summarize(wall);
    const Replay &r0 = runs[0];
    const uint64_t instrs = r0.totals.warp_instructions;
    c.line("  wall_s " + describe(ws, "s"));
    c.line(fmt("  simulated: %llu warp instrs, %llu busy cycles, %zu launches, "
               "%llu API ops, %llu D2H bytes verified",
               (unsigned long long)instrs, (unsigned long long)r0.totals.cycles,
               r0.launches, (unsigned long long)r0.result.ops,
               (unsigned long long)r0.result.verified_bytes));
    c.line(fmt("  sim_cycles_per_s=%.6g (%llu busy cycles / %.6g wall s)",
               double(r0.totals.cycles) / ws.median,
               (unsigned long long)r0.totals.cycles, ws.median));
    c.line("peak_rss " + describe(summarize(rss), "MB") + " per replay");
    return {norm, ws.median, ratio(double(instrs), norm),
            summarize(rss).median, r0.digest};
}

/** Warm-pass rounds of the sweep's submissions after the cold pass. */
constexpr size_t kWarmRounds = 14;

/** 4 clients: the cold pass, then kWarmRounds rounds of it again. */
ServeRun
serveOnce(Run &c, const std::vector<std::vector<uint8_t>> &bytes,
          uint64_t rep, SpanRecorder &spans)
{
    std::vector<std::string> ref;
    for (const auto &t : c.prep.traces)
        ref.push_back(t.stats_json);
    std::vector<size_t> warm;
    for (size_t r = 0; r < kWarmRounds; r++)
        warm.insert(warm.end(), c.prep.submissions.begin(),
                    c.prep.submissions.end());
    return serveSession(join(c.args.work_dir, "serve.sock"), bytes, ref,
                        shuffled(c.prep.submissions, c.args.seed * 31 + rep),
                        shuffled(warm, c.args.seed * 37 + rep), 4, 1, c.out,
                        spans, *c.speed);
}

UnitResult
serveUnit(Run &c, double seconds)
{
    const auto bytes = traceBytes(c.prep);
    uint64_t instrs = 0;
    std::string all;
    for (const auto &t : c.prep.traces) {
        instrs += t.warp_instrs;
        all += t.stats_json;
    }
    SpanRecorder off(false, 0);
    std::vector<ServeRun> runs;
    std::vector<double> rss;
    repeatFor(seconds, [&] {
        resetPeakRss();
        runs.push_back(serveOnce(c, bytes, runs.size(), off));
        rss.push_back(peakRssMb());
        return runs.back().session_s;
    });
    std::vector<HostSpeed::Sample> units;
    std::vector<double> wall, cold, rates, hits, hit_rates;
    for (const auto &r : runs) {
        units.push_back(
            HostSpeed::sample(r.session_cpu_s, r.speed0, r.speed2));
        wall.push_back(r.session_s);
        cold.push_back(r.cold_s);
        rates.push_back(ratio(
            double(instrs),
            HostSpeed::sample(r.cold_cpu_s, r.speed0, r.speed1).norm));
        hits.insert(hits.end(), r.hit_ms.begin(), r.hit_ms.end());
        hit_rates.push_back(double(r.warm_hits) / r.warm_s);
    }
    c.line("unit: one client session (daemon and client threads)");
    const double norm = describeCpu(c, units);
    const Summary ws = summarize(wall);
    c.line("  wall_s " + describe(ws, "s"));
    c.line("cold_sweep_s " + describe(summarize(cold), "s") +
           fmt(" for %zu submissions of %zu distinct traces, %llu warp instrs",
               c.prep.submissions.size(), c.prep.traces.size(),
               (unsigned long long)instrs));
    c.line("hit_latency_ms " + describe(summarize(hits), "ms"));
    c.line(fmt("hit_jobs_per_s=%.6g (warm-pass hits per second, median of %zu "
               "sessions of %zu submissions)",
               summarize(hit_rates).median, runs.size(),
               kWarmRounds * c.prep.submissions.size()));
    c.line("peak_rss " + describe(summarize(rss), "MB") +
           " per session (daemon and clients)");
    return {norm, ws.median, summarize(rates).median,
            summarize(rss).median, statsDigest(all)};
}

// ---------------------------------------------------------------------------
// Per-layer (traced) metrics

/** Host time of a traced replay outside module load: where kernels run. */
double
execSeconds(const Replay &r)
{
    double t = 0.0;
    for (const auto &[k, v] : r.api_s)
        if (k != "load_module")
            t += v;
    return t;
}

struct LayerAcc
{
    double load_s = 0, context_s = 0, parse_s = 0;
    uint64_t kernels = 0, instrs = 0;
    std::map<std::string, double> api_s;
    double det_exec_s = 0, det_wall = 0, func_exec_s = 0, func_exec_t4_s = 0;
    uint64_t func_instrs = 0, launches = 0, ops = 0, elapsed = 0;
    timing::TimingTotals totals;
    std::vector<uint64_t> bank_acc;
};

/** Load, parse + lower and Context set-up of every trace, with spans. */
void
tracedSetup(Run &c, LayerAcc &acc)
{
    SpanRecorder &sp = c.spans;
    ScopedSpan root(sp, "setup");
    for (const auto &path : c.prep.paths) {
        double t0 = nowSec();
        trace::TraceFile tf;
        {
            ScopedSpan s(sp, "trace.load");
            tf = trace::TraceFile::load(path);
        }
        acc.load_s += nowSec() - t0;

        t0 = nowSec();
        {
            ScopedSpan s(sp, "ptx.parse_lower");
            for (const auto &m : tf.modules) {
                if (m.source_blob == trace::kNoBlob)
                    continue;
                const auto &src = tf.blobs.blob(m.source_blob);
                const ptx::Module mod =
                    ptx::parseModule(std::string(src.begin(), src.end()),
                                     tf.strings.str(m.name_sid));
                acc.kernels += mod.kernels.size();
                for (const auto &k : mod.kernels)
                    acc.instrs += k.instrs.size();
            }
        }
        acc.parse_s += nowSec() - t0;

        const trace::TraceReplayer rep(std::move(tf));
        t0 = nowSec();
        {
            ScopedSpan s(sp, "runtime.context");
            cuda::Context ctx(
                replayOptions(rep, cuda::SimMode::Performance, 1));
        }
        acc.context_s += nowSec() - t0;
    }
}

void
addLayerMetrics(Run &c, const LayerAcc &acc, const ServeRun &srv)
{
    const timing::TimingTotals &t = acc.totals;
    auto &m = c.metrics;
    m.add("trace.load_s", acc.load_s, "s");
    m.add("runtime.context_s", acc.context_s, "s");
    m.add("ptx.parse_lower_s", acc.parse_s, "s");
    m.add("ptx.kernels", double(acc.kernels), "count");
    m.add("ptx.instrs", double(acc.instrs), "count");
    for (const char *k : {"load_module", "memcpy", "launch", "sync", "other"}) {
        const auto it = acc.api_s.find(k);
        m.add(std::string("runtime.api_s.") + k,
              it == acc.api_s.end() ? 0.0 : it->second, "s");
    }
    m.add("func.exec_s", acc.func_exec_s, "s");
    m.add("func.exec_s_t4", acc.func_exec_t4_s, "s");
    m.add("func.warp_instrs", double(acc.func_instrs), "count");
    m.add("func.warp_instrs_per_s",
          ratio(double(acc.func_instrs), acc.func_exec_s), "1/s");

    const double self_s = acc.det_exec_s - acc.func_exec_s;
    const uint64_t core_cycles = t.core_active_cycles + t.core_idle_cycles;
    m.add("timing.self_s", self_s, "s");
    m.add("timing.host_ns_per_cycle", ratio(self_s * 1e9, double(t.cycles)),
          "ns");
    m.add("timing.host_ns_per_core_cycle",
          ratio(self_s * 1e9, double(core_cycles)), "ns");
    m.add("timing.sim_cycles_per_s", ratio(double(t.cycles), acc.det_wall),
          "1/s");
    m.add("timing.core.warp_instrs", double(t.warp_instructions), "count");
    m.add("timing.core.ipc",
          ratio(double(t.warp_instructions), double(t.cycles)), "ratio");
    m.add("timing.core.active_cycles", double(t.core_active_cycles), "cycles");
    m.add("timing.core.idle_cycles", double(t.core_idle_cycles), "cycles");
    m.add("timing.core.idle_frac",
          ratio(double(t.core_idle_cycles), double(core_cycles)), "ratio");
    const uint64_t l1 = t.l1_hits + t.l1_misses, l2 = t.l2_hits + t.l2_misses;
    m.add("timing.cache.l1_accesses", double(l1), "count");
    m.add("timing.cache.l1_hit_rate", ratio(double(t.l1_hits), double(l1)),
          "ratio");
    m.add("timing.cache.l2_accesses", double(l2), "count");
    m.add("timing.cache.l2_hit_rate", ratio(double(t.l2_hits), double(l2)),
          "ratio");
    m.add("timing.icnt.flits", double(t.icnt_flits), "count");
    m.add("timing.icnt.flits_per_cycle",
          ratio(double(t.icnt_flits), double(t.cycles)), "ratio");
    const uint64_t dram = t.dram_reads + t.dram_writes;
    const uint64_t rows = t.dram_row_hits + t.dram_row_misses;
    const uint64_t bank_max =
        acc.bank_acc.empty()
            ? 0
            : *std::max_element(acc.bank_acc.begin(), acc.bank_acc.end());
    const double bank_mean = ratio(double(rows), double(acc.bank_acc.size()));
    m.add("timing.dram.accesses", double(dram), "count");
    m.add("timing.dram.row_hit_rate",
          ratio(double(t.dram_row_hits), double(rows)), "ratio");
    m.add("timing.dram.bank_imbalance", ratio(double(bank_max), bank_mean),
          "ratio");
    m.add("engine.launches", double(acc.launches), "count");
    m.add("engine.ops", double(acc.ops), "count");
    m.add("engine.busy_cycles", double(t.cycles), "cycles");
    m.add("engine.elapsed_cycles", double(acc.elapsed), "cycles");
    m.add("engine.gap_frac",
          1.0 - ratio(double(t.cycles), double(acc.elapsed)), "ratio");

    const serve::ServerInfo &si = srv.info;
    const Summary hit = summarize(srv.hit_ms);
    const Summary wait = summarize(srv.queue_wait_ms);
    const Summary sim = summarize(srv.miss_sim_ms);
    std::vector<double> sorted_hits = srv.hit_ms;
    std::sort(sorted_hits.begin(), sorted_hits.end());
    const double hit_p95 =
        sorted_hits.empty() ? 0.0
                            : sorted_hits[rankIndex(95.0, sorted_hits.size())];
    m.add("serve.cache_hits", double(si.cache_hits), "count");
    m.add("serve.cache_misses", double(si.cache_misses), "count");
    m.add("serve.dedup_joins", double(si.dedup_joins), "count");
    m.add("serve.shed", double(si.shed), "count");
    m.add("serve.jobs_failed", double(si.jobs_failed), "count");
    m.add("serve.hit_ratio",
          ratio(double(si.cache_hits), double(si.cache_hits + si.cache_misses)),
          "ratio");
    m.add("serve.queue_wait_ms_p50", wait.median, "ms");
    m.add("serve.sim_ms_p50", sim.median, "ms");
    m.add("serve.hit_latency_p50_ms", hit.median, "ms");
    m.add("serve.hit_latency_p95_ms", hit_p95, "ms");
    m.add("serve.hit_jobs_per_s", ratio(double(srv.warm_hits), srv.warm_s),
          "1/s");
    m.add("serve.cold_s", srv.cold_s, "s");

    // Every ratio with its base.
    c.line(fmt("timing.core.idle_frac = %llu idle / (%llu active + %llu idle) "
               "core-cycles",
               (unsigned long long)t.core_idle_cycles,
               (unsigned long long)t.core_active_cycles,
               (unsigned long long)t.core_idle_cycles));
    c.line(fmt("timing.core.ipc = %llu warp instrs / %llu busy cycles",
               (unsigned long long)t.warp_instructions,
               (unsigned long long)t.cycles));
    c.line(fmt("timing.cache.l1_hit_rate = %llu / %llu; l2_hit_rate = %llu / "
               "%llu",
               (unsigned long long)t.l1_hits, (unsigned long long)l1,
               (unsigned long long)t.l2_hits, (unsigned long long)l2));
    c.line(fmt("timing.icnt.flits_per_cycle = %llu flits / %llu busy cycles",
               (unsigned long long)t.icnt_flits, (unsigned long long)t.cycles));
    c.line(fmt("timing.dram.accesses = %llu reads + %llu writes; row_hit_rate "
               "= %llu / %llu row hits+misses; bank_imbalance = max %llu / "
               "mean %.6g row accesses over %zu banks",
               (unsigned long long)t.dram_reads, (unsigned long long)t.dram_writes,
               (unsigned long long)t.dram_row_hits, (unsigned long long)rows,
               (unsigned long long)bank_max, bank_mean, acc.bank_acc.size()));
    c.line(fmt("engine.gap_frac = 1 - %llu busy / %llu elapsed cycles",
               (unsigned long long)t.cycles, (unsigned long long)acc.elapsed));
    c.line(fmt("timing.self_s = %.6g s detailed - %.6g s functional (API time "
               "outside module load)",
               acc.det_exec_s, acc.func_exec_s));
    c.line(fmt("serve.hit_ratio = %llu hits / (%llu hits + %llu misses)",
               (unsigned long long)si.cache_hits,
               (unsigned long long)si.cache_hits,
               (unsigned long long)si.cache_misses));
    c.line("serve.hit_latency " + describe(hit, "ms"));
    c.line("serve.queue_wait " + describe(wait, "ms"));
    c.line("serve.sim " + describe(sim, "ms"));
}

/**
 * The traced run: every trace replayed detailed and functional (t1 and t4)
 * with spans around each layer call, then the serve layer — the sweep's own
 * session traced, or this workload's trace pushed through a daemon: one cold
 * submission simulated detailed at sim_threads=4, whose answer must be
 * byte-identical to the sim_threads=1 replay, then 200 warm hits on 4
 * clients.
 */
void
tracedRun(Run &c, const UnitResult &untraced)
{
    SpanRecorder &sp = c.spans;
    LayerAcc acc;
    tracedSetup(c, acc);

    double traced_unit = 0.0;
    std::vector<std::string> ref;
    for (size_t i = 0; i < c.prep.traces.size(); i++) {
        const trace::TraceReplayer rep(c.prep.traces[i].trace);
        // The sweep's traces carry performance-mode D2H payloads, which the
        // atomics-based algorithms make mode-dependent: replay a functional
        // recording of the same configuration in functional mode.
        const trace::TraceReplayer frep(
            c.serve() ? recordConv(c.prep.specs[i], c.args.seed, false).trace
                      : c.prep.traces[i].trace);
        ScopedSpan root(sp, "workload." + c.prep.traces[i].name);
        const Replay det = replayOnce(rep, cuda::SimMode::Performance, 1, &sp);
        const Replay fn = replayOnce(frep, cuda::SimMode::Functional, 1, &sp);
        const Replay fn4 = replayOnce(frep, cuda::SimMode::Functional, 4, &sp);
        c.out.check(fn4.digest == fn.digest,
                    "functional stats digest differs at sim_threads=4");
        if (c.serve()) {
            c.out.check(det.stats_json == c.prep.traces[i].stats_json,
                        "in-process replay differs from the recording run");
        } else {
            c.out.check(det.digest == untraced.digest,
                        "traced replay's stats digest differs from the "
                        "untraced replay's");
        }
        ref.push_back(det.stats_json);
        traced_unit += det.wall;

        for (const auto &[k, v] : det.api_s)
            acc.api_s[k] += v;
        acc.det_exec_s += execSeconds(det);
        acc.det_wall += det.wall;
        acc.func_exec_s += execSeconds(fn);
        acc.func_exec_t4_s += execSeconds(fn4);
        acc.func_instrs += fn.func_warp_instrs;
        acc.launches += det.launches;
        acc.ops += det.result.ops;
        acc.elapsed += det.elapsed;
        acc.totals += det.totals;
        acc.bank_acc.resize(std::max(acc.bank_acc.size(), det.bank_hits.size()));
        for (size_t b = 0; b < det.bank_hits.size(); b++)
            acc.bank_acc[b] += det.bank_hits[b] + det.bank_misses[b];
    }

    const auto bytes = traceBytes(c.prep);
    ServeRun srv;
    if (c.serve()) {
        srv = serveOnce(c, bytes, 0, sp);
        traced_unit = srv.session_s;
    } else {
        std::vector<size_t> cold, warm;
        for (size_t i = 0; i < bytes.size(); i++)
            cold.push_back(i);
        for (size_t r = 0; r < 200; r++)
            warm.push_back(r % bytes.size());
        srv = serveSession(join(c.args.work_dir, "serve.sock"), bytes, ref,
                           cold, warm, 4, 4, c.out, sp, *c.speed);
        c.line(fmt("wall_s_t4=%.6g s: the detailed cold job at sim_threads=4 "
                   "in the daemon (answer checked against sim_threads=1)",
                   srv.cold_s));
    }
    addLayerMetrics(c, acc, srv);
    c.metrics.add("bench.trace_overhead_s", traced_unit - untraced.wall_s, "s");
    c.line(fmt("tracing overhead: traced wall_s %.6g s - untraced wall_s %.6g "
               "s = %.6g s",
               traced_unit, untraced.wall_s, traced_unit - untraced.wall_s));
}

UnitResult
runUnit(Run &c)
{
    c.prep = prepare(c.args);
    // Set-up runs before the host-speed reference starts and stays in raw
    // CPU seconds: loading and hashing a trace and building a Context slow
    // down far less than simulation on a busy host, so the reference would
    // add noise to them rather than remove it.
    const double setup = c.serve() ? serveSetup(c) : replaySetup(c);
    // A traced run times one untraced unit, only as the base of the tracing
    // overhead, without the host-speed reference (it would take a tenth of
    // the CPU) and unpinned (traced runs simulate at sim_threads=4).
    c.speed = std::make_unique<HostSpeed>(!c.args.trace);
    const double seconds = c.args.trace ? 0.0 : c.args.seconds;
    const UnitResult u =
        c.serve() ? serveUnit(c, seconds) : replayUnit(c, seconds);
    if (c.args.seed == kDefaultSeed) {
        const uint64_t want = kDefaultDigests.at(c.args.workload);
        c.out.check(u.digest == want,
                    fmt("stats digest %016llx != recorded %016llx",
                        (unsigned long long)u.digest, (unsigned long long)want));
    }
    c.line(fmt("stats digest %016llx", (unsigned long long)u.digest));
    if (!c.args.trace) {
        c.metrics.add("norm_cpu_s", u.norm_cpu_s, "s");
        c.metrics.add("warp_instrs_per_norm_cpu_s",
                      u.warp_instrs_per_norm_cpu_s, "1/s");
        c.metrics.add("setup_s", setup, "s");
        c.metrics.add("peak_rss_mb", u.peak_rss_mb, "MB");
    }
    return u;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: mlgs_perfbench --workload "
                 "{lenet_step|winograd_fwd|serve_sweep}\n"
                 "       [--seed N] [--seconds S] [--trace 0|1] "
                 "[--work-dir DIR]\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; i++) {
        const std::string k = argv[i];
        const auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (k == "--workload")
            a.workload = val();
        else if (k == "--seed")
            a.seed = std::stoull(val());
        else if (k == "--seconds")
            a.seconds = std::stod(val());
        else if (k == "--trace")
            a.trace = val() != "0";
        else if (k == "--work-dir")
            a.work_dir = val();
        else
            usage();
    }
    if (!kDefaultDigests.count(a.workload))
        usage();
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    Run c(args);
    c.line(fmt("workload %s seed %llu seconds %g trace %d",
               args.workload.c_str(), (unsigned long long)args.seed,
               args.seconds, int(args.trace)));
    try {
        const UnitResult u = runUnit(c);
        if (args.trace) {
            tracedRun(c, u);
            const std::string path = join(args.work_dir, "spans.trace.json");
            c.spans.writeChromeTrace(path);
            c.line(fmt("%zu spans written to %s", c.spans.spans().size(),
                       path.c_str()));
        }
    } catch (const std::exception &e) {
        std::printf("FAILED: workload threw: %s\n", e.what());
        return 1;
    }
    c.line(fmt("failed_frac = %llu failed / %llu attempted",
               (unsigned long long)c.out.failed,
               (unsigned long long)c.out.attempted));
    for (const auto &r : c.metrics.rows())
        c.line(fmt("metric %s = %.10g %s", r.name.c_str(), r.value,
                   r.unit.c_str()));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                c.out.failed == 0 ? "true" : "false",
                (unsigned long long)c.out.attempted,
                (unsigned long long)c.out.failed, c.metrics.json().c_str());
    return 0;
}
