/**
 * @file
 * Sampled fast-forward timing tests: cluster-cap-1 reduces bitwise to the
 * detailed backend, repeated launches cycle-simulate exactly one
 * representative with bounded total-cycle error, results stay deterministic
 * across sim_threads in every mode, MLGS_TIMING resolves as documented, and
 * the per-launch breakdown / stats-JSON surfaces behave.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <vector>

#include "runtime/context.h"
#include "sample/sampled_backend.h"
#include "sim_test_util.h"
#include "trace/replayer.h"

using namespace mlgs;

namespace
{

const char *kVecAdd = R"(
.visible .entry vecadd(
    .param .u64 A, .param .u64 B, .param .u64 C, .param .u32 n)
{
    .reg .u64 %rd<8>;
    .reg .u32 %r<8>;
    .reg .f32 %f<4>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [A];
    ld.param.u64 %rd2, [B];
    ld.param.u64 %rd3, [C];
    ld.param.u32 %r1, [n];
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mov.u32 %r4, %tid.x;
    mad.lo.u32 %r5, %r2, %r3, %r4;
    setp.ge.u32 %p1, %r5, %r1;
    @%p1 bra DONE;
    mul.wide.u32 %rd4, %r5, 4;
    add.u64 %rd5, %rd1, %rd4;
    add.u64 %rd6, %rd2, %rd4;
    add.u64 %rd7, %rd3, %rd4;
    ld.global.f32 %f1, [%rd5];
    ld.global.f32 %f2, [%rd6];
    add.f32 %f3, %f1, %f2;
    st.global.f32 [%rd7], %f3;
DONE:
    ret;
}
)";

constexpr unsigned kBlock = 128;

/** One vecadd launch: CTA count + element slice it operates on. */
struct Launch
{
    unsigned ctas = 1;
    unsigned slice = 0; ///< disjoint data slice (0 = all launches overlap)
};

/** Everything observable about one run of a launch sequence. */
struct RunResult
{
    timing::TimingTotals totals;
    cycle_t elapsed = 0;
    std::vector<cycle_t> per_launch_cycles;
    std::vector<engine::TimingSource> sources;
    std::vector<float> c;
    std::vector<timing::KernelRunStats> per_launch_totals;
    sample::SamplingReport report;
    bool sampled = false;
};

double
relErr(uint64_t value, uint64_t reference)
{
    if (reference == 0)
        return 0.0;
    return std::fabs(double(value) - double(reference)) / double(reference);
}

/**
 * Run a sequence of vecadd launches on one performance-mode context. Each
 * launch covers its slice's elements; slices are sized for the largest CTA
 * count in the sequence so distinct slices never share cache lines.
 */
RunResult
runSeq(sample::TimingMode tm, const std::vector<Launch> &seq,
       const sample::SamplingOptions &sopts = {}, unsigned threads = 1,
       std::string *stats_json = nullptr)
{
    unsigned max_ctas = 1, max_slice = 0;
    for (const auto &l : seq) {
        max_ctas = std::max(max_ctas, l.ctas);
        max_slice = std::max(max_slice, l.slice);
    }
    const unsigned slice_elems = max_ctas * kBlock;
    const unsigned total = slice_elems * (max_slice + 1);

    cuda::ContextOptions opts;
    opts.mode = cuda::SimMode::Performance;
    opts.timing_mode = tm;
    opts.sampling = sopts;
    opts.sim_threads = threads;
    cuda::Context ctx(opts);
    ctx.loadModule(kVecAdd, "vecadd.ptx");

    std::vector<float> a(total), b(total);
    for (unsigned i = 0; i < total; i++) {
        a[i] = float(i % 1013);
        b[i] = 3.0f * float(i % 1013);
    }
    const addr_t da = ctx.malloc(total * 4);
    const addr_t db = ctx.malloc(total * 4);
    const addr_t dc = ctx.malloc(total * 4);
    ctx.memcpyH2D(da, a.data(), total * 4);
    ctx.memcpyH2D(db, b.data(), total * 4);
    ctx.memsetD(dc, 0, total * 4);

    for (const auto &l : seq) {
        const unsigned n = l.ctas * kBlock;
        const addr_t off = addr_t(l.slice) * slice_elems * 4;
        cuda::KernelArgs args;
        args.ptr(da + off).ptr(db + off).ptr(dc + off).u32(n);
        ctx.launch("vecadd", Dim3(l.ctas), Dim3(kBlock), args);
    }
    ctx.deviceSynchronize();

    RunResult run;
    run.totals = ctx.gpuModel().totals();
    run.elapsed = ctx.elapsedCycles();
    run.c.resize(total);
    ctx.memcpyD2H(run.c.data(), dc, total * 4);
    for (const auto &rec : ctx.launchLog()) {
        run.per_launch_cycles.push_back(rec.cycles);
        run.sources.push_back(rec.timing_source);
    }
    run.per_launch_totals = ctx.gpuModel().perLaunchTotals();
    if (const auto *sb = ctx.sampledBackend()) {
        run.report = sb->report();
        run.sampled = true;
    }
    if (stats_json)
        *stats_json = trace::statsJson(ctx);

    // Fast-forwarded launches execute the real functional model, so the
    // memory image must be exact in every timing mode.
    for (const auto &l : seq) {
        const unsigned base = l.slice * slice_elems;
        for (unsigned i = 0; i < l.ctas * kBlock; i++)
            EXPECT_EQ(run.c[base + i], 4.0f * float((base + i) % 1013))
                << "slice " << l.slice << " elem " << i;
    }
    return run;
}

/** N identical-geometry launches, each on its own data slice. */
std::vector<Launch>
repeatedSeq(unsigned n, unsigned ctas)
{
    std::vector<Launch> seq;
    for (unsigned i = 0; i < n; i++)
        seq.push_back({ctas, i});
    return seq;
}

TEST(Sampling, CapOneBitwiseIdenticalToDetailed)
{
    // max_cluster_size == 1 disables clustering: every launch must route to
    // the detailed cycle model and reproduce TimingBackend output bitwise.
    const std::vector<Launch> seq = {{4, 0}, {8, 1}, {4, 2},
                                     {8, 0}, {16, 1}, {4, 1}};
    const RunResult det = runSeq(sample::TimingMode::Detailed, seq);
    sample::SamplingOptions cap1;
    cap1.max_cluster_size = 1;
    const RunResult smp = runSeq(sample::TimingMode::Sampled, seq, cap1);

    test::expectTotalsEq(det.totals, smp.totals);
    EXPECT_EQ(det.elapsed, smp.elapsed);
    EXPECT_EQ(det.per_launch_cycles, smp.per_launch_cycles);
    EXPECT_EQ(det.c, smp.c);

    ASSERT_TRUE(smp.sampled);
    EXPECT_EQ(smp.report.detailed_launches, seq.size());
    EXPECT_EQ(smp.report.extrapolated_launches, 0u);
    for (const auto src : smp.sources)
        EXPECT_EQ(src, engine::TimingSource::Detailed);
    ASSERT_FALSE(det.sources.empty());
    for (const auto src : det.sources)
        EXPECT_EQ(src, engine::TimingSource::Detailed);
}

TEST(Sampling, RepeatedLaunchOneDetailedBoundedError)
{
    const unsigned kN = 12;
    const auto seq = repeatedSeq(kN, 8);
    const RunResult det = runSeq(sample::TimingMode::Detailed, seq);
    const RunResult smp = runSeq(sample::TimingMode::Sampled, seq);

    // One cluster, one representative cycle-simulated, the rest
    // fast-forwarded.
    ASSERT_TRUE(smp.sampled);
    EXPECT_EQ(smp.report.clusters, 1u);
    EXPECT_EQ(smp.report.detailed_launches, 1u);
    EXPECT_EQ(smp.report.extrapolated_launches, uint64_t(kN - 1));
    ASSERT_EQ(smp.sources.size(), size_t(kN));
    EXPECT_EQ(smp.sources[0], engine::TimingSource::Detailed);
    for (unsigned i = 1; i < kN; i++)
        EXPECT_EQ(smp.sources[i], engine::TimingSource::Extrapolated) << i;

    // Instruction-class counters come from the functional model: exact.
    EXPECT_EQ(det.totals.warp_instructions, smp.totals.warp_instructions);
    EXPECT_EQ(det.totals.thread_instructions, smp.totals.thread_instructions);
    EXPECT_EQ(det.totals.alu, smp.totals.alu);
    EXPECT_EQ(det.totals.mem_insts, smp.totals.mem_insts);

    // Cycle view is estimated; identical-geometry launches on disjoint
    // slices must extrapolate tightly.
    EXPECT_LE(relErr(smp.totals.cycles, det.totals.cycles), 0.10)
        << smp.totals.cycles << " vs detailed " << det.totals.cycles;
    EXPECT_LE(relErr(smp.elapsed, det.elapsed), 0.10)
        << smp.elapsed << " vs detailed " << det.elapsed;
}

TEST(Sampling, DeterministicAcrossSimThreadsAllModes)
{
    const std::vector<Launch> seq = {{4, 0}, {8, 1}, {4, 1}, {8, 0}, {16, 0},
                                     {4, 2}, {8, 2}, {16, 1}, {4, 0}, {8, 1}};
    for (const auto tm :
         {sample::TimingMode::Detailed, sample::TimingMode::Sampled}) {
        const RunResult serial = runSeq(tm, seq, {}, 1);
        const RunResult par = runSeq(tm, seq, {}, 4);
        test::expectTotalsEq(serial.totals, par.totals);
        EXPECT_EQ(serial.elapsed, par.elapsed) << sample::timingModeName(tm);
        EXPECT_EQ(serial.per_launch_cycles, par.per_launch_cycles);
        EXPECT_EQ(serial.sources, par.sources);
        EXPECT_EQ(serial.c, par.c);
    }
}

TEST(Sampling, TimingModeResolution)
{
    // An explicit ContextOptions::timing_mode beats MLGS_TIMING; Auto
    // resolves the env var; anything but "detailed" / "sampled" is refused.
    const char *saved = std::getenv("MLGS_TIMING");
    const std::string saved_val = saved ? saved : "";
    const auto context = [](sample::TimingMode tm) {
        cuda::ContextOptions opts;
        opts.mode = cuda::SimMode::Performance;
        opts.timing_mode = tm;
        return cuda::Context(opts);
    };

    ::setenv("MLGS_TIMING", "sampled", 1);
    {
        const cuda::Context auto_resolved = context(sample::TimingMode::Auto);
        EXPECT_EQ(auto_resolved.timingMode(), sample::TimingMode::Sampled);
        EXPECT_NE(auto_resolved.sampledBackend(), nullptr);
        const cuda::Context explicit_detailed =
            context(sample::TimingMode::Detailed);
        EXPECT_EQ(explicit_detailed.timingMode(),
                  sample::TimingMode::Detailed);
        EXPECT_EQ(explicit_detailed.sampledBackend(), nullptr);
    }
    ::setenv("MLGS_TIMING", "detailed", 1);
    {
        const cuda::Context explicit_sampled =
            context(sample::TimingMode::Sampled);
        EXPECT_EQ(explicit_sampled.timingMode(), sample::TimingMode::Sampled);
        EXPECT_EQ(sample::resolveTimingMode(sample::TimingMode::Auto),
                  sample::TimingMode::Detailed);
    }
    for (const char *bad : {"predicted", "garbage"}) {
        ::setenv("MLGS_TIMING", bad, 1);
        try {
            sample::resolveTimingMode(sample::TimingMode::Auto);
            ADD_FAILURE() << "MLGS_TIMING=" << bad << " was accepted";
        } catch (const FatalError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("'detailed'"), std::string::npos) << msg;
            EXPECT_NE(msg.find("'sampled'"), std::string::npos) << msg;
            EXPECT_NE(msg.find(bad), std::string::npos) << msg;
        }
    }
    EXPECT_FALSE(sample::parseTimingMode("predicted").has_value());

    if (saved)
        ::setenv("MLGS_TIMING", saved_val.c_str(), 1);
    else
        ::unsetenv("MLGS_TIMING");
}

TEST(Sampling, PerLaunchTotalsBreakdown)
{
    // Detailed mode: one KernelRunStats window per launch, in retirement
    // order, whose counters sum to the grand totals, every one of them.
    const std::vector<Launch> seq = {{4, 0}, {8, 1}, {16, 2}};
    const RunResult det = runSeq(sample::TimingMode::Detailed, seq);
    ASSERT_EQ(det.per_launch_totals.size(), seq.size());
    timing::TimingTotals sum;
    cycle_t prev_start = 0;
    for (const auto &rs : det.per_launch_totals) {
        EXPECT_EQ(rs.kernel_name, "vecadd");
        EXPECT_GT(rs.cycles, 0u);
        EXPECT_GE(rs.start_cycle, prev_start);
        prev_start = rs.start_cycle;
        sum += rs.totals;
    }
    test::expectTotalsEq(sum, det.totals);

    // Sampled mode: only the cycle-simulated representative appears.
    const RunResult smp =
        runSeq(sample::TimingMode::Sampled, repeatedSeq(5, 8));
    ASSERT_TRUE(smp.sampled);
    EXPECT_EQ(smp.per_launch_totals.size(), 1u);
}

TEST(Sampling, DeferredBeginDoesNotBackdateFastLaunch)
{
    // With kernel residency capped at 1, a second stream's launch is held
    // back until the first kernel retires. The fast-forward path must start
    // the held launch at the device clock, not the stream's stale ready
    // time — otherwise its extrapolated window retroactively overlaps the
    // kernel it queued behind. Two streams must degrade to exactly the
    // single-stream back-to-back schedule.
    auto run = [](bool two_streams) {
        cuda::ContextOptions opts;
        opts.mode = cuda::SimMode::Performance;
        opts.timing_mode = sample::TimingMode::Sampled;
        opts.gpu.max_resident_kernels = 1;
        cuda::Context ctx(opts);
        ctx.loadModule(kVecAdd, "vecadd.ptx");
        const unsigned n = 8 * kBlock;
        const addr_t da = ctx.malloc(n * 4);
        const addr_t db = ctx.malloc(n * 4);
        const addr_t dc = ctx.malloc(n * 4);
        ctx.memsetD(da, 0, n * 4);
        ctx.memsetD(db, 0, n * 4);
        cuda::Stream *s1 = ctx.createStream();
        cuda::Stream *s2 = two_streams ? ctx.createStream() : s1;
        cuda::KernelArgs args;
        args.ptr(da).ptr(db).ptr(dc).u32(n);
        ctx.launch("vecadd", Dim3(8), Dim3(kBlock), args, s1);
        ctx.launch("vecadd", Dim3(8), Dim3(kBlock), args, s2);
        ctx.deviceSynchronize();
        return ctx.elapsedCycles();
    };
    EXPECT_EQ(run(true), run(false));
}

TEST(Sampling, StatsJsonSamplingSectionOnlyInSampledModes)
{
    const auto seq = repeatedSeq(3, 4);
    std::string det_json, smp_json;
    runSeq(sample::TimingMode::Detailed, seq, {}, 1, &det_json);
    runSeq(sample::TimingMode::Sampled, seq, {}, 1, &smp_json);
    EXPECT_EQ(det_json.find("\"sampling\""), std::string::npos);
    EXPECT_NE(smp_json.find("\"sampling\""), std::string::npos);
    EXPECT_NE(smp_json.find("\"extrapolated_launches\": 2"),
              std::string::npos);
}

} // namespace
