/**
 * @file
 * Timing-model tests: correctness is preserved under the performance model,
 * cycle counts behave sensibly, caches/DRAM/interconnect bookkeeping, the
 * AerialVision sampler series, and the per-pc timing table the core
 * schedules from.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "bench/trace_workloads.h"
#include "func/site_profiler.h"
#include "power/power_model.h"
#include "ptx/uop.h"
#include "sim_test_util.h"
#include "timing/gpu.h"

using namespace mlgs;
using namespace mlgs::test;

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

struct TimingFixture
{
    MiniGpu gpu;
    ptx::Module module;
    addr_t da = 0, db = 0, dc = 0;
    unsigned n = 4096;
    func::LaunchEnv env;

    TimingFixture() : module(ptx::parseModule(kVecAdd, "vecadd.ptx"))
    {
        std::vector<float> a(n), b(n);
        for (unsigned i = 0; i < n; i++) {
            a[i] = float(i);
            b[i] = 3.0f * float(i);
        }
        da = gpu.uploadVec(a);
        db = gpu.uploadVec(b);
        dc = gpu.alloc.alloc(n * 4);
        ParamPack p;
        p.add<uint64_t>(da).add<uint64_t>(db).add<uint64_t>(dc).add<uint32_t>(n);
        env.kernel = module.findKernel("vecadd");
        env.params = p.bytes();
        env.symbols = &gpu.symbols;
    }

    void
    checkResult()
    {
        const auto c = gpu.download<float>(dc, n);
        for (unsigned i = 0; i < n; i++)
            ASSERT_EQ(c[i], 4.0f * float(i)) << i;
    }
};

TEST(Timing, VecAddCorrectUnderTimingModel)
{
    TimingFixture f;
    timing::GpuConfig cfg;
    cfg.num_cores = 4;
    timing::GpuModel gpu_model(cfg, f.gpu.exec);
    const auto rs = gpu_model.runKernel(f.env, Dim3(f.n / 128), Dim3(128));
    f.checkResult();
    EXPECT_GT(rs.cycles, 100u);
    EXPECT_GT(rs.warp_instructions, 0u);
    EXPECT_GT(rs.ipc, 0.0);
    // Every warp executes all 19 static instructions exactly once.
    EXPECT_EQ(rs.warp_instructions, (f.n / 32) * 19u);
}

TEST(Timing, MoreCoresFewerCycles)
{
    cycle_t cycles_small = 0, cycles_big = 0;
    {
        TimingFixture f;
        timing::GpuConfig cfg;
        cfg.num_cores = 1;
        timing::GpuModel m(cfg, f.gpu.exec);
        cycles_small = m.runKernel(f.env, Dim3(f.n / 128), Dim3(128)).cycles;
        f.checkResult();
    }
    {
        TimingFixture f;
        timing::GpuConfig cfg;
        cfg.num_cores = 8;
        timing::GpuModel m(cfg, f.gpu.exec);
        cycles_big = m.runKernel(f.env, Dim3(f.n / 128), Dim3(128)).cycles;
        f.checkResult();
    }
    EXPECT_LT(cycles_big, cycles_small);
}

TEST(Timing, SchedulerPoliciesBothComplete)
{
    for (const auto pol : {timing::SchedPolicy::GTO, timing::SchedPolicy::LRR}) {
        TimingFixture f;
        timing::GpuConfig cfg;
        cfg.num_cores = 2;
        cfg.sched_policy = pol;
        timing::GpuModel m(cfg, f.gpu.exec);
        const auto rs = m.runKernel(f.env, Dim3(f.n / 128), Dim3(128));
        f.checkResult();
        EXPECT_GT(rs.cycles, 0u);
    }
}

TEST(Timing, AerialSamplerSeries)
{
    TimingFixture f;
    timing::GpuConfig cfg;
    cfg.num_cores = 2;
    timing::GpuModel m(cfg, f.gpu.exec);
    stats::AerialSampler sampler(64, cfg.num_cores, cfg.totalDramBanks());
    m.attachSampler(&sampler);
    m.runKernel(f.env, Dim3(f.n / 128), Dim3(128));
    sampler.finish();
    ASSERT_FALSE(sampler.buckets().empty());
    EXPECT_GT(sampler.globalIpc(), 0.0);
    EXPECT_GT(sampler.meanDramUtilization(), 0.0);
    EXPECT_LE(sampler.meanDramEfficiency(), 1.0 + 1e-9);
    // Renderers should produce non-empty art.
    EXPECT_NE(sampler.renderBankHeatmap().find("DRAM"), std::string::npos);
    EXPECT_NE(sampler.renderIpcStrip().find("IPC"), std::string::npos);
    EXPECT_NE(sampler.renderWarpBreakdown().find("warp"), std::string::npos);
}

/**
 * Four independent loads per thread at a 128-byte lane stride: every warp
 * load splits into 32 line requests. One CTA of four warps on one core
 * gives each scheduler a single warp, so nothing but the memory-structural
 * wake-ups can restart a scheduler that the out-queue limit or the
 * pending-load cap stopped.
 */
const char *kScatter = R"(
.visible .entry scatter(.param .u64 A, .param .u64 C)
{
    .reg .u64 %rd<8>;
    .reg .u32 %r<2>;
    .reg .f32 %f<8>;
    ld.param.u64 %rd1, [A];
    ld.param.u64 %rd2, [C];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd3, %r1, 128;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.f32 %f1, [%rd4];
    ld.global.f32 %f2, [%rd4+16384];
    ld.global.f32 %f3, [%rd4+32768];
    ld.global.f32 %f4, [%rd4+49152];
    add.f32 %f5, %f1, %f2;
    add.f32 %f6, %f3, %f4;
    add.f32 %f7, %f5, %f6;
    mul.wide.u32 %rd5, %r1, 4;
    add.u64 %rd6, %rd2, %rd5;
    st.global.f32 [%rd6], %f7;
    ret;
}
)";

/**
 * Warp 0 waits on a global load before bar.sync while warps 1-3 reach the
 * barrier at once, so their schedulers stall at the barrier for the load's
 * latency. C[i] = 2 A[i] for the first 32 threads, 0 for the rest.
 */
const char *kBarrierWait = R"(
.visible .entry barwait(.param .u64 A, .param .u64 C)
{
    .reg .u64 %rd<6>;
    .reg .u32 %r<2>;
    .reg .f32 %f<3>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [A];
    ld.param.u64 %rd2, [C];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd3, %r1, 4;
    mov.f32 %f2, 0f00000000;
    setp.ge.u32 %p1, %r1, 32;
    @%p1 bra WAIT;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.f32 %f1, [%rd4];
    add.f32 %f2, %f1, %f1;
WAIT:
    bar.sync 0;
    add.u64 %rd5, %rd2, %rd3;
    st.global.f32 [%rd5], %f2;
    ret;
}
)";

/**
 * One 128-thread CTA of a kernel taking (A, C) on one core with four
 * schedulers, so each scheduler owns one warp. A holds 4 x 128 x 32 ones,
 * C 128 floats.
 */
struct OneCtaRun
{
    MiniGpu gpu;
    ptx::Module module;
    func::LaunchEnv env;
    addr_t c = 0;
    timing::GpuConfig cfg;

    OneCtaRun(const char *src, const char *kernel, timing::SchedPolicy pol,
              unsigned pending_load_cap = 64)
        : module(ptx::parseModule(src, "one_cta.ptx"))
    {
        const addr_t a = gpu.uploadVec(std::vector<float>(4 * 128 * 32, 1.0f));
        c = gpu.alloc.alloc(128 * 4);
        ParamPack p;
        p.add<uint64_t>(a).add<uint64_t>(c);
        env.kernel = module.findKernel(kernel);
        env.params = p.bytes();
        env.symbols = &gpu.symbols;
        cfg.num_cores = 1;
        cfg.schedulers_per_core = 4;
        cfg.sched_policy = pol;
        cfg.max_pending_loads_per_warp = pending_load_cap;
    }

    /** Run the CTA on `model`; returns C. */
    std::vector<float>
    run(timing::GpuModel &model)
    {
        model.runKernel(env, Dim3(1), Dim3(128));
        return gpu.download<float>(c, 128);
    }
};

/**
 * Attaching a sampler only reads the model's counters; it must not change
 * what the model simulates. A difference here means the sampler reaches
 * back into the core or the memory system.
 */
TEST(Timing, AttachedSamplerLeavesTotalsUnchanged)
{
    for (const auto pol : {timing::SchedPolicy::GTO, timing::SchedPolicy::LRR}) {
        SCOPED_TRACE(pol == timing::SchedPolicy::GTO ? "GTO" : "LRR");
        // A stall-heavy conv on the full GTX 1080 Ti.
        bench::ConvTraceSpec spec;
        spec.sched = pol;
        const auto conv = [&](bool attach) {
            const auto opts = bench::convTraceOptions(spec);
            cuda::Context ctx(opts);
            stats::AerialSampler sampler(256, opts.gpu.num_cores,
                                         opts.gpu.totalDramBanks());
            if (attach)
                ctx.attachSampler(&sampler);
            bench::runConvFrontend(ctx, spec);
            return ctx.gpuModel().totals();
        };
        const timing::TimingTotals quiet = conv(false);
        EXPECT_GT(quiet.warp_instructions, 0u);
        expectTotalsEq(quiet, conv(true));

        // The scatter kernel: the default cap of 64 load parts stops each
        // warp after two loads; a cap of 1024 lets all four go, so the
        // out-queue passes its limit instead.
        for (const unsigned cap : {64u, 1024u}) {
            SCOPED_TRACE("scatter, pending-load cap " + std::to_string(cap));
            const auto scatter = [&](bool attach) {
                OneCtaRun run(kScatter, "scatter", pol, cap);
                timing::GpuModel model(run.cfg, run.gpu.exec);
                stats::AerialSampler sampler(64, run.cfg.num_cores,
                                             run.cfg.totalDramBanks());
                if (attach)
                    model.attachSampler(&sampler);
                EXPECT_EQ(run.run(model), std::vector<float>(128, 4.0f));
                return model.totals();
            };
            const timing::TimingTotals quiet_scatter = scatter(false);
            EXPECT_EQ(quiet_scatter.warp_instructions, 4u * 16u);
            expectTotalsEq(quiet_scatter, scatter(true));
        }
    }
}

/**
 * Check the identities of a sampler's buckets over a run whose counters
 * moved by `covered` while it was attached; returns the summed stalls.
 * Every scheduler slot of every sampled core-cycle issues or stalls, so a
 * bucket's instructions and stalls fill cycles x cores x schedulers.
 */
std::vector<uint64_t>
expectConservedBuckets(const stats::AerialSampler &sampler,
                       const timing::GpuConfig &cfg,
                       const timing::TimingTotals &covered)
{
    const auto sum = [](const std::vector<uint64_t> &v) {
        uint64_t n = 0;
        for (const uint64_t x : v)
            n += x;
        return n;
    };
    std::vector<uint64_t> stalls(size_t(stats::StallKind::kCount), 0);
    uint64_t cycles = 0, instructions = 0;
    for (size_t i = 0; i < sampler.buckets().size(); i++) {
        const stats::AerialBucket &b = sampler.buckets()[i];
        SCOPED_TRACE("bucket " + std::to_string(i));
        EXPECT_EQ(b.start_cycle, cycles);
        EXPECT_GT(b.cycles, 0u);
        EXPECT_LE(b.cycles, sampler.bucketCycles());
        const uint64_t slots =
            b.cycles * cfg.num_cores * cfg.schedulers_per_core;
        EXPECT_EQ(b.instructions + sum(b.stalls), slots);
        for (const uint64_t stalled : b.stalls)
            EXPECT_LE(stalled, slots); // derived Idle did not wrap
        EXPECT_EQ(sum(b.lane_histogram), b.instructions);
        EXPECT_EQ(sum(b.core_instructions), b.instructions);
        for (unsigned k = 0; k < cfg.totalDramBanks(); k++) {
            EXPECT_LE(b.bank_busy[k], b.bank_pending[k]) << "bank " << k;
            EXPECT_LE(b.bank_pending[k], b.cycles) << "bank " << k;
        }
        if (::testing::Test::HasFailure())
            break;
        cycles += b.cycles;
        instructions += b.instructions;
        for (size_t k = 0; k < stalls.size(); k++)
            stalls[k] += b.stalls[k];
    }
    EXPECT_EQ(cycles, covered.cycles);
    EXPECT_EQ(instructions, covered.warp_instructions);
    return stalls;
}

uint64_t
stallsOf(const std::vector<uint64_t> &stalls, stats::StallKind kind)
{
    return stalls[size_t(kind)];
}

TEST(Timing, AerialBucketsConserveIssueSlots)
{
    using stats::StallKind;
    for (const auto pol : {timing::SchedPolicy::GTO, timing::SchedPolicy::LRR}) {
        SCOPED_TRACE(pol == timing::SchedPolicy::GTO ? "GTO" : "LRR");
        // The stall kinds must not depend on where the buckets cut the run.
        // One-cycle buckets only on the one-CTA kernels: on the conv pass
        // they would hold tens of thousands of buckets.
        std::vector<uint64_t> conv_stalls;
        for (const unsigned bucket : {7u, 256u}) {
            SCOPED_TRACE("conv pass, bucket " + std::to_string(bucket));
            bench::ConvTraceSpec spec;
            spec.sched = pol;
            const auto opts = bench::convTraceOptions(spec);
            cuda::Context ctx(opts);
            stats::AerialSampler sampler(bucket, opts.gpu.num_cores,
                                         opts.gpu.totalDramBanks());
            ctx.attachSampler(&sampler);
            bench::runConvFrontend(ctx, spec);
            sampler.finish();
            const auto stalls = expectConservedBuckets(
                sampler, opts.gpu, ctx.gpuModel().totals());
            EXPECT_GT(stallsOf(stalls, StallKind::DataHazard), 0u);
            if (conv_stalls.empty())
                conv_stalls = stalls;
            EXPECT_EQ(stalls, conv_stalls);
        }

        struct Kernel
        {
            const char *src, *name;
            unsigned cap;
            StallKind must_stall;
        };
        for (const Kernel &k :
             {Kernel{kScatter, "scatter", 64, StallKind::MemStructural},
              Kernel{kScatter, "scatter", 1024, StallKind::MemStructural},
              Kernel{kBarrierWait, "barwait", 64, StallKind::Barrier}}) {
            std::vector<uint64_t> kernel_stalls;
            for (const unsigned bucket : {1u, 7u, 256u}) {
                SCOPED_TRACE(std::string(k.name) + ", pending-load cap " +
                             std::to_string(k.cap) + ", bucket " +
                             std::to_string(bucket));
                OneCtaRun run(k.src, k.name, pol, k.cap);
                timing::GpuModel model(run.cfg, run.gpu.exec);
                stats::AerialSampler sampler(bucket, run.cfg.num_cores,
                                             run.cfg.totalDramBanks());
                model.attachSampler(&sampler);
                run.run(model);
                sampler.finish();
                const auto stalls =
                    expectConservedBuckets(sampler, run.cfg, model.totals());
                EXPECT_GT(stallsOf(stalls, k.must_stall), 0u);
                if (kernel_stalls.empty())
                    kernel_stalls = stalls;
                EXPECT_EQ(stalls, kernel_stalls);
            }
        }
    }

    // A sampler attached between two launches covers only the second.
    TimingFixture f;
    timing::GpuConfig cfg;
    cfg.num_cores = 2;
    timing::GpuModel m(cfg, f.gpu.exec);
    m.runKernel(f.env, Dim3(f.n / 128), Dim3(128));
    const timing::TimingTotals first = m.totals();
    stats::AerialSampler sampler(7, cfg.num_cores, cfg.totalDramBanks());
    m.attachSampler(&sampler);
    m.runKernel(f.env, Dim3(f.n / 128), Dim3(128));
    sampler.finish();
    ASSERT_GT(first.cycles, 0u);
    expectConservedBuckets(sampler, cfg, m.totals() - first);
}

TEST(Timing, ValidateAcceptsPresetsAndRejectsOutOfRange)
{
    for (const auto &cfg :
         {timing::GpuConfig{}, timing::GpuConfig::gtx1050(),
          timing::GpuConfig::gtx1080ti()})
        EXPECT_NO_THROW(timing::validate(cfg)) << cfg.name;

    using Corrupt = void (*)(timing::GpuConfig &);
    const Corrupt cases[] = {
        [](timing::GpuConfig &g) { g.num_cores = 0; },
        [](timing::GpuConfig &g) { g.max_warps_per_core = 0; },
        [](timing::GpuConfig &g) { g.max_ctas_per_core = 0; },
        [](timing::GpuConfig &g) { g.max_threads_per_core = 0; },
        [](timing::GpuConfig &g) { g.schedulers_per_core = 0; },
        [](timing::GpuConfig &g) { g.alu_latency = 0; },
        [](timing::GpuConfig &g) { g.sfu_latency = 1u << 20; },
        [](timing::GpuConfig &g) { g.max_pending_loads_per_warp = 0; },
        [](timing::GpuConfig &g) { g.l1.mshr_entries = 0; },
        [](timing::GpuConfig &g) { g.l1.line_bytes = 96; },
        [](timing::GpuConfig &g) { g.l2.assoc = 0; },
        [](timing::GpuConfig &g) { g.max_resident_kernels = 0; },
        [](timing::GpuConfig &g) { g.num_partitions = 0; },
        [](timing::GpuConfig &g) { g.dram_banks = 0; },
        [](timing::GpuConfig &g) { g.dram_row_bytes = 64; },
        [](timing::GpuConfig &g) { g.dram_sched_window = 0; },
        [](timing::GpuConfig &g) { g.core_clock_ghz = 0; },
    };
    for (size_t i = 0; i < std::size(cases); i++) {
        timing::GpuConfig cfg = timing::GpuConfig::gtx1050();
        cases[i](cfg);
        EXPECT_THROW(timing::validate(cfg), FatalError) << "case " << i;
        cuda::ContextOptions opts;
        opts.gpu = cfg;
        EXPECT_THROW(cuda::Context ctx(opts), FatalError) << "case " << i;
    }
}

TEST(Timing, MismatchedSamplerIsFatalError)
{
    TimingFixture f;
    timing::GpuConfig cfg;
    cfg.num_cores = 2;
    timing::GpuModel m(cfg, f.gpu.exec);
    const unsigned banks = cfg.totalDramBanks();
    stats::AerialSampler cores3(64, 3, banks);
    stats::AerialSampler banks_off(64, 2, banks + 1);
    for (stats::AerialSampler *wrong : {&cores3, &banks_off}) {
        try {
            m.attachSampler(wrong);
            ADD_FAILURE() << "a mis-shaped sampler attached";
        } catch (const FatalError &e) {
            const std::string msg = e.what();
            const std::string want =
                std::to_string(wrong->numCores()) + " cores and " +
                std::to_string(wrong->numBanks()) + " DRAM banks";
            const std::string device = "2 cores and " +
                                       std::to_string(banks) + " DRAM banks";
            EXPECT_NE(msg.find(want), std::string::npos) << msg;
            EXPECT_NE(msg.find(device), std::string::npos) << msg;
        }
    }
    // The failed attaches left no sampler behind.
    m.runKernel(f.env, Dim3(f.n / 128), Dim3(128));
    f.checkResult();
    for (stats::AerialSampler *wrong : {&cores3, &banks_off}) {
        wrong->finish();
        EXPECT_TRUE(wrong->buckets().empty());
    }
}

TEST(Timing, PowerBreakdownPositiveAndDominatedSensibly)
{
    TimingFixture f;
    timing::GpuConfig cfg;
    cfg.num_cores = 4;
    timing::GpuModel m(cfg, f.gpu.exec);
    m.runKernel(f.env, Dim3(f.n / 128), Dim3(128));
    power::PowerModel pm;
    const auto pb = pm.compute(m.totals(), cfg.core_clock_ghz);
    EXPECT_GT(pb.core_w, 0.0);
    EXPECT_GT(pb.dram_w, 0.0);
    EXPECT_GT(pb.idle_w, 0.0);
    EXPECT_GT(pb.total(), 0.0);
}

TEST(Timing, CacheBasics)
{
    timing::CacheConfig cc;
    cc.size_bytes = 1024;
    cc.line_bytes = 128;
    cc.assoc = 2; // 4 sets
    timing::TagCache cache(cc);

    EXPECT_EQ(cache.accessRead(0, 1), timing::CacheOutcome::Miss);
    EXPECT_EQ(cache.accessRead(0, 2), timing::CacheOutcome::MissMerged);
    cache.fill(0, 3);
    EXPECT_EQ(cache.accessRead(0, 4), timing::CacheOutcome::Hit);

    // Fill both ways of set 0, then evict LRU.
    cache.fill(4 * 128, 5);  // set 0, second way (4 sets * 128B stride)
    EXPECT_EQ(cache.accessRead(4 * 128, 6), timing::CacheOutcome::Hit);
    cache.fill(8 * 128, 7);  // evicts line 0 (LRU: last used at 4)
    EXPECT_EQ(cache.accessRead(8 * 128, 8), timing::CacheOutcome::Hit);
    EXPECT_EQ(cache.accessRead(0, 9), timing::CacheOutcome::Miss);

    // The MSHRs are a table of mshr_entries slots: a merged miss reports
    // its line's slot, a fill frees it, and a full table refuses new lines.
    cc.mshr_entries = 2;
    timing::TagCache small(cc);
    unsigned m0 = 9, m1 = 9, merged = 9, m2 = 9;
    EXPECT_EQ(small.accessRead(0, 1, &m0), timing::CacheOutcome::Miss);
    EXPECT_EQ(small.accessRead(128, 1, &m1), timing::CacheOutcome::Miss);
    EXPECT_NE(m0, m1);
    EXPECT_EQ(small.accessRead(128, 2, &merged),
              timing::CacheOutcome::MissMerged);
    EXPECT_EQ(merged, m1);
    EXPECT_EQ(small.accessRead(256, 2), timing::CacheOutcome::ReservationFail);
    EXPECT_EQ(small.fill(0, 3), m0);
    EXPECT_EQ(small.fill(0, 4), timing::TagCache::kNoMshr);
    EXPECT_EQ(small.accessRead(256, 5, &m2), timing::CacheOutcome::Miss);
    EXPECT_EQ(m2, m0);
    EXPECT_EQ(small.mshrInUse(), 2u);

    // Waiters drain per slot, oldest first.
    timing::MshrWaiters<unsigned> waiters(2);
    for (const unsigned v : {1u, 2u, 3u})
        waiters.push(1, v);
    waiters.push(0, 7);
    std::vector<unsigned> got;
    waiters.drain(1, [&](unsigned v) { got.push_back(v); });
    EXPECT_EQ(got, (std::vector<unsigned>{1, 2, 3}));
    EXPECT_FALSE(waiters.empty());
    waiters.drain(0, [&](unsigned v) { got.push_back(v); });
    EXPECT_EQ(got.back(), 7u);
    EXPECT_TRUE(waiters.empty());
}

TEST(Timing, FifoRingKeepsOrderAcrossGrowth)
{
    // Interleave pushes and pops so the ring wraps before each doubling.
    timing::FifoRing<unsigned> ring;
    unsigned next_in = 0, next_out = 0;
    for (unsigned round = 0; round < 40; round++) {
        for (unsigned i = 0; i < round + 3; i++)
            ring.push_back(next_in++);
        for (unsigned i = 0; i < round / 2 + 1; i++)
            ASSERT_EQ(ring.pop_front(), next_out++);
        ASSERT_EQ(ring.size(), next_in - next_out);
    }
    while (!ring.empty())
        ASSERT_EQ(ring.pop_front(), next_out++);
    EXPECT_EQ(next_out, next_in);

    // erase(i) removes one entry and keeps the others in order.
    for (unsigned v = 0; v < 20; v++)
        ring.push_back(v);
    ring.erase(5);
    ring.erase(0);
    EXPECT_EQ(ring[4], 6u);
    for (unsigned v = 1; v < 20; v++) {
        if (v != 5) {
            ASSERT_EQ(ring.pop_front(), v);
        }
    }
    EXPECT_TRUE(ring.empty());
}

TEST(Timing, DramRowHitsAndBankMapping)
{
    timing::GpuConfig cfg;
    cfg.num_partitions = 1;
    timing::DramChannel dram(cfg);

    // Same row: consecutive lines map to the same bank/row until the row
    // boundary (2048B / 128B = 16 lines).
    EXPECT_EQ(dram.bankOf(0), dram.bankOf(128 * 15));
    EXPECT_EQ(dram.rowOf(0), dram.rowOf(128 * 15));
    EXPECT_NE(dram.bankOf(0), dram.bankOf(128 * 16));

    timing::MemFetch a;
    a.line_addr = 0;
    timing::MemFetch b;
    b.line_addr = 128;
    dram.push(a, 0);
    dram.push(b, 0);
    cycle_t now = 0;
    unsigned done = 0;
    while (done < 2 && now < 10000) {
        dram.cycle(now);
        while (dram.hasDone(now)) {
            dram.popDone();
            done++;
        }
        now++;
    }
    EXPECT_EQ(done, 2u);
    EXPECT_EQ(dram.rowHits(), 1u);   // second access hits the open row
    EXPECT_EQ(dram.rowMisses(), 1u); // first opened it
}

TEST(Timing, FrFcfsPrefersRowHits)
{
    timing::GpuConfig cfg;
    cfg.num_partitions = 1;

    auto runPattern = [&](bool frfcfs) {
        cfg.dram_frfcfs = frfcfs;
        timing::DramChannel dram(cfg);
        // Interleave two rows of the same bank: FR-FCFS should batch them.
        const addr_t row_stride = 2048ull * cfg.dram_banks;
        for (int i = 0; i < 8; i++) {
            timing::MemFetch mf;
            mf.line_addr = (i % 2) ? row_stride : 0;
            mf.line_addr += addr_t(i / 2) * 128;
            dram.push(mf, 0);
        }
        cycle_t now = 0;
        unsigned done = 0;
        while (done < 8 && now < 100000) {
            dram.cycle(now);
            while (dram.hasDone(now)) {
                dram.popDone();
                done++;
            }
            now++;
        }
        EXPECT_EQ(done, 8u);
        return dram.rowHits();
    };

    const auto hits_frfcfs = runPattern(true);
    const auto hits_fcfs = runPattern(false);
    EXPECT_GT(hits_frfcfs, hits_fcfs);
}

TEST(Timing, ResumeFromSkippedCtasMatchesFull)
{
    // Timing-resume: running only the tail CTAs (others pre-executed
    // functionally) must produce the same memory image.
    TimingFixture full;
    timing::GpuConfig cfg;
    cfg.num_cores = 2;
    {
        timing::GpuModel m(cfg, full.gpu.exec);
        m.runKernel(full.env, Dim3(full.n / 128), Dim3(128));
        full.checkResult();
    }

    TimingFixture part;
    {
        // Functionally execute the first half of the CTAs.
        const uint64_t skip = (part.n / 128) / 2;
        for (uint64_t c = 0; c < skip; c++) {
            auto cta = part.gpu.engine.makeCta(part.env, Dim3(part.n / 128),
                                               Dim3(128), c);
            part.gpu.engine.runCta(*cta, part.env);
        }
        timing::GpuModel m(cfg, part.gpu.exec);
        const auto rs = m.runKernelFrom(part.env, Dim3(part.n / 128), Dim3(128),
                                        skip, {});
        part.checkResult();
        EXPECT_GT(rs.cycles, 0u);
    }
}

TEST(TimingTotals, OperatorsCoverEveryCounter)
{
    // Distinct values per counter: an operator that skips a counter, or
    // reads the wrong one, shows up under that counter's name.
    timing::TimingTotals a, b;
    uint64_t v = 1;
    for (const auto &c : timing::kTimingCounters) {
        a.*c.member = v;
        b.*c.member = 100 * v;
        v++;
    }
    timing::TimingTotals sum = b;
    sum += a;
    const timing::TimingTotals diff = b - a;
    EXPECT_TRUE(sum - a == b);
    EXPECT_FALSE(sum == b);
    v = 1;
    for (const auto &c : timing::kTimingCounters) {
        EXPECT_EQ(sum.*c.member, 101 * v) << c.name;
        EXPECT_EQ(diff.*c.member, 99 * v) << c.name;
        timing::TimingTotals other = a;
        other.*c.member += 1;
        EXPECT_FALSE(other == a) << c.name;
        v++;
    }
}

const char *kTableProbe = R"(
.tex .u64 tex_src;
.visible .entry table_probe(.param .u64 A)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<8>;
    .reg .s32 %s<4>;
    .reg .f32 %f<12>;
    .reg .pred %p<3>;
    ld.param.u64 %rd1, [A];
    div.approx.f32 %f3, %f1, %f2;
    div.s32 %s3, %s1, %s2;
    sin.approx.f32 %f4, %f1;
    ld.global.v4.f32 {%f5, %f6, %f7, %f8}, [%rd1];
    tex.2d.v4.f32.s32 {%f5, %f6, %f7, %f8}, [tex_src, {%r1, %r2}];
    red.global.add.f32 [%rd1], %f1;
    atom.global.add.u32 %r3, [%rd1], %r1;
    setp.lt.u32 %p1, %r1, %r2;
    @%p1 add.u32 %r4, %r1, %r2;
    ret;
}
)";

std::vector<uint32_t>
readSet(const ptx::InstrTiming &t)
{
    return {t.readSet().begin(), t.readSet().end()};
}

std::vector<uint32_t>
writeSet(const ptx::InstrTiming &t)
{
    return {t.writeSet().begin(), t.writeSet().end()};
}

TEST(TimingTable, ClassLatencyAndRegisterSetsPerPc)
{
    const ptx::Module m = ptx::parseModule(kTableProbe, "probe.ptx");
    const ptx::KernelDef &k = *m.findKernel("table_probe");
    const auto &tt = ptx::timingTable(k);
    ASSERT_EQ(tt.size(), k.instrs.size());
    const auto reg = [&](const char *name) { return uint32_t(k.regId(name)); };
    using ptx::LatencyClass;
    using ptx::PipeClass;
    using Regs = std::vector<uint32_t>;

    // Param-space ld: a mem-pipe op whose result needs only ALU latency.
    EXPECT_EQ(tt[0].pipe, PipeClass::Mem);
    EXPECT_EQ(tt[0].latency, LatencyClass::Alu);
    EXPECT_EQ(writeSet(tt[0]), Regs{reg("%rd1")});

    // Float div: ALU pipe, SFU latency (FuncStats counts it as sfu).
    EXPECT_EQ(tt[1].pipe, PipeClass::Alu);
    EXPECT_EQ(tt[1].latency, LatencyClass::Sfu);
    EXPECT_EQ(k.instrs[1].op, ptx::Op::Div);
    EXPECT_EQ(ptx::compiledProgram(k, {}).uops[1].stat_class, PipeClass::Sfu);

    // Integer div: ALU pipe, twice the SFU latency.
    EXPECT_EQ(tt[2].pipe, PipeClass::Alu);
    EXPECT_EQ(tt[2].latency, LatencyClass::Sfu2x);
    EXPECT_EQ(readSet(tt[2]), (Regs{reg("%s1"), reg("%s2")}));

    EXPECT_EQ(tt[3].pipe, PipeClass::Sfu);
    EXPECT_EQ(tt[3].latency, LatencyClass::Sfu);

    // ld.global.v4 writes all four vector registers.
    EXPECT_TRUE(tt[4].memAccess());
    EXPECT_EQ(writeSet(tt[4]),
              (Regs{reg("%f5"), reg("%f6"), reg("%f7"), reg("%f8")}));
    EXPECT_EQ(readSet(tt[4]), Regs{reg("%rd1")});

    // tex reads its coordinates and writes its vector destination.
    EXPECT_TRUE(tt[5].memAccess());
    EXPECT_EQ(readSet(tt[5]), (Regs{reg("%r1"), reg("%r2")}));
    EXPECT_EQ(tt[5].n_writes, 4u);
    EXPECT_FALSE(tt[5].atomic);

    // red writes nothing; atom writes its old-value register. Both atomic.
    EXPECT_TRUE(tt[6].atomic);
    EXPECT_EQ(writeSet(tt[6]), Regs{});
    EXPECT_EQ(readSet(tt[6]), (Regs{reg("%rd1"), reg("%f1")}));
    EXPECT_TRUE(tt[7].atomic);
    EXPECT_EQ(writeSet(tt[7]), Regs{reg("%r3")});

    // A guarded instruction reads its predicate.
    EXPECT_EQ(readSet(tt[9]), (Regs{reg("%p1"), reg("%r1"), reg("%r2")}));
    EXPECT_FALSE(tt[9].exit);
    EXPECT_TRUE(tt[10].exit);

    // setp with two predicate destinations (PTX's %p|%q form). The parser
    // has no such syntax, so give the parsed setp a two-register vector
    // destination operand.
    ptx::Instr two = k.instrs[8];
    ASSERT_EQ(two.op, ptx::Op::Setp);
    two.ops[0].kind = ptx::Operand::Kind::Vec;
    two.ops[0].vec = {k.regId("%p1"), k.regId("%p2")};
    const ptx::InstrTiming t2 = ptx::instrTiming(two);
    EXPECT_EQ(writeSet(t2), (Regs{reg("%p1"), reg("%p2")}));
    EXPECT_EQ(t2.pipe, PipeClass::Alu);
    EXPECT_EQ(t2.latency, LatencyClass::Alu);
}

TEST(TimingTable, MoreThanFourWrittenRegistersIsAFatalError)
{
    const std::string ptx = R"(
.tex .u64 tex_src;
.visible .entry wide_tex()
{
    .reg .s32 %r<3>;
    .reg .f32 %f<6>;
    tex.2d.v4.f32.s32 {%f1, %f2, %f3, %f4, %f5}, [tex_src, {%r1, %r2}];
    ret;
}
)";
    EXPECT_THROW(ptx::parseModule(ptx, "wide_tex.ptx"), FatalError);
}

/**
 * A kernel declaring `nf` f32 registers (plus 12 others) whose dependence
 * chain reads and writes registers across the whole file: ALU and SFU ops,
 * a global load into a high register, and an SFU write to its highest
 * register right before ret, so that writeback is still in flight when the
 * warp exits.
 */
std::string
widePtx(unsigned nf)
{
    std::ostringstream os;
    os << ".visible .entry wide(.param .u64 A, .param .u64 B)\n{\n"
       << "    .reg .u64 %rd<8>;\n    .reg .u32 %r<4>;\n"
       << "    .reg .f32 %f<" << nf << ">;\n"
       << "    ld.param.u64 %rd1, [A];\n    ld.param.u64 %rd2, [B];\n"
       << "    mov.u32 %r1, %ctaid.x;\n    mov.u32 %r2, %ntid.x;\n"
       << "    mov.u32 %r3, %tid.x;\n    mad.lo.u32 %r1, %r1, %r2, %r3;\n"
       << "    mul.wide.u32 %rd3, %r1, 4;\n    add.u64 %rd4, %rd1, %rd3;\n"
       << "    add.u64 %rd5, %rd2, %rd3;\n    ld.global.f32 %f0, [%rd4];\n";
    for (unsigned i = 1; i < nf; i++) {
        if (i == nf - 8)
            os << "    ld.global.f32 %f" << i << ", [%rd4];\n";
        else if (i % 10 == 0)
            os << "    sin.approx.f32 %f" << i << ", %f" << i - 1 << ";\n";
        else
            os << "    sub.f32 %f" << i << ", %f" << i - 1 << ", %f" << i / 2
               << ";\n";
    }
    os << "    st.global.f32 [%rd5], %f" << nf - 1 << ";\n"
       << "    sin.approx.f32 %f" << nf - 1 << ", %f" << nf - 2 << ";\n"
       << "    ret;\n}\n";
    return os.str();
}

/**
 * GTO picks its fallback warp from an age list kept sorted by (last issue,
 * slot). Launched at device clock 0, every age starts equal, so slot order
 * must hold through cycle 0; with more CTAs than one core holds, later CTAs
 * re-install slots mid-kernel, back into the age-0 prefix in slot order.
 * The list is checked after every cycle.
 */
TEST(Timing, GtoAgeOrderHoldsAcrossCtaWaves)
{
    TimingFixture f;
    timing::GpuConfig cfg;
    cfg.num_cores = 1;
    ASSERT_EQ(cfg.sched_policy, timing::SchedPolicy::GTO);
    const unsigned threads = 256, ctas = f.n / threads;
    // Eight warps per CTA: each scheduler gets several slots per CTA.
    ASSERT_GT(ctas, cfg.max_threads_per_core / threads);
    timing::GpuModel m(cfg, f.gpu.exec);
    ASSERT_EQ(m.clock(), 0u);
    m.beginKernel(f.env, Dim3(ctas), Dim3(threads), 0);
    m.assertSchedulingState();
    while (m.residentKernels() > 0) {
        m.advanceUntil(m.clock() + 1);
        m.assertSchedulingState();
    }
    f.checkResult();
    EXPECT_EQ(m.totals().warp_instructions, (f.n / 32) * 19u);
}

/**
 * A wide kernel (172 registers) launched ahead of vecadd (12 registers) on
 * two cores that hold two CTAs each. Once the wide grid is all issued,
 * vecadd CTAs take the warp slots its last CTAs free while their exit
 * writebacks are still in flight, so those writebacks clear registers in a
 * narrower kernel's warps. The scoreboard must stay in bounds and vecadd's
 * result must be right.
 */
TEST(Timing, NarrowKernelReusesWideKernelSlotsInFlight)
{
    TimingFixture f;
    const ptx::Module wide = ptx::parseModule(widePtx(160), "wide.ptx");
    const unsigned n = 1024;
    const addr_t in = f.gpu.uploadVec(std::vector<float>(n, 0.25f));
    const addr_t out = f.gpu.alloc.alloc(n * 4);
    ParamPack p;
    p.add<uint64_t>(in).add<uint64_t>(out);
    func::LaunchEnv wenv;
    wenv.kernel = wide.findKernel("wide");
    wenv.params = p.bytes();
    wenv.symbols = &f.gpu.symbols;
    EXPECT_GT(wenv.kernel->reg_types.size(), 128u);

    timing::GpuConfig cfg;
    cfg.num_cores = 2;
    cfg.max_ctas_per_core = 2;
    timing::GpuModel m(cfg, f.gpu.exec);
    m.beginKernel(wenv, Dim3(n / 64), Dim3(64), 0);
    m.beginKernel(f.env, Dim3(f.n / 128), Dim3(128), 0);
    while (m.residentKernels() > 0)
        m.advanceUntil(~cycle_t(0));
    f.checkResult();
    EXPECT_GT(m.totals().sfu, 0u);
    EXPECT_GT(m.totals().warp_instructions, 0u);
}

/** How runIssuePaths executes a kernel. */
enum class RunMode
{
    Functional, ///< the functional engine, no timing
    Detailed,   ///< detailed timing as configured
    PerStep,    ///< detailed timing with a SiteProfiler attached, which
                ///< executes every instruction at issue
};

struct PathRun
{
    std::vector<uint32_t> out;
    timing::TimingTotals totals;
};

/**
 * Run `kernel` (.param .u64 in, .param .u64 out, .param .u32 iters) over
 * `in`, returning `out_words` words of its output and the timing totals.
 */
PathRun
runIssuePaths(RunMode mode, const char *src, const char *kernel, Dim3 grid,
              Dim3 block, const std::vector<uint32_t> &in, size_t out_words,
              uint32_t iters, const timing::GpuConfig &cfg)
{
    MiniGpu gpu;
    func::SiteProfiler prof;
    if (mode == RunMode::PerStep)
        gpu.exec.setSiteProfiler(&prof);
    const ptx::Module m = ptx::parseModule(src, "issue_paths.ptx");
    const addr_t din = gpu.uploadVec(in);
    const addr_t dout = gpu.alloc.alloc(out_words * 4);
    gpu.mem.memset(dout, 0, out_words * 4);
    ParamPack p;
    p.add<uint64_t>(din).add<uint64_t>(dout).add<uint32_t>(iters);
    func::LaunchEnv env;
    env.kernel = m.findKernel(kernel);
    env.params = p.bytes();
    env.symbols = &gpu.symbols;

    PathRun run;
    if (mode == RunMode::Functional) {
        gpu.engine.launch(env, grid, block);
    } else {
        timing::GpuModel model(cfg, gpu.exec);
        model.runKernel(env, grid, block);
        run.totals = model.totals();
    }
    run.out = gpu.download<uint32_t>(dout, out_words);
    return run;
}

/**
 * %clock reads the CTA's executed instruction count, which depends on how
 * warps interleave: its kernel must execute at issue, as under an attached
 * SiteProfiler. Warps loop a warp-dependent number of times first, so the
 * values also differ from the functional engine's warp-serial order.
 */
TEST(Timing, ClockKernelExecutesAtIssue)
{
    const char *src = R"(
.visible .entry clocked(.param .u64 in, .param .u64 out, .param .u32 iters)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<10>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [out];
    ld.param.u32 %r1, [iters];
    mov.u32 %r2, %tid.x;
    mov.u32 %r3, %ctaid.x;
    mov.u32 %r4, %ntid.x;
    mad.lo.u32 %r5, %r3, %r4, %r2;
    shr.u32 %r6, %r2, 5;
    mad.lo.u32 %r6, %r6, %r1, %r1;
    mov.u32 %r7, 0;
LOOP:
    add.u32 %r7, %r7, 1;
    setp.lt.u32 %p1, %r7, %r6;
    @%p1 bra LOOP;
    mov.u32 %r8, %clock;
    mul.wide.u32 %rd2, %r5, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r8;
    ret;
}
)";
    const ptx::Module m = ptx::parseModule(src, "clocked.ptx");
    ASSERT_TRUE(ptx::readsClock(*m.findKernel("clocked")));
    ASSERT_FALSE(ptx::readsClock(
        *ptx::parseModule(kVecAdd, "vecadd.ptx").findKernel("vecadd")));

    timing::GpuConfig cfg;
    cfg.num_cores = 2;
    const Dim3 grid(4), block(128);
    const std::vector<uint32_t> in(1, 0);
    const PathRun detailed = runIssuePaths(RunMode::Detailed, src, "clocked",
                                           grid, block, in, 512, 40, cfg);
    const PathRun per_step = runIssuePaths(RunMode::PerStep, src, "clocked",
                                           grid, block, in, 512, 40, cfg);
    const PathRun functional = runIssuePaths(
        RunMode::Functional, src, "clocked", grid, block, in, 512, 40, cfg);
    EXPECT_EQ(detailed.out, per_step.out);
    expectTotalsEq(detailed.totals, per_step.totals);
    EXPECT_NE(detailed.out, functional.out);
}

/**
 * Warps run ahead of issue kIssueChunk instructions at a time. Here every
 * warp runs several chunks between barriers, exchanges values with another
 * warp through shared memory across two barriers per phase, and the grid
 * needs three waves of CTAs on two cores; one load is unaligned with a
 * stride above the line size, so lanes straddle into two new lines. The
 * output must equal the functional engine's, and every counter the run
 * that executes at issue.
 */
TEST(Timing, ChunkedWarpsCrossBarriersInWaves)
{
    const char *src = R"(
.visible .entry chunked(.param .u64 in, .param .u64 out, .param .u32 iters)
{
    .reg .u64 %rd<10>;
    .reg .u32 %r<12>;
    .reg .pred %p<3>;
    .shared .align 4 .b8 buf[512];
    ld.param.u64 %rd1, [in];
    ld.param.u64 %rd2, [out];
    ld.param.u32 %r1, [iters];
    mov.u32 %r2, %tid.x;
    mov.u32 %r3, %ctaid.x;
    mov.u32 %r4, %ntid.x;
    mad.lo.u32 %r5, %r3, %r4, %r2;
    mul.wide.u32 %rd3, %r5, 133;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.u32 %r6, [%rd4+126];
    mov.u64 %rd5, buf;
    mul.wide.u32 %rd6, %r2, 4;
    add.u64 %rd6, %rd5, %rd6;
    add.u32 %r7, %r2, 32;
    rem.u32 %r7, %r7, %r4;
    mul.wide.u32 %rd7, %r7, 4;
    add.u64 %rd7, %rd5, %rd7;
    mov.u32 %r8, 0;
PHASE:
    mov.u32 %r9, 0;
LOOP:
    mad.lo.u32 %r6, %r6, 1664525, 1013904223;
    xor.b32 %r6, %r6, %r9;
    add.u32 %r9, %r9, 1;
    setp.lt.u32 %p1, %r9, %r1;
    @%p1 bra LOOP;
    st.shared.u32 [%rd6], %r6;
    bar.sync 0;
    ld.shared.u32 %r10, [%rd7];
    bar.sync 0;
    add.u32 %r6, %r6, %r10;
    add.u32 %r8, %r8, 1;
    setp.lt.u32 %p2, %r8, 3;
    @%p2 bra PHASE;
    mul.wide.u32 %rd8, %r5, 4;
    add.u64 %rd8, %rd2, %rd8;
    st.global.u32 [%rd8], %r6;
    ret;
}
)";
    timing::GpuConfig cfg;
    cfg.num_cores = 2;
    cfg.max_ctas_per_core = 2;
    const unsigned ctas = 12, threads = 128, iters = 100;
    // Each loop iteration is 5 instructions: several chunks per phase.
    ASSERT_GT(5 * iters, 3 * timing::kIssueChunk);
    std::vector<uint32_t> in(ctas * threads * 34 + 64);
    for (unsigned i = 0; i < in.size(); i++)
        in[i] = i * 2654435761u + 12345u;

    const size_t words = size_t(ctas) * threads;
    const PathRun functional =
        runIssuePaths(RunMode::Functional, src, "chunked", Dim3(ctas),
                      Dim3(threads), in, words, iters, cfg);
    const PathRun detailed =
        runIssuePaths(RunMode::Detailed, src, "chunked", Dim3(ctas),
                      Dim3(threads), in, words, iters, cfg);
    const PathRun per_step =
        runIssuePaths(RunMode::PerStep, src, "chunked", Dim3(ctas),
                      Dim3(threads), in, words, iters, cfg);
    EXPECT_EQ(detailed.out, functional.out);
    EXPECT_EQ(per_step.out, functional.out);
    expectTotalsEq(detailed.totals, per_step.totals);
    EXPECT_GT(detailed.totals.shared_accesses, 0u);
}

/**
 * One warp through dependent chains of each fixed-latency class: ALU adds,
 * SFU sines, twice-SFU integer divides and a shared store-load pair, each
 * instruction waiting for the register the previous one writes. With
 * `div_before_ret`, a divide is the last instruction before ret, so the
 * kernel retires only once that write lands, although no instruction
 * reads it. The pinned counts are the scoreboard's latencies at work.
 */
std::string
chainPtx(bool div_before_ret)
{
    std::string src = R"(
.visible .entry chains(.param .u64 in, .param .u64 out, .param .u32 iters)
{
    .reg .u64 %rd<6>;
    .reg .u32 %r<16>;
    .reg .f32 %f<4>;
    .shared .align 4 .b8 buf[128];
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    add.u32 %r2, %r1, 1;
    add.u32 %r3, %r2, 2;
    add.u32 %r4, %r3, 3;
    cvt.rn.f32.u32 %f1, %r4;
    sin.approx.f32 %f2, %f1;
    sin.approx.f32 %f3, %f2;
    div.u32 %r5, %r4, 3;
    div.u32 %r6, %r5, 5;
    mov.u64 %rd2, buf;
    mul.wide.u32 %rd3, %r1, 4;
    add.u64 %rd3, %rd2, %rd3;
    st.shared.u32 [%rd3], %r6;
    ld.shared.u32 %r7, [%rd3];
    ld.shared.u32 %r8, [%rd3];
    add.u32 %r9, %r7, %r8;
    cvt.rzi.u32.f32 %r10, %f3;
    add.u32 %r11, %r9, %r10;
    add.u64 %rd4, %rd1, %rd3;
    sub.u64 %rd4, %rd4, %rd2;
)";
    // The divide variant keeps off global memory, whose drain would outlast
    // the divide's write.
    if (div_before_ret)
        src += "    st.shared.u32 [%rd3], %r11;\n"
               "    div.u32 %r12, %r11, 7;\n";
    else
        src += "    st.global.u32 [%rd4], %r11;\n";
    return src + "    ret;\n}\n";
}

TEST(Timing, FixedLatencyWritesGateIssue)
{
    const std::vector<uint32_t> in(1, 0);
    // out[i] = (i + 6) / 15 * 2 (the sines truncate to 0).
    std::vector<uint32_t> want(32);
    for (uint32_t i = 0; i < 32; i++)
        want[i] = (i + 6) / 15 * 2;
    for (const auto pol : {timing::SchedPolicy::GTO, timing::SchedPolicy::LRR})
        for (const bool div_before_ret : {false, true}) {
            SCOPED_TRACE(std::string(pol == timing::SchedPolicy::GTO ? "GTO"
                                                                     : "LRR") +
                         (div_before_ret ? ", div before ret" : ""));
            timing::GpuConfig cfg;
            cfg.num_cores = 1;
            cfg.sched_policy = pol;
            const std::string src = chainPtx(div_before_ret);
            const PathRun run =
                runIssuePaths(RunMode::Detailed, src.c_str(), "chains",
                              Dim3(1), Dim3(32), in, 32, 0, cfg);
            EXPECT_EQ(run.out, div_before_ret ? std::vector<uint32_t>(32, 0)
                                              : want);
            // The divide variant's warp exits before the divide's write
            // lands, and the kernel retires only once it has.
            EXPECT_EQ(run.totals.cycles, div_before_ret ? 173u : 217u);
            EXPECT_EQ(run.totals.warp_instructions,
                      div_before_ret ? 24u : 23u);
            EXPECT_EQ(run.totals.core_active_cycles,
                      div_before_ret ? 142u : 144u);
        }
}

/**
 * Many one-warp CTAs on one core: each warp's first long-latency
 * instruction is a global load into %r5, and its last instruction before
 * ret is a twice-SFU divide into %r5. The divide's write is still in
 * flight when the warp exits, and the next CTA re-installs the freed slot
 * at once and issues its own load into %r5. The orphaned write then lands
 * on the new occupant and clears %r5 before its load returns (DESIGN.md
 * §2, the slot-reuse quirk of GPGPU-Sim's scoreboard), so that warp's
 * dependent add issues early. Every counter and the output are pinned.
 */
const char *kOrphan = R"(
.visible .entry orphan(.param .u64 in, .param .u64 out, .param .u32 iters)
{
    .reg .u64 %rd<6>;
    .reg .u32 %r<8>;
    ld.param.u64 %rd1, [in];
    ld.param.u64 %rd2, [out];
    mov.u32 %r1, %ctaid.x;
    mul.wide.u32 %rd3, %r1, 128;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.u32 %r5, [%rd4];
    mov.u32 %r2, %tid.x;
    mad.lo.u32 %r3, %r1, 32, %r2;
    add.u32 %r6, %r5, %r3;
    mul.wide.u32 %rd5, %r3, 4;
    add.u64 %rd5, %rd2, %rd5;
    st.global.u32 [%rd5], %r6;
    div.u32 %r5, %r6, 7;
    ret;
}
)";

TEST(Timing, OrphanedWriteClearsNextOccupantRegister)
{
    const unsigned ctas = 96;
    std::vector<uint32_t> in(ctas * 32);
    for (unsigned i = 0; i < in.size(); i++)
        in[i] = i * 7919u;
    std::vector<uint32_t> want(ctas * 32);
    for (unsigned i = 0; i < want.size(); i++)
        want[i] = in[(i / 32) * 32] + i;
    timing::GpuConfig cfg;
    cfg.num_cores = 1;
    const PathRun run = runIssuePaths(RunMode::Detailed, kOrphan, "orphan",
                                      Dim3(ctas), Dim3(32), in, want.size(),
                                      0, cfg);
    EXPECT_EQ(run.out, want);
    const std::pair<const char *, uint64_t> pinned[] = {
        {"cycles", 820},
        {"warp_instructions", 1344},
        {"thread_instructions", 43008},
        {"alu", 960},
        {"sfu", 0},
        {"mem_insts", 384},
        {"shared_accesses", 0},
        {"l1_hits", 0},
        {"l1_misses", 192},
        {"l2_hits", 0},
        {"l2_misses", 192},
        {"icnt_flits", 1152},
        {"dram_reads", 192},
        {"dram_writes", 96},
        {"dram_row_hits", 180},
        {"dram_row_misses", 12},
        {"core_active_cycles", 776},
        {"core_idle_cycles", 44},
    };
    ASSERT_EQ(std::size(pinned), std::size(timing::kTimingCounters));
    for (size_t i = 0; i < std::size(pinned); i++) {
        const auto &c = timing::kTimingCounters[i];
        EXPECT_STREQ(c.name, pinned[i].first);
        EXPECT_EQ(run.totals.*c.member, pinned[i].second) << c.name;
    }
}

} // namespace
