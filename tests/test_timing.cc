/**
 * @file
 * Timing-model tests: correctness is preserved under the performance model,
 * cycle counts behave sensibly, caches/DRAM/interconnect bookkeeping, and
 * the AerialVision sampler series.
 */
#include <gtest/gtest.h>

#include "power/power_model.h"
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
    timing::GpuModel gpu_model(cfg, f.gpu.interp);
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
        timing::GpuModel m(cfg, f.gpu.interp);
        cycles_small = m.runKernel(f.env, Dim3(f.n / 128), Dim3(128)).cycles;
        f.checkResult();
    }
    {
        TimingFixture f;
        timing::GpuConfig cfg;
        cfg.num_cores = 8;
        timing::GpuModel m(cfg, f.gpu.interp);
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
        timing::GpuModel m(cfg, f.gpu.interp);
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
    timing::GpuModel m(cfg, f.gpu.interp);
    stats::AerialSampler sampler(64, cfg.num_cores, cfg.totalDramBanks());
    m.runKernel(f.env, Dim3(f.n / 128), Dim3(128), &sampler);
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

TEST(Timing, PowerBreakdownPositiveAndDominatedSensibly)
{
    TimingFixture f;
    timing::GpuConfig cfg;
    cfg.num_cores = 4;
    timing::GpuModel m(cfg, f.gpu.interp);
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
}

TEST(Timing, DramRowHitsAndBankMapping)
{
    timing::GpuConfig cfg;
    cfg.num_partitions = 1;
    timing::DramChannel dram(cfg, 0);

    // Same row: consecutive lines map to the same bank/row until the row
    // boundary (2048B / 128B = 16 lines).
    EXPECT_EQ(dram.bankOf(0), dram.bankOf(128 * 15));
    EXPECT_EQ(dram.rowOf(0), dram.rowOf(128 * 15));
    EXPECT_NE(dram.bankOf(0), dram.bankOf(128 * 16));

    timing::MemFetch a;
    a.line_addr = 0;
    timing::MemFetch b;
    b.line_addr = 128;
    dram.push(a);
    dram.push(b);
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
        timing::DramChannel dram(cfg, 0);
        // Interleave two rows of the same bank: FR-FCFS should batch them.
        const addr_t row_stride = 2048ull * cfg.dram_banks;
        for (int i = 0; i < 8; i++) {
            timing::MemFetch mf;
            mf.line_addr = (i % 2) ? row_stride : 0;
            mf.line_addr += addr_t(i / 2) * 128;
            dram.push(mf);
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
        timing::GpuModel m(cfg, full.gpu.interp);
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
        timing::GpuModel m(cfg, part.gpu.interp);
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

} // namespace
