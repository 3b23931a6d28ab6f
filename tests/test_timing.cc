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
 * An attached sampler makes every scheduler scan every cycle, for its
 * per-scheduler stall reason; without one, a scheduler whose scan found
 * nothing sleeps until an event wakes it. Both must simulate the same
 * machine: a wake-up the core misses shows here as a counter difference or
 * as a stall the watchdog ends.
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
                MiniGpu gpu;
                const ptx::Module m = ptx::parseModule(kScatter, "scatter.ptx");
                const addr_t a =
                    gpu.uploadVec(std::vector<float>(4 * 128 * 32, 1.0f));
                const addr_t c = gpu.alloc.alloc(128 * 4);
                ParamPack p;
                p.add<uint64_t>(a).add<uint64_t>(c);
                func::LaunchEnv env;
                env.kernel = m.findKernel("scatter");
                env.params = p.bytes();
                env.symbols = &gpu.symbols;
                timing::GpuConfig cfg;
                cfg.num_cores = 1;
                cfg.schedulers_per_core = 4;
                cfg.sched_policy = pol;
                cfg.max_pending_loads_per_warp = cap;
                timing::GpuModel model(cfg, gpu.exec);
                stats::AerialSampler sampler(64, cfg.num_cores,
                                             cfg.totalDramBanks());
                model.runKernel(env, Dim3(1), Dim3(128),
                                attach ? &sampler : nullptr);
                EXPECT_EQ(gpu.download<float>(c, 128),
                          std::vector<float>(128, 4.0f));
                return model.totals();
            };
            const timing::TimingTotals quiet_scatter = scatter(false);
            EXPECT_EQ(quiet_scatter.warp_instructions, 4u * 16u);
            expectTotalsEq(quiet_scatter, scatter(true));
        }
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

} // namespace
