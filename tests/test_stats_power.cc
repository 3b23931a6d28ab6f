/**
 * @file
 * Unit tests for the AerialVision-lite sampler, the power model, and the
 * hardware oracle's estimator math.
 */
#include <gtest/gtest.h>

#include "oracle/hw_oracle.h"
#include "power/power_model.h"
#include "sim_test_util.h"
#include "stats/aerial.h"

using namespace mlgs;

namespace
{

/** Zeroed cumulative counters of a device with `cores` cores and `banks` banks. */
stats::AerialBucket
zeroCounters(unsigned cores, unsigned banks)
{
    stats::AerialBucket c;
    c.core_instructions.assign(cores, 0);
    c.core_thread_instructions.assign(cores, 0);
    c.lane_histogram.assign(33, 0);
    c.stalls.assign(size_t(stats::StallKind::kCount), 0);
    c.bank_busy.assign(banks, 0);
    c.bank_pending.assign(banks, 0);
    return c;
}

void
countIssue(stats::AerialBucket &c, unsigned core, unsigned lanes)
{
    c.instructions++;
    c.core_instructions[core]++;
    c.core_thread_instructions[core] += lanes;
    c.lane_histogram[lanes]++;
}

TEST(Aerial, BucketsCloseOnBoundaries)
{
    stats::AerialSampler s(10, 2, 4);
    stats::AerialBucket c = zeroCounters(2, 4);
    s.start(c);
    for (int cycle = 0; cycle < 25; cycle++) {
        c.cycles++;
        countIssue(c, 0, 32);
        if (cycle % 2) {
            c.bank_busy[1]++;
            c.bank_pending[1]++;
        }
        s.observe(c);
    }
    s.finish();
    ASSERT_EQ(s.buckets().size(), 3u); // 10 + 10 + 5
    EXPECT_EQ(s.buckets()[0].cycles, 10u);
    EXPECT_EQ(s.buckets()[2].cycles, 5u);
    EXPECT_EQ(s.buckets()[2].start_cycle, 20u);
    EXPECT_EQ(s.buckets()[0].instructions, 10u);
    EXPECT_EQ(s.buckets()[0].lane_histogram[32], 10u);
    EXPECT_EQ(s.buckets()[0].bank_busy[1], 5u);
}

TEST(Aerial, EfficiencyVsUtilizationSemantics)
{
    // Bank busy 5 cycles, pending 10 cycles, total 20 cycles:
    // efficiency = 5/10, utilization = 5/20.
    stats::AerialSampler s(20, 1, 1);
    stats::AerialBucket c = zeroCounters(1, 1);
    s.start(c);
    c.cycles = 20;
    c.bank_busy[0] = 5;
    c.bank_pending[0] = 10;
    s.observe(c);
    s.finish();
    EXPECT_DOUBLE_EQ(s.meanDramEfficiency(), 0.5);
    EXPECT_DOUBLE_EQ(s.meanDramUtilization(), 0.25);
}

TEST(Aerial, StallFractions)
{
    stats::AerialSampler s(16, 1, 1);
    stats::AerialBucket c = zeroCounters(1, 1);
    s.start(c);
    for (int cycle = 0; cycle < 16; cycle++) {
        c.cycles++;
        if (cycle % 4 == 0)
            countIssue(c, 0, 16);
        else
            c.stalls[size_t(stats::StallKind::DataHazard)]++;
    }
    s.observe(c);
    s.finish();
    EXPECT_NEAR(s.stallFraction(stats::StallKind::DataHazard), 0.75, 1e-9);
    EXPECT_NEAR(s.stallFraction(stats::StallKind::Idle), 0.0, 1e-9);
}

/** An issue whose guard leaves no lane active is an issue slot too: it has
 *  its own breakdown row, and the rows account for every slot. */
TEST(Aerial, WarpBreakdownCountsZeroLaneIssues)
{
    stats::AerialSampler s(8, 1, 1);
    stats::AerialBucket c = zeroCounters(1, 1);
    s.start(c);
    c.cycles = 8; // one scheduler: 8 slots
    for (const unsigned lanes : {0u, 0u, 0u, 0u, 32u, 5u})
        countIssue(c, 0, lanes);
    c.stalls[size_t(stats::StallKind::DataHazard)] = 2;
    s.observe(c);
    s.finish();
    ASSERT_EQ(s.buckets().size(), 1u);

    double sum = 0, zero_lanes = 0;
    for (const stats::BreakdownRow &row :
         stats::warpBreakdown(s.buckets()[0])) {
        sum += row.fraction;
        if (std::string(row.name) == "W0/pred")
            zero_lanes = row.fraction;
    }
    EXPECT_DOUBLE_EQ(zero_lanes, 0.5);
    EXPECT_DOUBLE_EQ(sum, 1.0);

    // The row is drawn at half shade ('+'), one column per bucket.
    const std::string art = s.renderWarpBreakdown();
    EXPECT_NE(art.find("W0/pred  |+|"), std::string::npos) << art;
}

TEST(Aerial, CsvContainsAllSeries)
{
    stats::AerialSampler s(4, 2, 2);
    stats::AerialBucket c = zeroCounters(2, 2);
    s.start(c);
    for (int cycle = 0; cycle < 8; cycle++) {
        c.cycles++;
        countIssue(c, unsigned(cycle % 2), 32);
        s.observe(c);
    }
    s.finish();
    ASSERT_EQ(s.buckets().size(), 2u);
    mlgs::test::ScopedTmpDir tmp;
    const std::string path = tmp.file("aerial_test.csv");
    s.writeCsv(path);
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string contents;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        contents.append(buf, n);
    std::fclose(f);
    for (const char *series :
         {"global_ipc", "core_ipc_1", "bank_eff_0", "bank_util_1", "warp_w32",
          "stall_idle", "stall_data_hazard"})
        EXPECT_NE(contents.find(series), std::string::npos) << series;
}

TEST(Power, EnergyScalesWithWork)
{
    timing::TimingTotals small;
    small.cycles = 1000;
    small.thread_instructions = 10000;
    small.alu = 300;
    small.core_active_cycles = 1000;
    small.core_idle_cycles = 0;

    timing::TimingTotals big = small;
    big.thread_instructions *= 10;

    power::PowerModel pm;
    const auto p_small = pm.compute(small, 1.0);
    const auto p_big = pm.compute(big, 1.0);
    EXPECT_GT(p_big.core_w, p_small.core_w);
    EXPECT_DOUBLE_EQ(p_big.idle_w, p_small.idle_w); // static unchanged
}

TEST(Power, IdleDominatesWhenCoresIdle)
{
    timing::TimingTotals t;
    t.cycles = 10000;
    t.core_active_cycles = 1000;  // 1 core-cycle in 10 active
    t.core_idle_cycles = 9000;
    t.thread_instructions = 100;
    t.alu = 10;
    power::PowerModel pm;
    const auto p = pm.compute(t, 1.0);
    EXPECT_GT(p.idle_w, p.core_w);
}

TEST(Power, ZeroCyclesIsZeroPower)
{
    power::PowerModel pm;
    const auto p = pm.compute(timing::TimingTotals{}, 1.0);
    EXPECT_DOUBLE_EQ(p.total(), 0.0);
}

TEST(Oracle, RooflineLimbs)
{
    oracle::HwSpec spec;
    spec.num_sms = 2;
    spec.issue_per_sm = 1;
    spec.dram_bytes_per_cycle = 10;
    spec.launch_overhead = 0;
    spec.dep_latency = 4;
    spec.warp_slots_per_sm = 8;
    oracle::HwOracle orc(spec);

    cuda::LaunchRecord rec;
    rec.kernel_name = "k";
    rec.grid = Dim3(64);
    rec.block = Dim3(128); // plenty of warps -> full occupancy

    // Compute-bound: many ALU ops, no memory.
    rec.func_stats = {};
    rec.func_stats.instructions = 1000;
    rec.func_stats.alu = 1000;
    const double compute = orc.estimateCycles(rec);
    EXPECT_NEAR(compute, 1000.0 / 2.0, 1.0);

    // Memory-bound: same instructions + heavy traffic.
    rec.func_stats.global_ld_bytes = 1000000;
    const double mem = orc.estimateCycles(rec);
    EXPECT_NEAR(mem, 100000.0, 1.0);

    // Dependency-bound: one warp, long serial chain.
    cuda::LaunchRecord serial = rec;
    serial.grid = Dim3(1);
    serial.block = Dim3(32);
    serial.func_stats = {};
    serial.func_stats.instructions = 1000;
    serial.func_stats.alu = 1000;
    const double dep = orc.estimateCycles(serial);
    EXPECT_NEAR(dep, 1000.0 * 4.0, 1.0);
}

TEST(Oracle, PearsonOnPerfectLine)
{
    std::vector<oracle::CorrelationRow> rows;
    for (int i = 1; i <= 5; i++) {
        std::string name = "k";
        name += std::to_string(i);
        rows.push_back({name, double(i * 100), double(i * 150)});
    }
    EXPECT_NEAR(oracle::HwOracle::pearson(rows), 1.0, 1e-9);
    EXPECT_NEAR(oracle::HwOracle::overallRelative(rows), 150.0, 1e-9);
}

} // namespace
