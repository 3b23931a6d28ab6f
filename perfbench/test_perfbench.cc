/**
 * @file
 * Unit tests of the benchmark's own helpers: the percentile summary, the
 * stats digest check, metric naming, the span recorder and the host-speed
 * reference.
 *
 *   python3 perfbench/run.py --self-test
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>

#include "perfbench/hostspeed.h"
#include "perfbench/metrics.h"
#include "perfbench/spans.h"

using namespace mlgs::perfbench;

namespace
{

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; i--) // unsorted on purpose
        v.push_back(double(i));
    return v;
}

} // namespace

TEST(Percentile, MedianOfOddAndEvenCounts)
{
    EXPECT_EQ(summarize(oneTo(5)).median, 3.0);
    EXPECT_EQ(summarize(oneTo(4)).median, 2.5);
    EXPECT_EQ(summarize({}).n, 0u);
}

TEST(Percentile, TooFewSamplesGiveNoTail)
{
    const Summary s = summarize(oneTo(19));
    EXPECT_EQ(s.n, 19u);
    EXPECT_EQ(s.tail_pct, 0.0); // p50 has only 9 samples beyond it
}

TEST(Percentile, PicksHighestPercentileWithTenBeyond)
{
    // 200 samples: p95 is the 190th value with 10 beyond; p99 has only 2.
    Summary s = summarize(oneTo(200));
    EXPECT_EQ(s.n, 200u);
    EXPECT_EQ(s.tail_pct, 95.0);
    EXPECT_EQ(s.tail, 190.0);
    EXPECT_EQ(s.beyond, 10u);

    // 199 samples: p95 leaves 9 beyond, so the answer drops to p90.
    s = summarize(oneTo(199));
    EXPECT_EQ(s.tail_pct, 90.0);
    EXPECT_EQ(s.tail, 180.0);
    EXPECT_EQ(s.beyond, 19u);

    // 1000 samples reach p99 (10 beyond) but not p99.9 (1 beyond).
    s = summarize(oneTo(1000));
    EXPECT_EQ(s.tail_pct, 99.0);
    EXPECT_EQ(s.tail, 990.0);
}

TEST(Percentile, DescribeStatesTheSampleCount)
{
    EXPECT_NE(describe(summarize(oneTo(200)), "ms").find("n=200, 10 beyond"),
              std::string::npos);
    EXPECT_NE(describe(summarize(oneTo(3)), "s").find("n=3"), std::string::npos);
}

TEST(Digest, RejectsOneBytePerturbation)
{
    const std::string json = "{\n  \"elapsed_cycles\": 2540287,\n"
                             "  \"totals\": {\"cycles\": 2096410}\n}\n";
    const uint64_t want = statsDigest(json);
    EXPECT_EQ(statsDigest(std::string(json)), want);
    for (size_t i = 0; i < json.size(); i++) {
        std::string bad = json;
        bad[i] = char(bad[i] ^ 1);
        EXPECT_NE(statsDigest(bad), want) << "byte " << i;
    }
    EXPECT_NE(statsDigest(json + " "), want);
    EXPECT_NE(statsDigest(json.substr(1)), want);
}

TEST(Metrics, NamesMatchTheAllowedAlphabet)
{
    EXPECT_TRUE(validName("timing.core.idle_frac"));
    EXPECT_TRUE(validName("runtime.api_s.load_module"));
    EXPECT_TRUE(validName("wall_s-t4"));
    EXPECT_FALSE(validName(""));
    EXPECT_FALSE(validName("wall s"));
    EXPECT_FALSE(validName("serve/hits"));
    EXPECT_FALSE(validName("p95\"ms"));
}

TEST(Metrics, TableRejectsBadNamesMissingUnitsAndDuplicates)
{
    MetricTable t;
    t.add("wall_s", 1.5, "s");
    EXPECT_THROW(t.add("bad name", 1.0, "s"), std::invalid_argument);
    EXPECT_THROW(t.add("no_unit", 1.0, ""), std::invalid_argument);
    EXPECT_THROW(t.add("wall_s", 2.0, "s"), std::invalid_argument);
}

TEST(Metrics, EveryPrintedNameIsValidAndCarriesAUnit)
{
    MetricTable t;
    t.add("cpu_s", 19.25, "s");
    t.add("warp_instrs_per_cpu_s", 590000.5, "1/s");
    t.add("timing.core.idle_frac", 0.44, "ratio");
    const std::string json = t.json();
    const std::regex entry("\"([^\"]*)\": \\{\"value\": ([^,]+), \"unit\": "
                           "\"([^\"]*)\"\\}");
    size_t seen = 0;
    for (auto it = std::sregex_iterator(json.begin(), json.end(), entry);
         it != std::sregex_iterator(); ++it) {
        EXPECT_TRUE(std::regex_match((*it)[1].str(),
                                     std::regex("[A-Za-z0-9_.-]+")));
        EXPECT_FALSE((*it)[3].str().empty());
        seen++;
    }
    EXPECT_EQ(seen, t.rows().size());
    // Values keep all their digits.
    EXPECT_NE(json.find("590000.5"), std::string::npos);
}

TEST(Spans, ParentsIdsAndChromeTrace)
{
    SpanRecorder rec(true, 42);
    {
        ScopedSpan outer(rec, "outer");
        ScopedSpan inner(rec, "inner");
    }
    rec.add("after", 1.0, 1.5);
    ASSERT_EQ(rec.spans().size(), 3u);
    EXPECT_EQ(rec.spans()[0].parent, 0u);
    EXPECT_EQ(rec.spans()[1].parent, rec.spans()[0].id);
    EXPECT_EQ(rec.spans()[2].parent, 0u);
    EXPECT_DOUBLE_EQ(rec.spans()[2].end - rec.spans()[2].start, 0.5);

    // run.py runs the tests from the build directory.
    const std::string path = "perfbench_spans_test.json";
    rec.writeChromeTrace(path);
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    const std::string text = ss.str();
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"run_id\": 42"), std::string::npos);
    EXPECT_NE(text.find("\"parent_id\": 1"), std::string::npos);
    std::remove(path.c_str());

    SpanRecorder off(false, 1);
    {
        ScopedSpan s(off, "ignored");
    }
    EXPECT_TRUE(off.spans().empty());
}

TEST(HostSpeed, SampleTakesOutTheReferenceAndScales)
{
    const HostSpeed::Reading a{1000, 0.5, 0.6};
    // 2 s of loops at 1.5x the nominal rate; the thread used 2.1 s in all.
    const HostSpeed::Reading b{
        1000 + uint64_t(3.0 * HostSpeed::kNominalLoopsPerSec), 2.5, 2.7};
    const HostSpeed::Sample s = HostSpeed::sample(12.1, a, b);
    EXPECT_DOUBLE_EQ(s.cpu, 10.0);
    EXPECT_DOUBLE_EQ(s.rate, 1.5 * HostSpeed::kNominalLoopsPerSec);
    EXPECT_DOUBLE_EQ(s.norm, 15.0);

    // No loops in the interval: no rate, so no normalized time.
    EXPECT_EQ(HostSpeed::sample(1.0, a, a).norm, 0.0);
}

TEST(HostSpeed, OffReadsZeroAndOnCountsLoops)
{
    {
        HostSpeed off(false);
        EXPECT_FALSE(off.on());
        EXPECT_EQ(off.read().loops, 0u);
    }
    cpu_set_t before;
    ASSERT_EQ(sched_getaffinity(0, sizeof before, &before), 0);
    {
        HostSpeed on(true);
        EXPECT_TRUE(on.on());
        const HostSpeed::Reading a = on.read();
        for (const double t0 = threadCpuSec(); threadCpuSec() - t0 < 0.1;) {
        }
        const HostSpeed::Reading b = on.read();
        EXPECT_GT(b.loops, a.loops);
        EXPECT_GT(b.loop_cpu, a.loop_cpu);
        EXPECT_GE(b.thread_cpu, b.loop_cpu);
        EXPECT_GT(HostSpeed::sample(0.1, a, b).rate, 0.0);
    }
    // The meter pinned this thread to one CPU; give the others back.
    ASSERT_EQ(sched_setaffinity(0, sizeof before, &before), 0);
}
