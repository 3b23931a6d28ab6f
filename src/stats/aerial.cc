#include "stats/aerial.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <numeric>
#include <sstream>

#include "common/log.h"

namespace mlgs::stats
{

AerialSampler::AerialSampler(unsigned bucket_cycles, unsigned num_cores,
                             unsigned num_banks)
    : bucket_cycles_(bucket_cycles), num_cores_(num_cores), num_banks_(num_banks)
{
    MLGS_REQUIRE(bucket_cycles_ > 0, "bucket size must be positive");
}

namespace
{

/** Every per-core, per-lane, per-stall and per-bank series of a bucket. */
constexpr std::vector<uint64_t> AerialBucket::*kSeries[] = {
    &AerialBucket::core_instructions, &AerialBucket::core_thread_instructions,
    &AerialBucket::lane_histogram,    &AerialBucket::stalls,
    &AerialBucket::bank_busy,         &AerialBucket::bank_pending};

/** Apply `a = op(a, b)` to every count of the two buckets. */
template <typename Op>
void
combine(AerialBucket &a, const AerialBucket &b, Op op)
{
    a.cycles = op(a.cycles, b.cycles);
    a.instructions = op(a.instructions, b.instructions);
    for (const auto series : kSeries) {
        std::vector<uint64_t> &v = a.*series;
        v.resize(std::max(v.size(), (b.*series).size()));
        for (size_t i = 0; i < (b.*series).size(); i++)
            v[i] = op(v[i], (b.*series)[i]);
    }
}

uint64_t
sum(const std::vector<uint64_t> &v)
{
    return std::accumulate(v.begin(), v.end(), uint64_t(0));
}

double
ratio(uint64_t num, uint64_t den)
{
    return den ? double(num) / double(den) : 0.0;
}

} // namespace

void
AerialSampler::start(AerialBucket counters)
{
    mark_ = std::move(counters);
    latest_ = mark_;
}

void
AerialSampler::observe(AerialBucket counters)
{
    latest_ = std::move(counters);
    if (latest_.cycles - mark_.cycles >= bucket_cycles_)
        closeBucket();
}

void
AerialSampler::finish()
{
    if (latest_.cycles > mark_.cycles)
        closeBucket();
}

void
AerialSampler::closeBucket()
{
    AerialBucket b = latest_;
    combine(b, mark_, std::minus<>());
    b.start_cycle = buckets_.empty() ? 0
                                     : buckets_.back().start_cycle +
                                           buckets_.back().cycles;
    buckets_.push_back(std::move(b));
    mark_ = latest_;
}

AerialBucket
AerialSampler::total() const
{
    AerialBucket t;
    for (const AerialBucket &b : buckets_)
        combine(t, b, std::plus<>());
    return t;
}

double
AerialSampler::globalIpc() const
{
    const AerialBucket t = total();
    return ratio(t.instructions, t.cycles);
}

double
AerialSampler::meanDramEfficiency() const
{
    const AerialBucket t = total();
    return ratio(sum(t.bank_busy), sum(t.bank_pending));
}

double
AerialSampler::meanDramUtilization() const
{
    const AerialBucket t = total();
    return ratio(sum(t.bank_busy), t.cycles * num_banks_);
}

double
AerialSampler::stallFraction(StallKind kind) const
{
    const AerialBucket t = total();
    return t.stalls.empty()
               ? 0.0
               : ratio(t.stalls[size_t(kind)], t.instructions + sum(t.stalls));
}

void
AerialSampler::writeCsv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    MLGS_REQUIRE(f, "cannot open ", path);

    auto row = [&](const std::string &name, auto getter) {
        std::fprintf(f, "%s", name.c_str());
        for (const auto &b : buckets_)
            std::fprintf(f, ",%g", double(getter(b)));
        std::fprintf(f, "\n");
    };

    row("cycles", [](const AerialBucket &b) { return b.cycles; });
    row("global_ipc", [](const AerialBucket &b) {
        return ratio(b.instructions, b.cycles);
    });
    for (unsigned c = 0; c < num_cores_; c++)
        row("core_ipc_" + std::to_string(c), [c](const AerialBucket &b) {
            return ratio(b.core_instructions[c], b.cycles);
        });
    for (unsigned k = 0; k < num_banks_; k++) {
        row("bank_eff_" + std::to_string(k), [k](const AerialBucket &b) {
            return ratio(b.bank_busy[k], b.bank_pending[k]);
        });
        row("bank_util_" + std::to_string(k), [k](const AerialBucket &b) {
            return ratio(b.bank_busy[k], b.cycles);
        });
    }
    for (unsigned w = 0; w <= 32; w++)
        row("warp_w" + std::to_string(w), [w](const AerialBucket &b) {
            return b.lane_histogram[w];
        });
    static const char *kStallNames[] = {"stall_idle", "stall_data_hazard",
                                        "stall_mem_structural", "stall_barrier"};
    for (size_t s = 0; s < size_t(StallKind::kCount); s++)
        row(kStallNames[s],
            [s](const AerialBucket &b) { return b.stalls[s]; });

    std::fclose(f);
}

namespace
{

char
shade(double v)
{
    static const char kRamp[] = " .:-=+*#%@";
    const int idx = std::min(9, std::max(0, int(v * 10.0)));
    return kRamp[idx];
}

/** Downsample buckets to at most max_cols columns by averaging. */
template <typename Getter>
std::vector<double>
downsample(const std::vector<AerialBucket> &buckets, unsigned max_cols,
           Getter getter)
{
    std::vector<double> out;
    if (buckets.empty())
        return out;
    const size_t group = (buckets.size() + max_cols - 1) / max_cols;
    for (size_t i = 0; i < buckets.size(); i += group) {
        double sum = 0;
        size_t n = 0;
        for (size_t j = i; j < std::min(buckets.size(), i + group); j++, n++)
            sum += getter(buckets[j]);
        out.push_back(n ? sum / double(n) : 0.0);
    }
    return out;
}

/** One heat-map row: the label, then a shade per column. */
void
heatRow(std::ostringstream &os, unsigned label, const std::vector<double> &vals)
{
    os.width(4);
    os << label << " |";
    for (const double v : vals)
        os << shade(v);
    os << "|\n";
}

} // namespace

std::string
AerialSampler::renderBankHeatmap(bool utilization, unsigned max_cols) const
{
    std::ostringstream os;
    os << (utilization ? "DRAM utilization" : "DRAM efficiency")
       << " (rows = banks, cols = time, ' '..'@' = 0..1)\n";
    for (unsigned k = 0; k < num_banks_; k++)
        heatRow(os, k, downsample(buckets_, max_cols, [&](const AerialBucket &b) {
                    return ratio(b.bank_busy[k], utilization ? b.cycles
                                                             : b.bank_pending[k]);
                }));
    return os.str();
}

std::string
AerialSampler::renderIpcStrip(unsigned max_cols) const
{
    double peak = 1.0;
    for (const auto &b : buckets_)
        peak = std::max(peak, ratio(b.instructions, b.cycles));
    const auto vals = downsample(buckets_, max_cols, [&](const AerialBucket &b) {
        return ratio(b.instructions, b.cycles) / peak;
    });
    std::ostringstream os;
    os << "global IPC (peak " << peak << ")\n |";
    for (const double v : vals)
        os << shade(v);
    os << "|\n";
    return os.str();
}

std::string
AerialSampler::renderCoreHeatmap(unsigned max_cols) const
{
    double peak = 1.0;
    for (const auto &b : buckets_)
        for (unsigned c = 0; c < num_cores_; c++)
            peak = std::max(peak, ratio(b.core_instructions[c], b.cycles));
    std::ostringstream os;
    os << "per-shader IPC (rows = cores, peak " << peak << ")\n";
    for (unsigned c = 0; c < num_cores_; c++)
        heatRow(os, c, downsample(buckets_, max_cols, [&](const AerialBucket &b) {
                    return ratio(b.core_instructions[c], b.cycles) / peak;
                }));
    return os.str();
}

std::vector<BreakdownRow>
warpBreakdown(const AerialBucket &b)
{
    double slots = double(b.instructions);
    for (const auto s : b.stalls)
        slots += double(s);
    slots = std::max(slots, 1.0);
    std::vector<BreakdownRow> rows;
    static const char *kStallRows[] = {"W0/idle", "data-hzd", "mem-strt",
                                       "barrier"};
    for (size_t k = 0; k < size_t(StallKind::kCount); k++)
        rows.push_back({kStallRows[k], double(b.stalls[k]) / slots});
    // Issue rows by active lanes; W0/pred counts issues whose guard left
    // no lane active.
    static const struct
    {
        const char *name;
        unsigned lo, hi;
    } kLaneRows[] = {{"W0/pred", 0, 0},  {"W1-8", 1, 8},   {"W9-16", 9, 16},
                     {"W17-24", 17, 24}, {"W25-31", 25, 31}, {"W32", 32, 32}};
    for (const auto &r : kLaneRows) {
        uint64_t n = 0;
        for (unsigned w = r.lo; w <= r.hi; w++)
            n += b.lane_histogram[w];
        rows.push_back({r.name, double(n) / slots});
    }
    return rows;
}

std::string
AerialSampler::renderWarpBreakdown(unsigned max_cols) const
{
    AerialBucket blank; // for the row labels
    blank.lane_histogram.assign(kWarpSize + 1, 0);
    blank.stalls.assign(size_t(StallKind::kCount), 0);
    const std::vector<BreakdownRow> labels = warpBreakdown(blank);
    std::ostringstream os;
    os << "warp issue breakdown (fraction of issue slots)\n";
    for (size_t i = 0; i < labels.size(); i++) {
        const std::string name = labels[i].name;
        os << name;
        for (size_t pad = name.size(); pad < 9; pad++)
            os << ' ';
        os << "|";
        for (const double v :
             downsample(buckets_, max_cols, [i](const AerialBucket &b) {
                 return warpBreakdown(b)[i].fraction;
             }))
            os << shade(v);
        os << "|\n";
    }
    return os.str();
}

} // namespace mlgs::stats
