#include "stats/aerial.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <sstream>

#include "common/log.h"

namespace mlgs::stats
{

AerialSampler::AerialSampler(unsigned bucket_cycles, unsigned num_cores,
                             unsigned num_banks)
    : bucket_cycles_(bucket_cycles), num_cores_(num_cores), num_banks_(num_banks)
{
    MLGS_REQUIRE(bucket_cycles_ > 0, "bucket size must be positive");
    current_ = makeBucket();
}

AerialBucket
AerialSampler::makeBucket() const
{
    AerialBucket b;
    b.start_cycle = now_;
    b.core_instructions.assign(num_cores_, 0);
    b.core_thread_instructions.assign(num_cores_, 0);
    b.lane_histogram.assign(33, 0);
    b.stalls.assign(size_t(StallKind::kCount), 0);
    b.bank_busy.assign(num_banks_, 0);
    b.bank_pending.assign(num_banks_, 0);
    return b;
}

void
AerialSampler::recordIssue(unsigned core, unsigned lanes)
{
    current_.instructions++;
    current_.core_instructions[core]++;
    current_.core_thread_instructions[core] += lanes;
    current_.lane_histogram[std::min(lanes, 32u)]++;
}

void
AerialSampler::recordStall(unsigned core, StallKind kind)
{
    (void)core;
    current_.stalls[size_t(kind)]++;
}

void
AerialSampler::recordBank(unsigned bank, bool transferring, bool has_pending)
{
    if (transferring)
        current_.bank_busy[bank]++;
    if (has_pending || transferring)
        current_.bank_pending[bank]++;
}

void
AerialSampler::endCycle()
{
    now_++;
    current_.cycles++;
    if (current_.cycles >= bucket_cycles_)
        closeBucket();
}

void
AerialSampler::finish()
{
    if (current_.cycles > 0)
        closeBucket();
}

void
AerialSampler::closeBucket()
{
    buckets_.push_back(std::move(current_));
    current_ = makeBucket();
}

double
AerialSampler::globalIpc() const
{
    uint64_t insts = 0, cycles = 0;
    for (const auto &b : buckets_) {
        insts += b.instructions;
        cycles += b.cycles;
    }
    return cycles ? double(insts) / double(cycles) : 0.0;
}

double
AerialSampler::meanDramEfficiency() const
{
    uint64_t busy = 0, pending = 0;
    for (const auto &b : buckets_)
        for (unsigned k = 0; k < num_banks_; k++) {
            busy += b.bank_busy[k];
            pending += b.bank_pending[k];
        }
    return pending ? double(busy) / double(pending) : 0.0;
}

double
AerialSampler::meanDramUtilization() const
{
    uint64_t busy = 0, cycles = 0;
    for (const auto &b : buckets_) {
        cycles += b.cycles * num_banks_;
        for (unsigned k = 0; k < num_banks_; k++)
            busy += b.bank_busy[k];
    }
    return cycles ? double(busy) / double(cycles) : 0.0;
}

double
AerialSampler::stallFraction(StallKind kind) const
{
    uint64_t slot_events = 0, of_kind = 0;
    for (const auto &b : buckets_) {
        for (size_t i = 0; i < b.stalls.size(); i++) {
            slot_events += b.stalls[i];
            if (i == size_t(kind))
                of_kind += b.stalls[i];
        }
        slot_events += b.instructions;
    }
    return slot_events ? double(of_kind) / double(slot_events) : 0.0;
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
        return b.cycles ? double(b.instructions) / double(b.cycles) : 0.0;
    });
    for (unsigned c = 0; c < num_cores_; c++)
        row("core_ipc_" + std::to_string(c), [c](const AerialBucket &b) {
            return b.cycles ? double(b.core_instructions[c]) / double(b.cycles)
                            : 0.0;
        });
    for (unsigned k = 0; k < num_banks_; k++) {
        row("bank_eff_" + std::to_string(k), [k](const AerialBucket &b) {
            return b.bank_pending[k]
                       ? double(b.bank_busy[k]) / double(b.bank_pending[k])
                       : 0.0;
        });
        row("bank_util_" + std::to_string(k), [k](const AerialBucket &b) {
            return b.cycles ? double(b.bank_busy[k]) / double(b.cycles) : 0.0;
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

} // namespace

std::string
AerialSampler::renderBankHeatmap(bool utilization, unsigned max_cols) const
{
    std::ostringstream os;
    os << (utilization ? "DRAM utilization" : "DRAM efficiency")
       << " (rows = banks, cols = time, ' '..'@' = 0..1)\n";
    for (unsigned k = 0; k < num_banks_; k++) {
        const auto vals =
            downsample(buckets_, max_cols, [&](const AerialBucket &b) {
                if (utilization)
                    return b.cycles ? double(b.bank_busy[k]) / double(b.cycles)
                                    : 0.0;
                return b.bank_pending[k]
                           ? double(b.bank_busy[k]) / double(b.bank_pending[k])
                           : 0.0;
            });
        os.width(4);
        os << k << " |";
        for (const double v : vals)
            os << shade(v);
        os << "|\n";
    }
    return os.str();
}

std::string
AerialSampler::renderIpcStrip(unsigned max_cols) const
{
    double peak = 1.0;
    for (const auto &b : buckets_)
        if (b.cycles)
            peak = std::max(peak, double(b.instructions) / double(b.cycles));
    const auto vals = downsample(buckets_, max_cols, [&](const AerialBucket &b) {
        return b.cycles ? double(b.instructions) / double(b.cycles) / peak : 0.0;
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
            if (b.cycles)
                peak = std::max(peak,
                                double(b.core_instructions[c]) / double(b.cycles));
    std::ostringstream os;
    os << "per-shader IPC (rows = cores, peak " << peak << ")\n";
    for (unsigned c = 0; c < num_cores_; c++) {
        const auto vals =
            downsample(buckets_, max_cols, [&](const AerialBucket &b) {
                return b.cycles ? double(b.core_instructions[c]) /
                                      double(b.cycles) / peak
                                : 0.0;
            });
        os.width(4);
        os << c << " |";
        for (const double v : vals)
            os << shade(v);
        os << "|\n";
    }
    return os.str();
}

std::string
AerialSampler::renderWarpBreakdown(unsigned max_cols) const
{
    // Rows: W0 (idle), issued-lane ranges, and stall categories.
    struct Row
    {
        std::string name;
        std::function<double(const AerialBucket &)> get;
    };
    auto slotTotal = [](const AerialBucket &b) {
        double total = double(b.instructions);
        for (const auto s : b.stalls)
            total += double(s);
        return std::max(total, 1.0);
    };
    std::vector<Row> rows;
    rows.push_back({"W0/idle", [&](const AerialBucket &b) {
                        return double(b.stalls[size_t(StallKind::Idle)]) /
                               slotTotal(b);
                    }});
    rows.push_back({"data-hzd", [&](const AerialBucket &b) {
                        return double(b.stalls[size_t(StallKind::DataHazard)]) /
                               slotTotal(b);
                    }});
    rows.push_back({"mem-strt", [&](const AerialBucket &b) {
                        return double(
                                   b.stalls[size_t(StallKind::MemStructural)]) /
                               slotTotal(b);
                    }});
    rows.push_back({"barrier", [&](const AerialBucket &b) {
                        return double(b.stalls[size_t(StallKind::Barrier)]) /
                               slotTotal(b);
                    }});
    const std::pair<unsigned, unsigned> ranges[] = {
        {1, 8}, {9, 16}, {17, 24}, {25, 31}, {32, 32}};
    for (const auto &[lo, hi] : ranges) {
        std::string name = "W";
        name += std::to_string(lo);
        if (lo != hi) {
            name += "-";
            name += std::to_string(hi);
        }
        rows.push_back({name, [lo = lo, hi = hi, &slotTotal](
                                  const AerialBucket &b) {
                            uint64_t n = 0;
                            for (unsigned w = lo; w <= hi; w++)
                                n += b.lane_histogram[w];
                            return double(n) / slotTotal(b);
                        }});
    }
    std::ostringstream os;
    os << "warp issue breakdown (fraction of issue slots)\n";
    for (const auto &r : rows) {
        os << r.name;
        for (size_t pad = r.name.size(); pad < 9; pad++)
            os << ' ';
        os << "|";
        for (const double v : downsample(buckets_, max_cols, r.get))
            os << shade(v);
        os << "|\n";
    }
    return os.str();
}

} // namespace mlgs::stats
