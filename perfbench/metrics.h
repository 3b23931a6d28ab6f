/**
 * @file
 * Small helpers of the benchmark itself: timing summaries (median plus the
 * highest percentile with at least ten samples beyond it), the stats-JSON
 * digest, metric-name validation and the ordered metric table the run
 * prints. Header-only so test_perfbench.cc can check them directly.
 */
#ifndef MLGS_PERFBENCH_METRICS_H
#define MLGS_PERFBENCH_METRICS_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/fnv.h"

namespace mlgs::perfbench
{

/** Summary of one timing's samples. */
struct Summary
{
    size_t n = 0;
    double median = 0.0;
    /** Highest percentile of kTailLadder with >= kTailMin samples beyond it;
     *  0 when the sample count is too small for any of them. */
    double tail_pct = 0.0;
    double tail = 0.0;
    size_t beyond = 0; ///< samples strictly above the tail value's rank
};

inline constexpr double kTailLadder[] = {50.0, 75.0, 90.0, 95.0, 99.0, 99.9};
inline constexpr size_t kTailMin = 10;

/** Nearest-rank percentile index (0-based) of `pct` over `n` samples. */
inline size_t
rankIndex(double pct, size_t n)
{
    const auto rank = size_t(std::ceil(pct / 100.0 * double(n)));
    return std::clamp<size_t>(rank, 1, n) - 1;
}

inline Summary
summarize(std::vector<double> v)
{
    Summary s;
    s.n = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    const size_t mid = v.size() / 2;
    s.median = v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
    for (const double pct : kTailLadder) {
        const size_t idx = rankIndex(pct, v.size());
        const size_t beyond = v.size() - 1 - idx;
        if (beyond < kTailMin)
            break;
        s.tail_pct = pct;
        s.tail = v[idx];
        s.beyond = beyond;
    }
    return s;
}

/** "median=1.2 p95=1.9 (n=400, 20 beyond)" for the report lines. */
inline std::string
describe(const Summary &s, const char *unit)
{
    char buf[160];
    if (s.tail_pct > 0)
        std::snprintf(buf, sizeof buf, "median=%.6g%s p%g=%.6g%s (n=%zu, %zu beyond)",
                      s.median, unit, s.tail_pct, s.tail, unit, s.n, s.beyond);
    else
        std::snprintf(buf, sizeof buf,
                      "median=%.6g%s (n=%zu, too few samples for a tail percentile)",
                      s.median, unit, s.n);
    return buf;
}

/** FNV-1a digest of a stats JSON document. */
inline uint64_t
statsDigest(std::string_view json)
{
    return Fnv1a().addBytes(json.data(), json.size()).hash();
}

/** Metric names the benchmark prints: [A-Za-z0-9_.-]+. */
inline bool
validName(std::string_view name)
{
    if (name.empty())
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    });
}

/** Ordered (name, value, unit) table; rejects bad names and empty units. */
class MetricTable
{
  public:
    struct Row
    {
        std::string name;
        double value;
        std::string unit;
    };

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        if (!validName(name) || unit.empty())
            throw std::invalid_argument("bad metric '" + name + "' unit '" +
                                        unit + "'");
        for (const auto &r : rows_)
            if (r.name == name)
                throw std::invalid_argument("duplicate metric '" + name + "'");
        rows_.push_back({name, value, unit});
    }

    const std::vector<Row> &rows() const { return rows_; }

    /** {"name": {"value": v, "unit": "u"}, ...} with round-trip digits. */
    std::string
    json() const
    {
        std::string out = "{";
        for (size_t i = 0; i < rows_.size(); i++) {
            char num[64];
            std::snprintf(num, sizeof num, "%.17g", rows_[i].value);
            out += (i ? ", \"" : "\"") + rows_[i].name + "\": {\"value\": " +
                   num + ", \"unit\": \"" + rows_[i].unit + "\"}";
        }
        return out + "}";
    }

  private:
    std::vector<Row> rows_;
};

} // namespace mlgs::perfbench

#endif // MLGS_PERFBENCH_METRICS_H
