/**
 * @file
 * Sampled fast-forward execution backend: the engine-facing implementation of
 * TimingMode::Sampled. Launches are clustered online by signature; the first
 * member(s) of each cluster run through the cycle-level GpuModel as
 * representatives, and subsequent members are fast-forwarded — executed
 * functionally (exact memory effects and instruction counts) while their
 * cycles and memory-system counters are extrapolated from the
 * representative, scaled by the exact warp-instruction ratio.
 *
 * Interleaving semantics: fast-forwarded launches never occupy GpuModel
 * residency. Their completions live on a private min-heap that advanceUntil
 * merges with the cycle model's event stream, so stream ordering and
 * copy/kernel overlap decisions in the DeviceEngine see one consistent
 * device timeline. Extrapolated counter estimates are accumulated into the
 * GpuModel's grand totals at retirement via accumulateExtrapolated(), so
 * stats output reflects the whole workload, not just the sampled part.
 *
 * With max_cluster_size == 1 every launch routes detailed and this backend
 * reduces exactly to TimingBackend: bitwise-identical cycles and stats.
 */
#ifndef MLGS_SAMPLE_SAMPLED_BACKEND_H
#define MLGS_SAMPLE_SAMPLED_BACKEND_H

#include <queue>
#include <string>
#include <vector>

#include "engine/exec_backend.h"
#include "sample/clusterer.h"
#include "sample/options.h"
#include "timing/gpu.h"

namespace mlgs::sample
{

/** Summary of one run's sampling behaviour (stats output + bench tables). */
struct SamplingReport
{
    uint64_t launches = 0;
    uint64_t detailed_launches = 0;
    uint64_t extrapolated_launches = 0;
    uint64_t capacity_detailed = 0; ///< routed detailed by the cluster cap
    uint64_t clusters = 0;
    uint64_t detailed_cycles = 0;     ///< cycle-simulated
    uint64_t extrapolated_cycles = 0; ///< estimated from representatives

    /**
     * Weighted per-cluster error bar: sum over clusters of
     * extrapolated_cycles_c * cpiRelSpread_c, divided by total extrapolated
     * cycles. Zero-spread clusters (a single detailed sample) contribute 0 —
     * see error_bar_coverage for how much of the estimate they carry.
     */
    double cycle_error_bound_rel = 0.0;
    /** Fraction of extrapolated cycles from clusters with >= 2 samples. */
    double error_bar_coverage = 0.0;

    struct ClusterRow
    {
        uint64_t id = 0;
        std::string kernel_name;
        Dim3 block;
        unsigned ctas_bucket = 0;
        uint64_t members = 0;
        uint64_t detailed = 0;
        uint64_t fast = 0;
        double cpi_mean = 0.0;
        double cpi_rel_spread = 0.0;
        uint64_t detailed_cycles = 0;
        uint64_t extrapolated_cycles = 0;
    };
    std::vector<ClusterRow> rows; ///< creation order
};

/**
 * Byte-stable JSON rendering. Doubles are printed with jsonDouble()
 * (shortest round-trip decimal), so the output is a pure function of the
 * report's bits — identical across runs, compilers, and standard libraries,
 * which is what lets a cached stats JSON byte-match a cold run.
 */
std::string reportJson(const SamplingReport &r, int indent = 2);

class SampledBackend : public engine::ExecBackend
{
  public:
    SampledBackend(timing::GpuModel &gpu, func::FunctionalEngine &func,
                   const SamplingOptions &opts);

    /** AerialVision sampler observed while the cycle model advances. */
    void setSampler(stats::AerialSampler *s) { sampler_ = s; }

    bool canAccept() const override;
    uint64_t begin(engine::LaunchRecord &rec, const func::LaunchEnv &env,
                   cycle_t start) override;
    bool busy() const override;
    std::optional<engine::BackendCompletion> advanceUntil(cycle_t limit)
        override;
    void finish(uint64_t token, engine::LaunchRecord &rec) override;

    const SamplingOptions &samplingOptions() const { return opts_; }
    const Clusterer &clusterer() const { return clusterer_; }
    SamplingReport report() const;

  private:
    /** High bit marks fast-forwarded tokens apart from GpuModel tokens. */
    static constexpr uint64_t kFastBit = uint64_t(1) << 63;

    struct FastPending
    {
        cycle_t at = 0;
        uint64_t token = 0;
        bool operator>(const FastPending &o) const
        {
            return at != o.at ? at > o.at : token > o.token;
        }
    };

    timing::GpuModel *gpu_;
    func::FunctionalEngine *func_;
    SamplingOptions opts_;
    stats::AerialSampler *sampler_ = nullptr;

    Clusterer clusterer_;
    std::priority_queue<FastPending, std::vector<FastPending>,
                        std::greater<FastPending>>
        fast_pq_;
    uint64_t next_fast_token_ = 0;

    uint64_t launches_ = 0;
    uint64_t detailed_launches_ = 0;
    uint64_t capacity_detailed_ = 0;
};

} // namespace mlgs::sample

#endif // MLGS_SAMPLE_SAMPLED_BACKEND_H
