/**
 * @file
 * Top-level performance model ("Performance simulation mode"): shader cores,
 * a crossbar interconnect, and memory partitions advanced in lock-step, with
 * AerialVision sampling hooks and aggregated counters for the power model.
 * Like GPGPU-Sim's cycle loop, one host thread (the caller) steps every core
 * in ascending core-id order; host threads parallelize only functional CTAs.
 *
 * The model is event-drivable: kernels are made resident with beginKernel()
 * and the clock advances via advanceUntil(), so up to
 * GpuConfig::max_resident_kernels grids may execute concurrently — CTAs from
 * different kernels occupy disjoint core slots, GPGPU-Sim leftover-core
 * style. runKernel()/runKernelFrom() remain as synchronous one-grid
 * wrappers.
 */
#ifndef MLGS_TIMING_GPU_H
#define MLGS_TIMING_GPU_H

#include <map>
#include <memory>
#include <optional>

#include "func/executor.h"
#include "stats/aerial.h"
#include "timing/core.h"
#include "timing/partition.h"

namespace mlgs::timing
{

/** Result of one kernel run on the performance model. */
struct KernelRunStats
{
    std::string kernel_name;
    cycle_t cycles = 0;
    uint64_t warp_instructions = 0;
    uint64_t thread_instructions = 0;
    double ipc = 0.0;
    double l1_hit_rate = 0.0;
    double l2_hit_rate = 0.0;
    double dram_row_hit_rate = 0.0;

    /** Device clock when the kernel started issuing. */
    cycle_t start_cycle = 0;

    /**
     * Full counter breakdown over the kernel's execution window (the delta
     * of every TimingTotals field between start and retirement). Exact
     * per-kernel attribution when kernels don't overlap; under concurrent
     * residency, events of overlapping kernels land in both windows (the
     * grand totals_ remain free of double counting either way).
     */
    TimingTotals totals;
};

/** A kernel retired by advanceUntil(). */
struct KernelCompletion
{
    uint64_t token = 0;
    cycle_t at = 0; ///< device clock at completion
};

/** The simulated GPU. */
class GpuModel
{
  public:
    GpuModel(const GpuConfig &cfg, func::Executor &exec);
    ~GpuModel();

    // ---- event-driven interface ----
    /**
     * Make a grid resident, eligible to issue CTAs once the device clock
     * reaches `not_before` (the launching stream's ready time). The first
     * `skip_ctas` CTAs are considered already executed; `preloaded` may
     * supply mid-execution CTA states (checkpoint resume). Returns a token.
     */
    uint64_t beginKernel(const func::LaunchEnv &env, const Dim3 &grid,
                         const Dim3 &block, cycle_t not_before,
                         uint64_t skip_ctas = 0,
                         std::vector<std::unique_ptr<func::CtaExec>>
                             preloaded = {});

    /**
     * Advance the device clock until some resident kernel completes or the
     * clock would pass `limit`. Fully idle gaps (every resident kernel still
     * below its not_before time, nothing in flight) are skipped without
     * burning simulation work. Returns the completion if one occurred at a
     * clock value <= limit.
     */
    std::optional<KernelCompletion> advanceUntil(
        cycle_t limit, stats::AerialSampler *sampler = nullptr);

    /** Fetch (and drop) the stats of a kernel retired by advanceUntil(). */
    KernelRunStats collectKernel(uint64_t token);

    unsigned residentKernels() const { return unsigned(active_.size()); }
    cycle_t clock() const { return clock_; }

    // ---- synchronous one-grid wrappers ----
    /** Run one grid to completion in the timing model (device must be idle). */
    KernelRunStats runKernel(const func::LaunchEnv &env, const Dim3 &grid,
                             const Dim3 &block,
                             stats::AerialSampler *sampler = nullptr);

    /**
     * Timing-mode resume support: run a grid whose first `skip_ctas` CTAs are
     * considered already executed (their functional effects must already be
     * in memory) and, optionally, adopt pre-initialized CTA states.
     */
    KernelRunStats runKernelFrom(const func::LaunchEnv &env, const Dim3 &grid,
                                 const Dim3 &block, uint64_t skip_ctas,
                                 std::vector<std::unique_ptr<func::CtaExec>>
                                     preloaded_ctas,
                                 stats::AerialSampler *sampler = nullptr);

    const GpuConfig &config() const { return cfg_; }
    /**
     * Grand totals, folded in as each kernel retires; exact once the device
     * is idle (the last resident kernel retires after the pipeline drains).
     */
    const TimingTotals &totals() const { return totals_; }

    /**
     * Per-bank DRAM row hit/miss counters, partition-major (partition p,
     * bank b at index p * dram_banks + b). Determinism-suite hook.
     */
    std::vector<uint64_t> perBankRowHits() const;
    std::vector<uint64_t> perBankRowMisses() const;

    /**
     * Every kernel retired so far, in retirement order, each with its full
     * TimingTotals window delta (KernelRunStats::totals). Feeds the sampling
     * extrapolator and `mlgs-trace replay --per-launch`.
     */
    const std::vector<KernelRunStats> &perLaunchTotals() const
    {
        return per_launch_;
    }

    /**
     * Fold an extrapolated (not cycle-simulated) kernel's estimated counters
     * into the grand totals. Used by the sampled timing mode for
     * fast-forwarded launches; never called in Detailed mode, so detailed
     * totals stay bitwise-unchanged. The snapshot-delta accumulation in
     * finishActive() is unaffected (it diffs snapshot(), which this does
     * not touch).
     */
    void accumulateExtrapolated(const TimingTotals &t) { totals_ += t; }

  private:
    /** One resident grid. */
    struct ActiveKernel
    {
        uint64_t token = 0;
        func::LaunchEnv env;   ///< owned copy; disp.env points here
        KernelDispatch disp;
        cycle_t not_before = 0;
        cycle_t start_clock = 0;
        bool started = false;
        TimingTotals base; ///< snapshot at start (per-kernel attribution)
    };

    void cycleOnce(cycle_t now, stats::AerialSampler *sampler);
    bool anythingInFlight() const;
    /** Panics if a drained device still holds per-request state. */
    void assertDrained() const;
    TimingTotals snapshot() const;
    KernelCompletion finishActive(size_t idx);

    GpuConfig cfg_;
    std::vector<std::unique_ptr<ShaderCore>> cores_;
    std::vector<std::unique_ptr<MemPartition>> partitions_;
    DelayQueue<MemFetch> to_partition_;
    DelayQueue<MemFetch> to_core_;
    TimingTotals totals_;
    /**
     * Counters kept only as running sums (cycles, icnt_flits and the core
     * active/idle cycles); every other live_ field stays zero. snapshot()
     * adds the component counters to these.
     */
    TimingTotals live_;

    std::vector<std::unique_ptr<ActiveKernel>> active_; ///< launch order
    std::map<uint64_t, KernelRunStats> finished_;       ///< awaiting collect
    std::vector<KernelRunStats> per_launch_;            ///< retirement order
    TimingTotals totals_base_; ///< totals_ accumulated up to this snapshot
    uint64_t next_token_ = 0;
    uint64_t next_launch_seq_ = 0; ///< stamps LaunchEnv::launch_seq

    /**
     * Persistent device clock, now shared with the DeviceEngine's stream
     * timeline. Component timestamps (DRAM bank/bus ready times, pipeline
     * delays) survive across kernel launches, so the clock must too.
     */
    cycle_t clock_ = 0;

    // Forward-progress watchdog across advanceUntil calls.
    cycle_t last_progress_clock_ = 0;
    uint64_t last_completed_sum_ = 0;
};

} // namespace mlgs::timing

#endif // MLGS_TIMING_GPU_H
