/**
 * @file
 * Cycle-level SIMT core ("shader core" / SM): warp schedulers with a
 * scoreboard, functional execution at issue (GPGPU-Sim style), an L1 data
 * cache with MSHR merging, and CTA occupancy management.
 */
#ifndef MLGS_TIMING_CORE_H
#define MLGS_TIMING_CORE_H

#include <atomic>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "func/engine.h"
#include "stats/aerial.h"
#include "timing/cache.h"
#include "timing/mem_fetch.h"

namespace mlgs::timing
{

/** Shared, per-launch dispatch state (which CTA goes next, completion). */
struct KernelDispatch
{
    const func::LaunchEnv *env = nullptr;
    Dim3 grid;
    Dim3 block;
    unsigned threads_per_cta = 0;
    unsigned warps_per_cta = 0;
    unsigned shared_bytes_per_cta = 0;
    uint64_t total_ctas = 0;
    uint64_t next_cta = 0;      ///< next linear CTA id to install

    /**
     * Atomic: cores stepping in parallel (GpuModel's sharded cycle loop)
     * retire CTAs concurrently. The value is a pure sum, so the result is
     * independent of retirement order.
     */
    std::atomic<uint64_t> completed_ctas{0};

    /**
     * Checkpoint resume: pre-initialized (possibly mid-execution) CTA states
     * for linear ids [preload_base, preload_base + preloaded.size()).
     */
    uint64_t preload_base = 0;
    std::vector<std::unique_ptr<func::CtaExec>> preloaded;

    bool allIssued() const { return next_cta >= total_ctas; }
    bool allDone() const { return completed_ctas >= total_ctas; }
};

/** Per-core aggregate counters. */
struct CoreCounters
{
    uint64_t issued_instructions = 0;
    uint64_t thread_instructions = 0;
    uint64_t alu = 0;
    uint64_t sfu = 0;
    uint64_t mem = 0;
    uint64_t shared_accesses = 0;
};

/** One streaming multiprocessor. */
class ShaderCore
{
  public:
    ShaderCore(unsigned id, const GpuConfig &cfg, func::Interpreter &interp);

    /** Try to claim and install the dispatch's next CTA; true on success. */
    bool tryIssueCta(KernelDispatch &disp);

    /** One core cycle: barrier release, scheduling, issue. */
    void cycle(cycle_t now, stats::AerialSampler *sampler);

    /** Memory response delivered from the interconnect. */
    void pushResponse(const MemFetch &mf, cycle_t now);

    bool hasOutgoing() const { return !out_queue_.empty(); }
    MemFetch popOutgoing();

    /** Live warps or outstanding memory work. */
    bool busy() const;

    const CoreCounters &counters() const { return counters_; }
    const TagCache &l1() const { return l1_; }
    unsigned id() const { return id_; }

    /** Number of live (installed, unfinished) warps. */
    unsigned liveWarps() const { return live_warps_total_; }

  private:
    struct CtaSlot
    {
        std::unique_ptr<func::CtaExec> cta;
        KernelDispatch *disp = nullptr;
        std::vector<unsigned> warp_slots;
        unsigned live_warps = 0;
    };

    struct WarpSlot
    {
        bool valid = false;
        int cta_slot = -1;
        unsigned warp_in_cta = 0;
        std::unordered_set<int> busy_regs;     ///< scoreboard
        std::vector<int> mem_dest_regs;        ///< released when loads drain
        unsigned pending_loads = 0;
        cycle_t last_issue = 0;
    };

    /** Delayed register writeback (fixed-latency pipelines + L1 hits). */
    struct Writeback
    {
        unsigned warp = 0;
        std::vector<int> regs;
        bool load_part = false; ///< decrements pending_loads instead
    };

    bool warpEligible(const WarpSlot &w) const;
    bool warpReady(const WarpSlot &w, stats::StallKind &why) const;
    void issueWarp(unsigned slot, cycle_t now, stats::AerialSampler *sampler);
    void finishLoads(WarpSlot &w);
    void completeCtaIfDone(int cta_slot);

    unsigned id_;
    const GpuConfig *cfg_;
    func::Interpreter *interp_;
    TagCache l1_;

    std::vector<CtaSlot> cta_slots_;
    std::vector<WarpSlot> warps_;
    std::vector<unsigned> sched_rr_; ///< LRR rotate position per scheduler
    std::vector<int> sched_last_;    ///< GTO sticky warp per scheduler
    std::vector<std::vector<unsigned>> sched_owned_; ///< warp slots per sched

    unsigned used_threads_ = 0;
    unsigned used_shared_ = 0;
    unsigned used_ctas_ = 0;
    unsigned live_warps_total_ = 0;

    PqDelayQueue<Writeback> wb_pipe_;
    std::deque<MemFetch> out_queue_;
    std::unordered_map<addr_t, std::vector<unsigned>> l1_waiters_;
    uint64_t next_fetch_id_ = 0;

    CoreCounters counters_;
};

} // namespace mlgs::timing

#endif // MLGS_TIMING_CORE_H
