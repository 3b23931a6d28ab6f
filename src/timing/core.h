/**
 * @file
 * Cycle-level SIMT core ("shader core" / SM): warp schedulers with a
 * scoreboard, functional execution at issue (GPGPU-Sim style), an L1 data
 * cache with MSHR merging, and CTA occupancy management.
 */
#ifndef MLGS_TIMING_CORE_H
#define MLGS_TIMING_CORE_H

#include <iterator>
#include <memory>
#include <unordered_map>

#include "func/engine.h"
#include "ptx/uop.h"
#include "stats/aerial.h"
#include "timing/cache.h"
#include "timing/mem_fetch.h"

namespace mlgs::timing
{

/** Aggregated counters across a run (input to the power model). */
struct TimingTotals
{
    cycle_t cycles = 0; ///< device-busy cycles (counted once under overlap)
    uint64_t warp_instructions = 0;
    uint64_t thread_instructions = 0;
    uint64_t alu = 0;
    uint64_t sfu = 0;
    uint64_t mem_insts = 0;
    uint64_t shared_accesses = 0;
    uint64_t l1_hits = 0;
    uint64_t l1_misses = 0;
    uint64_t l2_hits = 0;
    uint64_t l2_misses = 0;
    uint64_t icnt_flits = 0;
    uint64_t dram_reads = 0;
    uint64_t dram_writes = 0;
    uint64_t dram_row_hits = 0;
    uint64_t dram_row_misses = 0;
    uint64_t core_active_cycles = 0; ///< summed over cores with live warps
    uint64_t core_idle_cycles = 0;

    TimingTotals &operator+=(const TimingTotals &o);
    TimingTotals operator-(const TimingTotals &o) const;
    bool operator==(const TimingTotals &) const = default;
};

/** One TimingTotals counter: its stats key and its member. */
struct TimingCounter
{
    const char *name;
    uint64_t TimingTotals::*member;
};

/**
 * Every TimingTotals counter, in stats-JSON order. The single list of the
 * counters: arithmetic, snapshots, sampled extrapolation, the stats JSON and
 * the equality helpers all iterate it, so adding a counter means one member,
 * one line here and its increment site.
 */
inline constexpr TimingCounter kTimingCounters[] = {
    {"cycles", &TimingTotals::cycles},
    {"warp_instructions", &TimingTotals::warp_instructions},
    {"thread_instructions", &TimingTotals::thread_instructions},
    {"alu", &TimingTotals::alu},
    {"sfu", &TimingTotals::sfu},
    {"mem_insts", &TimingTotals::mem_insts},
    {"shared_accesses", &TimingTotals::shared_accesses},
    {"l1_hits", &TimingTotals::l1_hits},
    {"l1_misses", &TimingTotals::l1_misses},
    {"l2_hits", &TimingTotals::l2_hits},
    {"l2_misses", &TimingTotals::l2_misses},
    {"icnt_flits", &TimingTotals::icnt_flits},
    {"dram_reads", &TimingTotals::dram_reads},
    {"dram_writes", &TimingTotals::dram_writes},
    {"dram_row_hits", &TimingTotals::dram_row_hits},
    {"dram_row_misses", &TimingTotals::dram_row_misses},
    {"core_active_cycles", &TimingTotals::core_active_cycles},
    {"core_idle_cycles", &TimingTotals::core_idle_cycles},
};

static_assert(sizeof(TimingTotals) ==
                  std::size(kTimingCounters) * sizeof(uint64_t),
              "every TimingTotals member needs a kTimingCounters entry");

/** Shared, per-launch dispatch state (which CTA goes next, completion). */
struct KernelDispatch
{
    const func::LaunchEnv *env = nullptr;
    const std::vector<ptx::InstrTiming> *timing = nullptr; ///< of env->kernel
    Dim3 grid;
    Dim3 block;
    unsigned threads_per_cta = 0;
    unsigned warps_per_cta = 0;
    unsigned shared_bytes_per_cta = 0;
    uint64_t total_ctas = 0;
    uint64_t next_cta = 0;      ///< next linear CTA id to install
    uint64_t completed_ctas = 0;

    /**
     * Checkpoint resume: pre-initialized (possibly mid-execution) CTA states
     * for linear ids [preload_base, preload_base + preloaded.size()).
     */
    uint64_t preload_base = 0;
    std::vector<std::unique_ptr<func::CtaExec>> preloaded;

    bool allIssued() const { return next_cta >= total_ctas; }
    bool allDone() const { return completed_ctas >= total_ctas; }
};

/** One streaming multiprocessor. */
class ShaderCore
{
  public:
    ShaderCore(unsigned id, const GpuConfig &cfg, func::Executor &exec);

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

    /** This core's issue counters; every other TimingTotals field is 0. */
    const TimingTotals &counters() const { return counters_; }
    const TagCache &l1() const { return l1_; }
    unsigned id() const { return id_; }

    /** Number of live (installed, unfinished) warps. */
    unsigned liveWarps() const { return live_warps_total_; }

    /**
     * Panics unless nothing is left in flight: no writeback, L1 waiter or
     * L1 MSHR. Called when a kernel retires on a drained device.
     */
    void assertDrained() const;

  private:
    struct CtaSlot
    {
        std::unique_ptr<func::CtaExec> cta;
        KernelDispatch *disp = nullptr;
        std::vector<unsigned> warp_slots;
        unsigned live_warps = 0;
    };

    /** Cached scheduling verdict of a warp slot's next instruction. */
    enum class Verdict : uint8_t
    {
        Ready,   ///< no data hazard (the memory-structural test is live)
        Hazard,  ///< a register it reads or writes is busy, or an exit waits
                 ///< for loads
        Barrier, ///< parked at bar.sync (or not eligible at all)
    };

    struct WarpSlot
    {
        bool valid = false;
        int cta_slot = -1;
        unsigned warp_in_cta = 0;
        unsigned pending_loads = 0;
        cycle_t last_issue = 0;
        /** verdict/mem_next are recomputed by refresh() only while stale. */
        bool stale = true;
        Verdict verdict = Verdict::Barrier;
        bool mem_next = false; ///< next instruction touches memory
    };

    /**
     * Delayed register writeback (fixed-latency pipelines + L1 hits). It
     * clears its registers in whatever warp owns the slot when it matures:
     * an exiting warp does not wait for its ALU or shared writebacks.
     */
    struct Writeback
    {
        unsigned warp = 0;
        uint8_t n_regs = 0;
        bool load_part = false; ///< decrements pending_loads instead
        uint32_t regs[ptx::InstrTiming::kMaxWrites] = {};
    };

    /**
     * Writebacks bucketed by maturity cycle modulo a power-of-two ring
     * larger than the longest latency. Each bucket is a list threaded
     * through one node vector, whose free nodes form a free list, so the
     * pool grows to the most writebacks in flight and is reused from then
     * on. Drain order within a bucket is unspecified: a writeback only
     * clears scoreboard bits and decrements a pending-load count, so
     * same-cycle writebacks commute.
     */
    class WritebackWheel
    {
      public:
        explicit WritebackWheel(unsigned max_latency);

        /** Enqueue to mature at `at`, no earlier than the cycle after now. */
        void push(const Writeback &wb, cycle_t now, cycle_t at);

        /** Pop each writeback maturing at `now` into `f` (it must not push). */
        template <typename F> void drain(cycle_t now, F &&f);

        bool empty() const { return size_ == 0; }
        /** Walks every bucket: the drained-device check, not a hot path. */
        bool bucketsEmpty() const;

      private:
        static constexpr uint32_t kNil = ~uint32_t(0);
        struct Node
        {
            Writeback wb;
            uint32_t next = kNil;
        };

        std::vector<uint32_t> heads_; ///< first node of each bucket
        std::vector<Node> nodes_;
        cycle_t mask_ = 0;
        uint32_t free_ = kNil;
        size_t size_ = 0;
    };

    /** Recompute a stale slot's cached verdict from its next instruction. */
    void refresh(unsigned slot);
    /** An event changed the slot's inputs; wakes its scheduler. */
    void
    markStale(unsigned slot)
    {
        warps_[slot].stale = true;
        sched_quiet_[slot % sched_quiet_.size()] = 0;
    }
    void issueWarp(unsigned slot, cycle_t now, stats::AerialSampler *sampler);
    void holdWrites(unsigned slot, const ptx::InstrTiming &t, cycle_t now,
                    cycle_t at);
    void loadPartDone(unsigned slot);
    void completeCtaIfDone(int cta_slot);

    unsigned id_;
    const GpuConfig *cfg_;
    func::Executor *exec_;
    TagCache l1_;

    std::vector<CtaSlot> cta_slots_;
    std::vector<WarpSlot> warps_;

    /**
     * Scoreboard bitsets per warp slot: busy registers, and the in-flight
     * load destinations released when the warp's loads drain. A slot's rows
     * only widen, to the most registers of any kernel installed on it, so a
     * stale writeback from a wider kernel clears in bounds.
     */
    std::vector<std::vector<uint64_t>> busy_regs_;
    std::vector<std::vector<uint64_t>> mem_dest_regs_;
    std::vector<unsigned> sched_rr_; ///< LRR rotate position per scheduler
    std::vector<int> sched_last_;    ///< GTO sticky warp per scheduler
    std::vector<std::vector<unsigned>> sched_owned_; ///< warp slots per sched
    /**
     * Scheduler whose last scan found nothing to issue; it skips scans
     * until markStale() or a drop below a memory-structural limit wakes it.
     */
    std::vector<uint8_t> sched_quiet_;
    /** CTA slots whose barrier may have completed since the last cycle. */
    std::vector<unsigned> barrier_checks_;

    unsigned used_threads_ = 0;
    unsigned used_shared_ = 0;
    unsigned used_ctas_ = 0;
    unsigned live_warps_total_ = 0;

    WritebackWheel wb_wheel_;
    std::deque<MemFetch> out_queue_;
    std::unordered_map<addr_t, std::vector<unsigned>> l1_waiters_;
    uint64_t next_fetch_id_ = 0;
    std::vector<addr_t> load_lines_, store_lines_; ///< issueWarp scratch

    TimingTotals counters_;
};

} // namespace mlgs::timing

#endif // MLGS_TIMING_CORE_H
