/**
 * @file
 * Cycle-level SIMT core ("shader core" / SM): warp schedulers with a
 * scoreboard, an L1 data cache with MSHR merging, and CTA occupancy
 * management. Issue consumes one issue record per warp instruction from a
 * per-warp-slot cursor (func/warp_stream.h); the records come from the
 * batch executor running the warp ahead in bounded chunks, from one
 * functional step at issue (GPGPU-Sim style) where an observable property
 * needs that order, or from a captured stream.
 */
#ifndef MLGS_TIMING_CORE_H
#define MLGS_TIMING_CORE_H

#include <array>
#include <iterator>
#include <memory>

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
     * Execute each warp instruction functionally at issue instead of ahead
     * of it: the kernel's result or an attached observer depends on the
     * order of issue (global atomics, %clock, a site profiler).
     */
    bool step_at_issue = false;

    /**
     * Checkpoint resume: pre-initialized (possibly mid-execution) CTA states
     * for linear ids [preload_base, preload_base + preloaded.size()).
     */
    uint64_t preload_base = 0;
    std::vector<std::unique_ptr<func::CtaExec>> preloaded;

    bool allIssued() const { return next_cta >= total_ctas; }
    bool allDone() const { return completed_ctas >= total_ctas; }
};

/**
 * Most issue records a warp runs ahead of issue: the batch executor refills
 * a warp's cursor with at most this many instructions. It bounds the
 * records held per resident warp, whatever a warp's length between
 * barriers.
 */
inline constexpr unsigned kIssueChunk = 64;

/** One streaming multiprocessor. */
class ShaderCore
{
  public:
    ShaderCore(unsigned id, const GpuConfig &cfg, func::Executor &exec);

    /** Try to claim and install the dispatch's next CTA; true on success. */
    bool tryIssueCta(KernelDispatch &disp);

    /**
     * One core cycle: barrier release, scheduling, issue. Returns true when
     * a warp exited, which frees a warp slot (and perhaps its CTA's slot)
     * for the next CTA dispatch.
     */
    bool cycle(cycle_t now);

    /** Memory response delivered from the interconnect. */
    void pushResponse(const MemFetch &mf, cycle_t now);

    bool hasOutgoing() const { return !out_queue_.empty(); }
    MemFetch popOutgoing();

    /** Live warps or outstanding memory work. */
    bool busy() const;

    /** This core's issue counters; every other TimingTotals field is 0. */
    const TimingTotals &counters() const { return counters_; }

    /**
     * Add this core's AerialVision counts over the cycles before `now` to
     * a snapshot (DESIGN.md §2): its issues and their lane histogram, and
     * its stalled slots but the idle ones, which the reader derives.
     */
    void addAerialCounts(stats::AerialBucket &a, cycle_t now) const;

    const TagCache &l1() const { return l1_; }
    unsigned id() const { return id_; }

    /** Number of live (installed, unfinished) warps. */
    unsigned liveWarps() const { return live_warps_total_; }

    /**
     * Panics unless nothing is left in flight: no wheel event, L1 waiter or
     * L1 MSHR, and no counted stall span. Called when a kernel retires on
     * a drained device.
     */
    void assertDrained() const;

    /**
     * Panics unless each scheduler's GTO age list holds exactly its owned
     * warp slots, sorted by (last issue cycle, slot).
     */
    void assertAgeOrder() const;

  private:
    static constexpr unsigned kNoSlot = ~0u;

    /** Where a CTA's warps get their issue records from. */
    enum class Source : uint8_t
    {
        Produce, ///< the batch executor, ahead of issue, kIssueChunk at a time
        Step,    ///< one functional step at issue (KernelDispatch, checkpoint)
        Replay,  ///< the executor's warp-stream replay cache (no CtaExec)
    };

    struct CtaSlot
    {
        /** Functional state; unused under Source::Replay. Kept for the
         *  slot's next CTA of the same launch once this one completes. */
        std::unique_ptr<func::CtaExec> cta;
        KernelDispatch *disp = nullptr;     ///< null while the slot is free
        uint64_t linear = 0;                ///< linear CTA id in the grid
        Source src = Source::Produce;
        std::vector<unsigned> warp_slots;
        unsigned live_warps = 0;
        unsigned at_barrier = 0; ///< live warps waiting at bar.sync
    };

    struct WarpSlot
    {
        bool valid = false;
        int cta_slot = -1;
        unsigned warp_in_cta = 0;
        unsigned pending_loads = 0;
        cycle_t last_issue = 0;
        /** Neighbours in the scheduler's age list (kNoSlot at the ends). */
        unsigned age_prev = kNoSlot;
        unsigned age_next = kNoSlot;
        /** ready_at/mem_next are recomputed by refresh() only while stale. */
        bool stale = true;
        bool mem_next = false; ///< next instruction touches memory
        /**
         * First cycle the next instruction may issue: the latest ready
         * cycle of a register it reads or writes; kNever while it, or an
         * exit, waits for loads.
         */
        cycle_t ready_at = 0;
        /** Latest cycle a fixed-latency write of this warp lands. */
        cycle_t writes_until = 0;
        /** Consumed a bar.sync record; waits for its CTA's release. */
        bool at_barrier = false;
        /** Issue cursor: the next record is recs[pos] of *stream. */
        const func::IssueStream *stream = nullptr;
        size_t pos = 0;
    };

    /**
     * A cycle that never comes: the ready cycle of an in-flight load
     * destination until its warp's last load part lands, and the wake
     * cycle of a scheduler that no write in flight will wake.
     */
    static constexpr cycle_t kNever = ~cycle_t(0);
    /** Writeback::reg of an L1 hit's load part. */
    static constexpr uint32_t kLoadPart = ~uint32_t(0);

    /**
     * A wheel event on a warp slot: an L1 hit's load part (reg ==
     * kLoadPart), which decrements the slot's pending loads, or a write
     * of register `reg` that has left its warp's scoreboard row. Such a
     * write was in flight when its warp exited, or was displaced by an
     * earlier one of those; it clears the register in whatever warp owns
     * the slot when it lands (DESIGN.md §2).
     */
    struct Writeback
    {
        unsigned warp = 0;
        uint32_t reg = kLoadPart;
    };

    /**
     * Wheel events bucketed by maturity cycle modulo a power-of-two ring
     * larger than the longest latency. Each bucket is a list threaded
     * through one node vector, whose free nodes form a free list, so the
     * pool grows to the most events in flight and is reused from then on.
     * Drain order within a bucket is unspecified: an event only lowers
     * ready cycles to the drain cycle and decrements a pending-load count,
     * so same-cycle events commute.
     */
    class WritebackWheel
    {
      public:
        explicit WritebackWheel(unsigned max_latency);

        /** Enqueue to mature at `at`, no earlier than the cycle after now. */
        void push(const Writeback &wb, cycle_t now, cycle_t at);

        /** Pop each event maturing at `now` into `f`, which may push
         *  events for later cycles. */
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

    /** Recompute a stale slot's ready cycle from its next instruction. */
    void refresh(unsigned slot);
    /** The pc of the slot's next instruction; refills a dry cursor. */
    uint32_t nextPc(unsigned slot);
    /** Run the slot's warp ahead into its chunk (Source::Produce). */
    void produce(unsigned slot);
    void releaseBarrier(unsigned cta_slot);
    /** An event changed the slot's inputs; wakes its scheduler. */
    void
    markStale(unsigned slot)
    {
        warps_[slot].stale = true;
        sched_wake_[slot % sched_wake_.size()] = 0;
    }
    void ageUnlink(unsigned slot);
    /** Link `slot` in front of `next` (at the tail for kNoSlot). */
    void ageLinkBefore(unsigned slot, unsigned next);
    void issueWarp(unsigned slot, cycle_t now);
    /** Scheduler `s` stalls for `kind` from `now` on; an issue passes Idle. */
    void stallFrom(unsigned s, stats::StallKind kind, cycle_t now);
    void holdWrites(unsigned slot, const ptx::InstrTiming &t, cycle_t now,
                    cycle_t at);
    /** Register `r` of the slot's warp lands at `now` if it is later. */
    void landWrite(unsigned slot, uint32_t r, cycle_t now);
    void loadPartDone(unsigned slot, cycle_t now);
    void completeCtaIfDone(int cta_slot);

    unsigned id_;
    const GpuConfig *cfg_;
    func::Executor *exec_;
    TagCache l1_;

    std::vector<CtaSlot> cta_slots_;
    std::vector<WarpSlot> warps_;

    /**
     * Scoreboard rows per warp slot: the cycle each register's pending
     * write lands (kNever for a load destination), and a bitset of the
     * in-flight load destinations, which land with the warp's last load
     * part. A slot's rows only widen, to the most registers of any kernel
     * installed on it, so an orphaned write from a wider kernel lands in
     * bounds.
     */
    std::vector<std::vector<cycle_t>> reg_ready_;
    std::vector<std::vector<uint64_t>> mem_dest_regs_;
    std::vector<unsigned> sched_rr_; ///< LRR rotate position per scheduler
    std::vector<int> sched_last_;    ///< GTO sticky warp per scheduler
    std::vector<std::vector<unsigned>> sched_owned_; ///< warp slots per sched
    /**
     * GTO age list per scheduler: every owned slot, valid or not, linked
     * through WarpSlot::age_prev/age_next in (last_issue, slot) order, so
     * the oldest ready warp is the first ready one from the head. An issue
     * moves its warp to the tail (at cycle 0 every age is 0 and it stays
     * put); a CTA install puts its slots back into the age-0 prefix in slot
     * order.
     */
    std::vector<unsigned> age_head_, age_tail_;
    /**
     * Cycle of each scheduler's next scan. A fruitless scan sets it to the
     * earliest ready cycle of the warps it found waiting on fixed-latency
     * writes (kNever if none); markStale() and a drop below a
     * memory-structural limit reset it to 0.
     */
    std::vector<cycle_t> sched_wake_;
    /** Per scheduler: why its slot has stalled since `since`, until it
     *  issues or a scan finds another reason. Idle spans are not counted. */
    struct StallSpan
    {
        stats::StallKind kind = stats::StallKind::Idle;
        cycle_t since = 0;
    };
    std::vector<StallSpan> stall_spans_;
    /** CTA slots whose barrier may have completed since the last cycle. */
    std::vector<unsigned> barrier_checks_;

    unsigned used_threads_ = 0;
    unsigned used_shared_ = 0;
    unsigned used_ctas_ = 0;
    unsigned live_warps_total_ = 0;

    WritebackWheel wb_wheel_;
    FifoRing<MemFetch> out_queue_;
    MshrWaiters<unsigned> l1_waiters_; ///< warp slots merged into L1 misses
    /** Each warp slot's chunk of issue records (capacity reused), sized
     *  at the core's first CTA install. */
    std::vector<func::IssueStream> chunks_;
    func::WarpStepResult step_; ///< Source::Step's step record, reused

    TimingTotals counters_;
    std::array<uint64_t, kWarpSize + 1> issues_by_lanes_{};
    /** Closed stall spans' cycles per StallKind; Idle stays 0. */
    std::array<uint64_t, size_t(stats::StallKind::kCount)> stalled_slots_{};
};

} // namespace mlgs::timing

#endif // MLGS_TIMING_CORE_H
