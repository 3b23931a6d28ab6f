/**
 * @file
 * Per-partition DRAM channel: banks with open-row tracking, FR-FCFS (or FCFS)
 * scheduling, and a shared data bus. Keeps the per-bank busy and pending
 * cycle counts behind the paper's DRAM efficiency and utilization plots,
 * where serial single-bank phases appear as "bank camping".
 */
#ifndef MLGS_TIMING_DRAM_H
#define MLGS_TIMING_DRAM_H

#include <vector>

#include "timing/config.h"
#include "timing/mem_fetch.h"

namespace mlgs::timing
{

/** One GDDR channel with cfg.dram_banks banks. */
class DramChannel
{
  public:
    explicit DramChannel(const GpuConfig &cfg)
        : cfg_(&cfg), banks_(cfg.dram_banks)
    {
    }

    /** Enqueue a request (post-L2 miss or write-through) at cycle `now`. */
    void push(MemFetch mf, cycle_t now);

    /** Advance one cycle; completed requests appear on done(). */
    void cycle(cycle_t now);

    bool hasDone(cycle_t now) const { return done_.ready(now); }
    MemFetch popDone();

    bool
    busyOrPending() const
    {
        return !queue_.empty() || !done_.empty() || inflight_ > 0;
    }

    /** A bank's cumulative activity over the cycles before some `now`. */
    struct BankActivity
    {
        uint64_t busy = 0;    ///< cycles transferring data
        uint64_t pending = 0; ///< cycles transferring or with a request queued
    };
    BankActivity bankActivity(unsigned bank, cycle_t now) const;

    // Aggregate statistics.
    uint64_t rowHits() const { return row_hits_; }
    uint64_t rowMisses() const { return row_misses_; }

    // Per-bank breakdown (determinism checks, bank-camping diagnostics).
    uint64_t bankRowHits(unsigned bank) const { return banks_[bank].row_hits; }
    uint64_t
    bankRowMisses(unsigned bank) const
    {
        return banks_[bank].row_misses;
    }

    /** Address mapping exposed for tests. */
    unsigned bankOf(addr_t line_addr) const;
    uint64_t rowOf(addr_t line_addr) const;

  private:
    static constexpr cycle_t kNever = ~cycle_t(0);

    struct Bank
    {
        uint64_t open_row = UINT64_MAX;
        /** Bank free for a new column access: the end of the data-bus
         *  window of its last request, which began a burst earlier. */
        cycle_t ready_at = 0;
        unsigned queued = 0; ///< requests waiting in the queue
        BankActivity counted; ///< over the cycles before counted_until
        cycle_t counted_until = 0;
        uint64_t row_hits = 0;
        uint64_t row_misses = 0;
    };

    /** A queued request with its bank and row, mapped once at push. */
    struct Request
    {
        MemFetch mf;
        unsigned bank = 0;
        uint64_t row = 0;
    };

    /** Count bank `b`'s activity up to `now`, ahead of an event at `now`
     *  (DESIGN.md §2, AerialVision counters). */
    void integrate(unsigned b, cycle_t now);

    const GpuConfig *cfg_;
    std::vector<Bank> banks_;
    FifoRing<Request> queue_;
    DelayQueue<MemFetch> done_;
    cycle_t bus_free_ = 0;
    /** Earliest ready_at among the banks of the requests in the scheduling
     *  window (kNever while the queue is empty). */
    cycle_t next_try_ = kNever;
    unsigned inflight_ = 0;

    uint64_t row_hits_ = 0;
    uint64_t row_misses_ = 0;
};

} // namespace mlgs::timing

#endif // MLGS_TIMING_DRAM_H
