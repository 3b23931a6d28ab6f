/**
 * @file
 * Per-partition DRAM channel: banks with open-row tracking, FR-FCFS (or FCFS)
 * scheduling, and a shared data bus. Produces the per-bank busy/pending
 * signals behind the paper's DRAM efficiency and utilization plots, where
 * serial single-bank phases appear as "bank camping".
 */
#ifndef MLGS_TIMING_DRAM_H
#define MLGS_TIMING_DRAM_H

#include <deque>
#include <vector>

#include "timing/config.h"
#include "timing/mem_fetch.h"

namespace mlgs::timing
{

/** One GDDR channel with cfg.dram_banks banks. */
class DramChannel
{
  public:
    DramChannel(const GpuConfig &cfg, unsigned partition_id);

    /** Enqueue a request (post-L2 miss or write-through). */
    void push(MemFetch mf);

    /** Advance one cycle; completed requests appear on done(). */
    void cycle(cycle_t now);

    bool hasDone(cycle_t now) const { return done_.ready(now); }
    MemFetch popDone();

    bool
    busyOrPending() const
    {
        return !queue_.empty() || !done_.empty() || inflight_ > 0;
    }

    unsigned numBanks() const { return unsigned(banks_.size()); }

    /** Bank status sampled each cycle by the GPU top level. */
    bool bankTransferring(unsigned bank, cycle_t now) const;
    bool bankPending(unsigned bank) const;

    // Aggregate statistics.
    uint64_t rowHits() const { return row_hits_; }
    uint64_t rowMisses() const { return row_misses_; }

    // Per-bank breakdown (determinism checks, bank-camping diagnostics).
    uint64_t bankRowHits(unsigned bank) const { return bank_row_hits_[bank]; }
    uint64_t
    bankRowMisses(unsigned bank) const
    {
        return bank_row_misses_[bank];
    }

    /** Address mapping exposed for tests. */
    unsigned bankOf(addr_t line_addr) const;
    uint64_t rowOf(addr_t line_addr) const;

  private:
    struct Bank
    {
        uint64_t open_row = UINT64_MAX;
        cycle_t ready_at = 0;        ///< bank free for a new column access
        cycle_t transfer_start = 0;  ///< data-bus window for its last request
        cycle_t transfer_until = 0;
    };

    /** A queued request with its bank and row, mapped once at push. */
    struct Request
    {
        MemFetch mf;
        unsigned bank = 0;
        uint64_t row = 0;
    };

    const GpuConfig *cfg_;
    unsigned partition_id_;
    std::vector<Bank> banks_;
    std::vector<unsigned> pending_per_bank_;
    std::deque<Request> queue_;
    DelayQueue<MemFetch> done_;
    cycle_t bus_free_ = 0;
    cycle_t earliest_ready_ = 0; ///< min over banks of ready_at
    unsigned inflight_ = 0;

    uint64_t row_hits_ = 0;
    uint64_t row_misses_ = 0;
    std::vector<uint64_t> bank_row_hits_;
    std::vector<uint64_t> bank_row_misses_;
};

} // namespace mlgs::timing

#endif // MLGS_TIMING_DRAM_H
