/**
 * @file
 * One memory partition: an L2 slice in front of a DRAM channel, as in
 * GPGPU-Sim's memory partition unit.
 */
#ifndef MLGS_TIMING_PARTITION_H
#define MLGS_TIMING_PARTITION_H

#include "timing/cache.h"
#include "timing/dram.h"

namespace mlgs::timing
{

/** L2 slice + DRAM channel + queues. */
class MemPartition
{
  public:
    MemPartition(const GpuConfig &cfg, unsigned id);

    /** Request arriving from the interconnect. */
    void pushRequest(MemFetch mf) { incoming_.push_back(std::move(mf)); }

    /** Advance one cycle. */
    void cycle(cycle_t now);

    bool hasResponse() const { return !responses_.empty(); }
    MemFetch popResponse() { return responses_.pop_front(); }

    bool busy() const;

    const TagCache &l2() const { return l2_; }
    const DramChannel &dram() const { return dram_; }

    uint64_t l2Writebacks() const { return writes_seen_; }

  private:
    const GpuConfig *cfg_;
    unsigned id_;
    TagCache l2_;
    DramChannel dram_;

    FifoRing<MemFetch> incoming_;
    DelayQueue<MemFetch> l2_hit_pipe_;
    FifoRing<MemFetch> responses_;
    MshrWaiters<MemFetch> waiters_; ///< reads waiting on each L2 MSHR

    uint64_t writes_seen_ = 0;
    unsigned inflight_ = 0; ///< reads being serviced (DRAM or hit pipe)
};

} // namespace mlgs::timing

#endif // MLGS_TIMING_PARTITION_H
