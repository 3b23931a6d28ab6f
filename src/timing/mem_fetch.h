/**
 * @file
 * In-flight memory request token passed between core, interconnect, L2 and
 * DRAM (GPGPU-Sim's mem_fetch analogue), plus simple delay-queue plumbing.
 */
#ifndef MLGS_TIMING_MEM_FETCH_H
#define MLGS_TIMING_MEM_FETCH_H

#include <deque>
#include <vector>

#include "common/types.h"

namespace mlgs::timing
{

/** One cache-line-granular memory transaction. */
struct MemFetch
{
    uint64_t id = 0;
    addr_t line_addr = 0;
    unsigned bytes = 0;
    bool is_write = false;
    bool is_atomic = false;
    unsigned core_id = 0;
    int warp_slot = -1;  ///< requesting warp slot on the core (-1: none)
    unsigned partition = 0;
    cycle_t created = 0;
};

/** FIFO whose entries become visible after a fixed latency. */
template <typename T>
class DelayQueue
{
  public:
    void
    push(T v, cycle_t ready_at)
    {
        q_.push_back({ready_at, std::move(v)});
    }

    bool
    ready(cycle_t now) const
    {
        return !q_.empty() && q_.front().first <= now;
    }

    T
    pop()
    {
        T v = std::move(q_.front().second);
        q_.pop_front();
        return v;
    }

    bool empty() const { return q_.empty(); }
    size_t size() const { return q_.size(); }

  private:
    std::deque<std::pair<cycle_t, T>> q_;
};

} // namespace mlgs::timing

#endif // MLGS_TIMING_MEM_FETCH_H
