#include "timing/partition.h"

#include "common/log.h"

namespace mlgs::timing
{

MemPartition::MemPartition(const GpuConfig &cfg, unsigned id)
    : cfg_(&cfg), id_(id), l2_(cfg.l2), dram_(cfg),
      waiters_(cfg.l2.mshr_entries)
{
}

void
MemPartition::cycle(cycle_t now)
{
    // 1. Accept one request per cycle from the interconnect side. A read
    //    that finds no free L2 MSHR stays at the front to retry next cycle.
    if (!incoming_.empty()) {
        const MemFetch mf = incoming_.front();
        bool accepted = true;
        if (mf.is_write && !mf.is_atomic) {
            // Write-through towards DRAM; no response needed.
            l2_.accessWrite(mf.line_addr, now);
            writes_seen_++;
            dram_.push(mf, now);
        } else {
            unsigned mshr = 0;
            switch (l2_.accessRead(mf.line_addr, now, &mshr)) {
              case CacheOutcome::Hit:
                inflight_++;
                l2_hit_pipe_.push(mf, now + cfg_->l2.hit_latency);
                break;
              case CacheOutcome::Miss:
                inflight_++;
                waiters_.push(mshr, mf);
                dram_.push(mf, now);
                break;
              case CacheOutcome::MissMerged:
                inflight_++;
                waiters_.push(mshr, mf);
                break;
              case CacheOutcome::ReservationFail:
                accepted = false;
                break;
            }
        }
        if (accepted)
            incoming_.pop_front();
    }

    // 2. DRAM.
    dram_.cycle(now);
    while (dram_.hasDone(now)) {
        MemFetch mf = dram_.popDone();
        if (mf.is_write && !mf.is_atomic)
            continue; // write-through completes silently
        const unsigned mshr = l2_.fill(mf.line_addr, now);
        if (mshr != TagCache::kNoMshr)
            waiters_.drain(mshr, [&](MemFetch w) {
                inflight_--;
                responses_.push_back(std::move(w));
            });
    }

    // 3. L2 hits maturing.
    while (l2_hit_pipe_.ready(now)) {
        inflight_--;
        responses_.push_back(l2_hit_pipe_.pop());
    }
}

bool
MemPartition::busy() const
{
    return !incoming_.empty() || !responses_.empty() || inflight_ > 0 ||
           dram_.busyOrPending();
}

} // namespace mlgs::timing
