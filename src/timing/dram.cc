#include "timing/dram.h"

#include <algorithm>

#include "common/log.h"

namespace mlgs::timing
{

unsigned
DramChannel::bankOf(addr_t line_addr) const
{
    const uint64_t laddr = line_addr / cfg_->l2.line_bytes;
    const uint64_t pline = laddr / cfg_->num_partitions;
    const uint64_t row_lines = cfg_->dram_row_bytes / cfg_->l2.line_bytes;
    return unsigned((pline / row_lines) % cfg_->dram_banks);
}

uint64_t
DramChannel::rowOf(addr_t line_addr) const
{
    const uint64_t laddr = line_addr / cfg_->l2.line_bytes;
    const uint64_t pline = laddr / cfg_->num_partitions;
    const uint64_t row_lines = cfg_->dram_row_bytes / cfg_->l2.line_bytes;
    return (pline / row_lines) / cfg_->dram_banks;
}

DramChannel::BankActivity
DramChannel::bankActivity(unsigned bank, cycle_t now) const
{
    const Bank &b = banks_[bank];
    const cycle_t burst = cfg_->dram_burst_cycles;
    const cycle_t from = b.counted_until;
    const cycle_t lo = std::max(from, b.ready_at - std::min(b.ready_at, burst));
    const cycle_t hi = std::min(now, b.ready_at);
    const uint64_t busy = hi > lo ? hi - lo : 0;
    return {b.counted.busy + busy,
            b.counted.pending + (b.queued ? now - from : busy)};
}

void
DramChannel::integrate(unsigned b, cycle_t now)
{
    banks_[b].counted = bankActivity(b, now);
    banks_[b].counted_until = now;
}

void
DramChannel::push(MemFetch mf, cycle_t now)
{
    const unsigned bank = bankOf(mf.line_addr);
    const uint64_t row = rowOf(mf.line_addr);
    integrate(bank, now);
    banks_[bank].queued++;
    queue_.push_back({std::move(mf), bank, row});
    if (queue_.size() <= cfg_->dram_sched_window) // inside the window
        next_try_ = std::min(next_try_, banks_[bank].ready_at);
}

void
DramChannel::cycle(cycle_t now)
{
    // A scan can pick only a request whose bank is ready.
    if (now < next_try_)
        return;

    size_t window = std::min(queue_.size(), size_t(cfg_->dram_sched_window));
    size_t pick = SIZE_MAX;

    if (cfg_->dram_frfcfs) {
        // First ready row-hit in the window.
        for (size_t i = 0; i < window; i++) {
            const Bank &bank = banks_[queue_[i].bank];
            if (bank.ready_at <= now && bank.open_row == queue_[i].row) {
                pick = i;
                break;
            }
        }
    }
    if (pick == SIZE_MAX) {
        // Oldest request whose bank is ready.
        for (size_t i = 0; i < window; i++) {
            if (banks_[queue_[i].bank].ready_at <= now) {
                pick = i;
                break;
            }
        }
    }
    MLGS_ASSERT(pick != SIZE_MAX, "DRAM scan at cycle ", now,
                " found no ready bank");

    Request req = std::move(queue_[pick]);
    queue_.erase(pick);

    const unsigned b = req.bank;
    Bank &bank = banks_[b];
    integrate(b, now);
    bank.queued--;

    cycle_t latency = cfg_->dram_cas;
    if (bank.open_row != req.row) {
        latency += cfg_->dram_row_cycle;
        bank.open_row = req.row;
        row_misses_++;
        bank.row_misses++;
    } else {
        row_hits_++;
        bank.row_hits++;
    }

    const cycle_t transfer_start = std::max(now + latency, bus_free_);
    const cycle_t completion = transfer_start + cfg_->dram_burst_cycles;
    bus_free_ = completion;
    bank.ready_at = completion;
    // Banks change only here, and the window only here and at push.
    next_try_ = kNever;
    window = std::min(queue_.size(), size_t(cfg_->dram_sched_window));
    for (size_t i = 0; i < window; i++)
        next_try_ = std::min(next_try_, banks_[queue_[i].bank].ready_at);

    done_.push(std::move(req.mf), completion);
    inflight_++;
}

MemFetch
DramChannel::popDone()
{
    inflight_--;
    return done_.pop();
}

} // namespace mlgs::timing
