#include "timing/dram.h"

#include <algorithm>

#include "common/log.h"

namespace mlgs::timing
{

DramChannel::DramChannel(const GpuConfig &cfg, unsigned partition_id)
    : cfg_(&cfg), partition_id_(partition_id), banks_(cfg.dram_banks)
{
    pending_per_bank_.assign(cfg.dram_banks, 0);
    bank_row_hits_.assign(cfg.dram_banks, 0);
    bank_row_misses_.assign(cfg.dram_banks, 0);
}

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

void
DramChannel::push(MemFetch mf)
{
    const unsigned bank = bankOf(mf.line_addr);
    const uint64_t row = rowOf(mf.line_addr);
    pending_per_bank_[bank]++;
    queue_.push_back({std::move(mf), bank, row});
}

void
DramChannel::cycle(cycle_t now)
{
    // No bank can take a request before the earliest one is ready.
    if (queue_.empty() || now < earliest_ready_)
        return;

    const size_t window = std::min(queue_.size(), size_t(cfg_->dram_sched_window));
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
    if (pick == SIZE_MAX)
        return;

    Request req = std::move(queue_[pick]);
    queue_.erase(pick);

    const unsigned b = req.bank;
    Bank &bank = banks_[b];
    pending_per_bank_[b]--;

    cycle_t latency = cfg_->dram_cas;
    if (bank.open_row != req.row) {
        latency += cfg_->dram_row_cycle;
        bank.open_row = req.row;
        row_misses_++;
        bank_row_misses_[b]++;
    } else {
        row_hits_++;
        bank_row_hits_[b]++;
    }

    const cycle_t transfer_start = std::max(now + latency, bus_free_);
    const cycle_t completion = transfer_start + cfg_->dram_burst_cycles;
    bus_free_ = completion;
    bank.ready_at = completion;
    bank.transfer_start = transfer_start;
    bank.transfer_until = completion;
    earliest_ready_ = completion;
    for (const Bank &other : banks_)
        earliest_ready_ = std::min(earliest_ready_, other.ready_at);

    done_.push(std::move(req.mf), completion);
    inflight_++;
}

MemFetch
DramChannel::popDone()
{
    inflight_--;
    return done_.pop();
}

bool
DramChannel::bankTransferring(unsigned bank, cycle_t now) const
{
    const Bank &b = banks_[bank];
    return now >= b.transfer_start && now < b.transfer_until;
}

bool
DramChannel::bankPending(unsigned bank) const
{
    return pending_per_bank_[bank] > 0;
}

} // namespace mlgs::timing
