#include "timing/core.h"

#include <algorithm>

namespace mlgs::timing
{

using func::WarpStepResult;
using ptx::InstrTiming;

namespace
{

bool
testReg(const uint64_t *row, uint32_t r)
{
    return (row[r / 64] >> (r % 64)) & 1;
}

void
setReg(uint64_t *row, uint32_t r)
{
    row[r / 64] |= uint64_t(1) << (r % 64);
}

void
clearReg(uint64_t *row, uint32_t r)
{
    row[r / 64] &= ~(uint64_t(1) << (r % 64));
}

/** Outgoing requests at which memory instructions stop issuing. */
constexpr size_t kOutQueueLimit = 256;

/** The TimingTotals counter each ptx::PipeClass issue bumps. */
constexpr uint64_t TimingTotals::*kPipeCounter[] = {
    &TimingTotals::alu, &TimingTotals::sfu, &TimingTotals::mem_insts};

} // namespace

TimingTotals &
TimingTotals::operator+=(const TimingTotals &o)
{
    for (const auto &c : kTimingCounters)
        this->*c.member += o.*c.member;
    return *this;
}

TimingTotals
TimingTotals::operator-(const TimingTotals &o) const
{
    TimingTotals d;
    for (const auto &c : kTimingCounters)
        d.*c.member = this->*c.member - o.*c.member;
    return d;
}

ShaderCore::WritebackWheel::WritebackWheel(unsigned max_latency)
{
    size_t buckets = 1;
    while (buckets <= max_latency)
        buckets *= 2;
    mask_ = buckets - 1;
    heads_.assign(buckets, kNil);
}

void
ShaderCore::WritebackWheel::push(const Writeback &wb, cycle_t now, cycle_t at)
{
    at = std::max(at, now + 1);
    MLGS_ASSERT(at - now <= mask_, "writeback latency exceeds the wheel");
    uint32_t idx = free_;
    if (idx != kNil) {
        free_ = nodes_[idx].next;
    } else {
        idx = uint32_t(nodes_.size());
        nodes_.emplace_back();
    }
    uint32_t &head = heads_[at & mask_];
    nodes_[idx].wb = wb;
    nodes_[idx].next = head;
    head = idx;
    size_++;
}

template <typename F>
void
ShaderCore::WritebackWheel::drain(cycle_t now, F &&f)
{
    uint32_t idx = heads_[now & mask_];
    heads_[now & mask_] = kNil;
    while (idx != kNil) {
        Node &n = nodes_[idx];
        f(n.wb);
        const uint32_t next = n.next;
        n.next = free_;
        free_ = idx;
        size_--;
        idx = next;
    }
}

bool
ShaderCore::WritebackWheel::bucketsEmpty() const
{
    for (const uint32_t head : heads_)
        if (head != kNil)
            return false;
    return size_ == 0;
}

ShaderCore::ShaderCore(unsigned id, const GpuConfig &cfg,
                       func::Executor &exec)
    : id_(id), cfg_(&cfg), exec_(&exec), l1_(cfg.l1),
      wb_wheel_(std::max({cfg.alu_latency, cfg.sfu_latency * 2,
                          cfg.shared_latency, cfg.l1.hit_latency}))
{
    cta_slots_.resize(cfg.max_ctas_per_core);
    warps_.resize(cfg.max_warps_per_core);
    busy_regs_.resize(warps_.size());
    mem_dest_regs_.resize(warps_.size());
    sched_rr_.assign(cfg.schedulers_per_core, 0);
    sched_last_.assign(cfg.schedulers_per_core, -1);
    sched_owned_.resize(cfg.schedulers_per_core);
    sched_quiet_.assign(cfg.schedulers_per_core, 0);
    for (unsigned slot = 0; slot < warps_.size(); slot++)
        sched_owned_[slot % cfg.schedulers_per_core].push_back(slot);
}

bool
ShaderCore::tryIssueCta(KernelDispatch &disp)
{
    if (disp.allIssued())
        return false;

    if (used_threads_ + disp.threads_per_cta > cfg_->max_threads_per_core)
        return false;
    if (used_ctas_ + 1 > cfg_->max_ctas_per_core)
        return false;
    if (used_shared_ + disp.shared_bytes_per_cta > cfg_->shared_mem_per_core)
        return false;
    // A warp slot is free while it holds no live warp.
    if (warps_.size() - live_warps_total_ < disp.warps_per_cta)
        return false;

    int cta_idx = -1;
    for (size_t i = 0; i < cta_slots_.size(); i++) {
        if (!cta_slots_[i].cta) {
            cta_idx = int(i);
            break;
        }
    }
    if (cta_idx < 0)
        return false;

    const uint64_t linear = disp.next_cta++;
    const Dim3 cta_id = unflatten(linear, disp.grid);
    CtaSlot &cs = cta_slots_[size_t(cta_idx)];
    const uint64_t pidx = linear - disp.preload_base;
    if (linear >= disp.preload_base && pidx < disp.preloaded.size() &&
        disp.preloaded[pidx]) {
        cs.cta = std::move(disp.preloaded[pidx]); // checkpoint-restored state
    } else {
        cs.cta = std::make_unique<func::CtaExec>(
            *disp.env->kernel, disp.grid, disp.block, cta_id,
            /*alloc_state=*/!exec_->warpStreamReplayActive());
    }
    cs.disp = &disp;
    for (unsigned w = 0;
         w < warps_.size() && cs.warp_slots.size() < disp.warps_per_cta; w++)
        if (!warps_[w].valid)
            cs.warp_slots.push_back(w);
    cs.live_warps = 0;
    for (unsigned w = 0; w < cs.cta->numWarps(); w++)
        if (!cs.cta->warpDone(w))
            cs.live_warps++;

    MLGS_ASSERT(cs.cta->numWarps() == disp.warps_per_cta, "warp count mismatch");
    const size_t words = (disp.env->kernel->reg_types.size() + 63) / 64;
    for (unsigned i = 0; i < disp.warps_per_cta; i++) {
        const unsigned slot = cs.warp_slots[i];
        WarpSlot &w = warps_[slot];
        w.valid = !cs.cta->warpDone(i); // restored CTAs may have done warps
        w.cta_slot = cta_idx;
        w.warp_in_cta = i;
        for (auto *rows : {&busy_regs_, &mem_dest_regs_}) {
            std::vector<uint64_t> &row = (*rows)[slot];
            row.assign(std::max(row.size(), words), 0);
        }
        w.pending_loads = 0;
        w.last_issue = 0;
        markStale(slot);
    }

    used_threads_ += disp.threads_per_cta;
    used_shared_ += disp.shared_bytes_per_cta;
    used_ctas_++;
    live_warps_total_ += cs.live_warps;
    barrier_checks_.push_back(unsigned(cta_idx)); // restored warps may wait
    completeCtaIfDone(cta_idx); // restored CTA may already be finished
    return true;
}

void
ShaderCore::refresh(unsigned slot)
{
    WarpSlot &w = warps_[slot];
    w.stale = false;
    const CtaSlot &cs = cta_slots_[size_t(w.cta_slot)];
    if (!cs.cta || cs.cta->warpAtBarrier(w.warp_in_cta) ||
        cs.cta->warpDone(w.warp_in_cta)) {
        w.verdict = Verdict::Barrier;
        return;
    }
    const InstrTiming &t =
        (*cs.disp->timing)[cs.cta->stack(w.warp_in_cta).pc()];
    const uint64_t *busy = busy_regs_[slot].data();

    bool hazard = t.exit && w.pending_loads > 0;
    for (unsigned i = 0; i < t.n_reads && !hazard; i++)
        hazard = testReg(busy, t.reads[i]);
    for (unsigned i = 0; i < t.n_writes && !hazard; i++)
        hazard = testReg(busy, t.writes[i]);
    w.verdict = hazard ? Verdict::Hazard : Verdict::Ready;
    w.mem_next = t.memAccess();
}

void
ShaderCore::loadPartDone(unsigned slot)
{
    WarpSlot &w = warps_[slot];
    if (!w.valid || w.pending_loads == 0)
        return;
    if (--w.pending_loads > 0) {
        if (w.pending_loads + 1 == cfg_->max_pending_loads_per_warp)
            sched_quiet_[slot % sched_quiet_.size()] = 0; // below the cap
        return;
    }
    // The warp's last load part: release every in-flight load destination.
    std::vector<uint64_t> &busy = busy_regs_[slot];
    std::vector<uint64_t> &mem = mem_dest_regs_[slot];
    for (size_t i = 0; i < mem.size(); i++) {
        busy[i] &= ~mem[i];
        mem[i] = 0;
    }
    markStale(slot);
}

void
ShaderCore::holdWrites(unsigned slot, const InstrTiming &t, cycle_t now,
                       cycle_t at)
{
    if (t.n_writes == 0)
        return;
    Writeback wb{slot, t.n_writes, false, {}};
    for (unsigned i = 0; i < t.n_writes; i++) {
        setReg(busy_regs_[slot].data(), t.writes[i]);
        wb.regs[i] = t.writes[i];
    }
    wb_wheel_.push(wb, now, at);
}

void
ShaderCore::completeCtaIfDone(int cta_slot)
{
    CtaSlot &cs = cta_slots_[size_t(cta_slot)];
    if (!cs.cta || cs.live_warps > 0)
        return;
    used_threads_ -= cs.disp->threads_per_cta;
    used_shared_ -= cs.disp->shared_bytes_per_cta;
    used_ctas_--;
    cs.disp->completed_ctas++;
    cs.cta.reset();
    cs.disp = nullptr;
    cs.warp_slots.clear();
}

void
ShaderCore::issueWarp(unsigned slot, cycle_t now, stats::AerialSampler *sampler)
{
    WarpSlot &w = warps_[slot];
    CtaSlot &cs = cta_slots_[size_t(w.cta_slot)];
    const func::LaunchEnv &env = *cs.disp->env;

    const WarpStepResult res = exec_->stepWarp(*cs.cta, w.warp_in_cta, env);
    w.last_issue = now;
    markStale(slot);

    const InstrTiming &t = (*cs.disp->timing)[res.pc];
    const unsigned lanes = unsigned(__builtin_popcount(res.active));
    counters_.warp_instructions++;
    counters_.thread_instructions += lanes;
    counters_.*kPipeCounter[size_t(t.pipe)] += 1;
    if (sampler)
        sampler->recordIssue(id_, lanes);

    if (res.exited) {
        w.valid = false;
        MLGS_ASSERT(w.pending_loads == 0, "warp exited with loads in flight");
        cs.live_warps--;
        live_warps_total_--;
        barrier_checks_.push_back(unsigned(w.cta_slot));
        completeCtaIfDone(w.cta_slot);
        return;
    }
    if (res.barrier) {
        // The warp now waits; the release happens in the next cycle().
        barrier_checks_.push_back(unsigned(w.cta_slot));
        return;
    }

    // Memory path.
    if (!res.accesses.empty()) {
        // Coalesce per-lane accesses into cache lines.
        const unsigned line = cfg_->l1.line_bytes;
        load_lines_.clear();
        store_lines_.clear();
        for (const auto &acc : res.accesses) {
            auto &list = acc.is_store ? store_lines_ : load_lines_;
            const addr_t la = acc.addr & ~addr_t(line - 1);
            // Also cover accesses straddling a line boundary.
            const addr_t lb = (acc.addr + acc.size - 1) & ~addr_t(line - 1);
            if (std::find(list.begin(), list.end(), la) == list.end())
                list.push_back(la);
            if (lb != la &&
                std::find(list.begin(), list.end(), lb) == list.end())
                list.push_back(lb);
        }

        const auto fetch = [&](addr_t la, bool is_write) {
            MemFetch mf;
            mf.id = next_fetch_id_++;
            mf.line_addr = la;
            mf.bytes = line;
            mf.is_write = is_write;
            mf.is_atomic = t.atomic;
            mf.core_id = id_;
            mf.warp_slot = is_write && !t.atomic ? -1 : int(slot);
            mf.created = now;
            out_queue_.push_back(std::move(mf));
        };
        // Every load line, and every atomic line, is one pending load part.
        const unsigned pending_before = w.pending_loads;
        for (const addr_t la : load_lines_) {
            w.pending_loads++;
            const CacheOutcome outcome = l1_.accessRead(la, now);
            if (outcome == CacheOutcome::Hit)
                wb_wheel_.push(Writeback{slot, 0, true, {}}, now,
                               now + cfg_->l1.hit_latency);
            else if (outcome == CacheOutcome::MissMerged)
                l1_waiters_[la].push_back(slot);
            else
                fetch(la, false);
        }
        for (const addr_t la : store_lines_) {
            l1_.accessWrite(la, now);
            if (t.atomic)
                w.pending_loads++;
            fetch(la, true);
        }

        if (w.pending_loads > pending_before) {
            for (unsigned i = 0; i < t.n_writes; i++) {
                setReg(busy_regs_[slot].data(), t.writes[i]);
                setReg(mem_dest_regs_[slot].data(), t.writes[i]);
            }
        }
        return;
    }

    if (res.shared_accesses > 0) {
        counters_.shared_accesses += res.shared_accesses;
        holdWrites(slot, t, now, now + cfg_->shared_latency);
        return;
    }

    // Arithmetic path (also param-space loads and fully predicated-off
    // memory ops): fixed-latency writeback.
    unsigned lat = cfg_->alu_latency;
    if (t.latency == ptx::LatencyClass::Sfu)
        lat = cfg_->sfu_latency;
    else if (t.latency == ptx::LatencyClass::Sfu2x)
        lat = cfg_->sfu_latency * 2;
    holdWrites(slot, t, now, now + lat);
}

void
ShaderCore::cycle(cycle_t now, stats::AerialSampler *sampler)
{
    // Fast path: nothing resident and nothing in flight.
    if (live_warps_total_ == 0 && wb_wheel_.empty()) {
        if (sampler)
            for (unsigned s = 0; s < cfg_->schedulers_per_core; s++)
                sampler->recordStall(id_, stats::StallKind::Idle);
        return;
    }

    // 1. Retire matured writebacks.
    wb_wheel_.drain(now, [&](const Writeback &wb) {
        if (wb.load_part) {
            loadPartDone(wb.warp);
        } else if (warps_[wb.warp].valid) {
            for (unsigned i = 0; i < wb.n_regs; i++)
                clearReg(busy_regs_[wb.warp].data(), wb.regs[i]);
            markStale(wb.warp);
        }
    });

    // 2. Release barriers completed by last cycle's arrivals and exits or
    //    by a CTA installed since.
    for (const unsigned c : barrier_checks_) {
        CtaSlot &cs = cta_slots_[c];
        if (cs.cta && cs.cta->barrierComplete()) {
            cs.cta->releaseBarrier();
            for (const unsigned slot : cs.warp_slots)
                markStale(slot);
        }
    }
    barrier_checks_.clear();

    // 3. Schedulers issue. A quiet scheduler's warps are unchanged since its
    //    last fruitless scan, so it would find nothing again; the sampler
    //    needs each scheduler's stall reason, so then every scan runs.
    const unsigned nsched = cfg_->schedulers_per_core;
    for (unsigned s = 0; s < nsched; s++) {
        if (sched_quiet_[s] && !sampler)
            continue;
        int chosen = -1;
        stats::StallKind why = stats::StallKind::DataHazard;
        bool any_valid = false, any_eligible = false;
        const auto &owned = sched_owned_[s];

        auto ready = [&](unsigned slot) -> bool {
            WarpSlot &w = warps_[slot];
            if (!w.valid)
                return false;
            any_valid = true;
            if (w.stale)
                refresh(slot);
            if (w.verdict == Verdict::Barrier)
                return false;
            any_eligible = true;
            if (w.verdict == Verdict::Hazard) {
                why = stats::StallKind::DataHazard;
                return false;
            }
            if (w.mem_next &&
                (out_queue_.size() >= kOutQueueLimit ||
                 w.pending_loads >= cfg_->max_pending_loads_per_warp)) {
                why = stats::StallKind::MemStructural;
                return false;
            }
            return true;
        };

        if (cfg_->sched_policy == SchedPolicy::GTO) {
            // Greedy: stay on the last-issued warp while it is ready...
            if (sched_last_[s] >= 0 && ready(unsigned(sched_last_[s])))
                chosen = sched_last_[s];
            // ...then fall back to the oldest (smallest last-issue) ready warp.
            if (chosen < 0) {
                cycle_t best = ~cycle_t(0);
                for (const unsigned slot : owned) {
                    if (warps_[slot].valid && warps_[slot].last_issue < best &&
                        ready(slot)) {
                        best = warps_[slot].last_issue;
                        chosen = int(slot);
                    }
                }
            }
        } else if (!owned.empty()) {
            const unsigned start = sched_rr_[s] % unsigned(owned.size());
            for (size_t i = 0; i < owned.size(); i++) {
                const unsigned slot = owned[(start + i) % owned.size()];
                if (ready(slot)) {
                    chosen = int(slot);
                    sched_rr_[s] = unsigned((start + i + 1) % owned.size());
                    break;
                }
            }
        }

        if (chosen >= 0) {
            sched_last_[s] = chosen;
            issueWarp(unsigned(chosen), now, sampler);
            continue;
        }
        sched_quiet_[s] = 1;
        if (sampler) {
            if (!any_valid)
                sampler->recordStall(id_, stats::StallKind::Idle);
            else if (!any_eligible)
                sampler->recordStall(id_, stats::StallKind::Barrier);
            else
                sampler->recordStall(id_, why);
        }
    }
}

void
ShaderCore::pushResponse(const MemFetch &mf, cycle_t now)
{
    l1_.fill(mf.line_addr, now);

    if (mf.warp_slot >= 0)
        loadPartDone(unsigned(mf.warp_slot));
    const auto it = l1_waiters_.find(mf.line_addr);
    if (it != l1_waiters_.end()) {
        for (const unsigned slot : it->second)
            loadPartDone(slot);
        l1_waiters_.erase(it);
    }
}

MemFetch
ShaderCore::popOutgoing()
{
    MemFetch mf = std::move(out_queue_.front());
    out_queue_.pop_front();
    if (out_queue_.size() + 1 == kOutQueueLimit) // dropped below the limit
        std::fill(sched_quiet_.begin(), sched_quiet_.end(), 0);
    return mf;
}

bool
ShaderCore::busy() const
{
    return live_warps_total_ > 0 || !out_queue_.empty() || !wb_wheel_.empty();
}

void
ShaderCore::assertDrained() const
{
    MLGS_ASSERT(wb_wheel_.bucketsEmpty(), "core ", id_,
                ": writebacks left on a drained device");
    MLGS_ASSERT(l1_waiters_.empty(), "core ", id_,
                ": L1 waiters left on a drained device");
    MLGS_ASSERT(l1_.mshrInUse() == 0, "core ", id_, ": ", l1_.mshrInUse(),
                " L1 MSHRs in use on a drained device");
}

} // namespace mlgs::timing
