#include "timing/core.h"

#include <algorithm>

namespace mlgs::timing
{

using func::WarpStepResult;
using ptx::Op;

ShaderCore::ShaderCore(unsigned id, const GpuConfig &cfg,
                       func::Interpreter &interp)
    : id_(id), cfg_(&cfg), interp_(&interp), l1_(cfg.l1)
{
    cta_slots_.resize(cfg.max_ctas_per_core);
    warps_.resize(cfg.max_warps_per_core);
    sched_rr_.assign(cfg.schedulers_per_core, 0);
    sched_last_.assign(cfg.schedulers_per_core, -1);
    sched_owned_.resize(cfg.schedulers_per_core);
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

    // Free warp slots.
    std::vector<unsigned> slots;
    for (unsigned w = 0; w < warps_.size() && slots.size() < disp.warps_per_cta;
         w++)
        if (!warps_[w].valid)
            slots.push_back(w);
    if (slots.size() < disp.warps_per_cta)
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
            /*alloc_state=*/!interp_->warpStreamReplayActive());
    }
    cs.disp = &disp;
    cs.warp_slots = slots;
    cs.live_warps = 0;
    for (unsigned w = 0; w < cs.cta->numWarps(); w++)
        if (!cs.cta->warpDone(w))
            cs.live_warps++;

    MLGS_ASSERT(cs.cta->numWarps() == disp.warps_per_cta, "warp count mismatch");
    for (unsigned i = 0; i < disp.warps_per_cta; i++) {
        WarpSlot &w = warps_[slots[i]];
        w.valid = !cs.cta->warpDone(i); // restored CTAs may have done warps
        w.cta_slot = cta_idx;
        w.warp_in_cta = i;
        w.busy_regs.clear();
        w.mem_dest_regs.clear();
        w.pending_loads = 0;
        w.last_issue = 0;
    }

    used_threads_ += disp.threads_per_cta;
    used_shared_ += disp.shared_bytes_per_cta;
    used_ctas_++;
    live_warps_total_ += cs.live_warps;
    completeCtaIfDone(cta_idx); // restored CTA may already be finished
    return true;
}

bool
ShaderCore::warpEligible(const WarpSlot &w) const
{
    if (!w.valid)
        return false;
    const CtaSlot &cs = cta_slots_[size_t(w.cta_slot)];
    return cs.cta && !cs.cta->warpAtBarrier(w.warp_in_cta) &&
           !cs.cta->warpDone(w.warp_in_cta);
}

bool
ShaderCore::warpReady(const WarpSlot &w, stats::StallKind &why) const
{
    const CtaSlot &cs = cta_slots_[size_t(w.cta_slot)];
    const ptx::KernelDef &k = *cs.disp->env->kernel;
    const auto &st = cs.cta->stack(w.warp_in_cta);
    const ptx::Instr &ins = k.instrs[st.pc()];

    if (ins.isExit() && w.pending_loads > 0) {
        why = stats::StallKind::DataHazard;
        return false;
    }
    for (const int r : ins.src_regs)
        if (w.busy_regs.count(r)) {
            why = stats::StallKind::DataHazard;
            return false;
        }
    for (const int r : ins.dst_regs)
        if (w.busy_regs.count(r)) {
            why = stats::StallKind::DataHazard;
            return false;
        }
    if (ins.isMemAccess()) {
        if (out_queue_.size() >= 256 ||
            w.pending_loads >= cfg_->max_pending_loads_per_warp) {
            why = stats::StallKind::MemStructural;
            return false;
        }
    }
    return true;
}

void
ShaderCore::finishLoads(WarpSlot &w)
{
    for (const int r : w.mem_dest_regs)
        w.busy_regs.erase(r);
    w.mem_dest_regs.clear();
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

    const WarpStepResult res = interp_->stepWarp(*cs.cta, w.warp_in_cta, env);
    w.last_issue = now;

    const unsigned lanes = unsigned(__builtin_popcount(res.active));
    counters_.issued_instructions++;
    counters_.thread_instructions += lanes;
    if (sampler)
        sampler->recordIssue(id_, lanes);

    const ptx::Instr &ins = *res.ins;
    switch (ins.op) {
      case Op::Sin: case Op::Cos: case Op::Ex2: case Op::Lg2:
      case Op::Rcp: case Op::Rsqrt: case Op::Sqrt:
        counters_.sfu++;
        break;
      case Op::Ld: case Op::St: case Op::Atom: case Op::Red: case Op::Tex:
        counters_.mem++;
        break;
      default:
        counters_.alu++;
        break;
    }

    if (res.exited) {
        w.valid = false;
        MLGS_ASSERT(w.pending_loads == 0, "warp exited with loads in flight");
        cs.live_warps--;
        live_warps_total_--;
        completeCtaIfDone(w.cta_slot);
        return;
    }
    if (res.barrier)
        return; // warp now waits; barrier release happens in cycle()

    // Memory path.
    if (!res.accesses.empty()) {
        // Coalesce per-lane accesses into cache lines.
        const unsigned line = cfg_->l1.line_bytes;
        std::vector<addr_t> lines;
        std::vector<addr_t> store_lines;
        for (const auto &acc : res.accesses) {
            auto &list = acc.is_store ? store_lines : lines;
            const addr_t la = acc.addr & ~addr_t(line - 1);
            // Also cover accesses straddling a line boundary.
            const addr_t lb = (acc.addr + acc.size - 1) & ~addr_t(line - 1);
            if (std::find(list.begin(), list.end(), la) == list.end())
                list.push_back(la);
            if (lb != la &&
                std::find(list.begin(), list.end(), lb) == list.end())
                list.push_back(lb);
        }

        bool any_load_part = false;
        for (const addr_t la : lines) {
            switch (l1_.accessRead(la, now)) {
              case CacheOutcome::Hit:
                w.pending_loads++;
                any_load_part = true;
                wb_pipe_.push(Writeback{slot, {}, true},
                              now + cfg_->l1.hit_latency);
                break;
              case CacheOutcome::MissMerged:
                w.pending_loads++;
                any_load_part = true;
                l1_waiters_[la].push_back(slot);
                break;
              case CacheOutcome::Miss:
              case CacheOutcome::ReservationFail:
              default: {
                w.pending_loads++;
                any_load_part = true;
                MemFetch mf;
                mf.id = next_fetch_id_++;
                mf.line_addr = la;
                mf.bytes = line;
                mf.is_write = false;
                mf.is_atomic = ins.op == Op::Atom || ins.op == Op::Red;
                mf.core_id = id_;
                mf.warp_slot = int(slot);
                mf.created = now;
                out_queue_.push_back(std::move(mf));
                break;
              }
            }
        }
        for (const addr_t la : store_lines) {
            l1_.accessWrite(la, now);
            MemFetch mf;
            mf.id = next_fetch_id_++;
            mf.line_addr = la;
            mf.bytes = line;
            mf.is_write = true;
            mf.is_atomic = ins.op == Op::Atom || ins.op == Op::Red;
            mf.core_id = id_;
            mf.warp_slot = mf.is_atomic ? int(slot) : -1;
            mf.created = now;
            if (mf.is_atomic) {
                w.pending_loads++;
                any_load_part = true;
            }
            out_queue_.push_back(std::move(mf));
        }

        if (any_load_part && !ins.dst_regs.empty()) {
            for (const int r : ins.dst_regs) {
                w.busy_regs.insert(r);
                w.mem_dest_regs.push_back(r);
            }
        }
        return;
    }

    if (res.shared_accesses > 0) {
        counters_.shared_accesses += res.shared_accesses;
        if (!ins.dst_regs.empty()) {
            for (const int r : ins.dst_regs)
                w.busy_regs.insert(r);
            wb_pipe_.push(Writeback{slot, ins.dst_regs, false},
                          now + cfg_->shared_latency);
        }
        return;
    }

    // Arithmetic path: fixed-latency writeback.
    if (!ins.dst_regs.empty()) {
        unsigned lat = cfg_->alu_latency;
        switch (ins.op) {
          case Op::Sin: case Op::Cos: case Op::Ex2: case Op::Lg2:
          case Op::Rcp: case Op::Rsqrt: case Op::Sqrt:
            lat = cfg_->sfu_latency;
            break;
          case Op::Div:
            lat = isFloat(ins.type) ? cfg_->sfu_latency
                                    : cfg_->sfu_latency * 2;
            break;
          case Op::Ld:
            // Param-space load resolved without a memory access.
            lat = cfg_->alu_latency;
            break;
          default:
            break;
        }
        for (const int r : ins.dst_regs)
            w.busy_regs.insert(r);
        wb_pipe_.push(Writeback{slot, ins.dst_regs, false}, now + lat);
    }
}

void
ShaderCore::cycle(cycle_t now, stats::AerialSampler *sampler)
{
    // Fast path: nothing resident and nothing in flight.
    if (live_warps_total_ == 0 && wb_pipe_.empty()) {
        if (sampler)
            for (unsigned s = 0; s < cfg_->schedulers_per_core; s++)
                sampler->recordStall(id_, stats::StallKind::Idle);
        return;
    }

    // 1. Retire matured writebacks.
    while (wb_pipe_.ready(now)) {
        const Writeback wb = wb_pipe_.pop();
        WarpSlot &w = warps_[wb.warp];
        if (wb.load_part) {
            if (w.valid && w.pending_loads > 0 && --w.pending_loads == 0)
                finishLoads(w);
        } else if (w.valid) {
            for (const int r : wb.regs)
                w.busy_regs.erase(r);
        }
    }

    // 2. Release completed barriers.
    for (auto &cs : cta_slots_)
        if (cs.cta && cs.cta->barrierComplete())
            cs.cta->releaseBarrier();

    // 3. Schedulers issue.
    const unsigned nsched = cfg_->schedulers_per_core;
    for (unsigned s = 0; s < nsched; s++) {
        int chosen = -1;
        stats::StallKind why = stats::StallKind::DataHazard;
        bool any_valid = false, any_eligible = false;
        const auto &owned = sched_owned_[s];

        auto ready = [&](unsigned slot) -> bool {
            const WarpSlot &w = warps_[slot];
            if (!w.valid)
                return false;
            any_valid = true;
            if (!warpEligible(w))
                return false;
            any_eligible = true;
            stats::StallKind w_why = stats::StallKind::DataHazard;
            if (warpReady(w, w_why))
                return true;
            why = w_why;
            return false;
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
        } else if (sampler) {
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

    auto wake = [&](unsigned slot) {
        WarpSlot &w = warps_[slot];
        if (w.valid && w.pending_loads > 0 && --w.pending_loads == 0)
            finishLoads(w);
    };

    if (mf.warp_slot >= 0)
        wake(unsigned(mf.warp_slot));
    const auto it = l1_waiters_.find(mf.line_addr);
    if (it != l1_waiters_.end()) {
        for (const unsigned slot : it->second)
            wake(slot);
        l1_waiters_.erase(it);
    }
}

MemFetch
ShaderCore::popOutgoing()
{
    MemFetch mf = std::move(out_queue_.front());
    out_queue_.pop_front();
    return mf;
}

bool
ShaderCore::busy() const
{
    return live_warps_total_ > 0 || !out_queue_.empty() || !wb_pipe_.empty();
}

} // namespace mlgs::timing
