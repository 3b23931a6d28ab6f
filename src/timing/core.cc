#include "timing/core.h"

#include <algorithm>

#include "func/compiled/exec.h"

namespace mlgs::timing
{

using func::IssueRecord;
using ptx::InstrTiming;

namespace
{

void
setReg(uint64_t *row, uint32_t r)
{
    row[r / 64] |= uint64_t(1) << (r % 64);
}

/** Outgoing requests at which memory instructions stop issuing. */
constexpr size_t kOutQueueLimit = 256;

constexpr unsigned kStallKinds = unsigned(stats::StallKind::kCount);

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
        // Free the node first: `f` may push, which may grow the pool.
        const Writeback wb = nodes_[idx].wb;
        const uint32_t next = nodes_[idx].next;
        nodes_[idx].next = free_;
        free_ = idx;
        size_--;
        f(wb);
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
                          cfg.shared_latency, cfg.l1.hit_latency})),
      l1_waiters_(cfg.l1.mshr_entries)
{
    cta_slots_.resize(cfg.max_ctas_per_core);
    warps_.resize(cfg.max_warps_per_core);
    reg_ready_.resize(warps_.size());
    mem_dest_regs_.resize(warps_.size());
    sched_rr_.assign(cfg.schedulers_per_core, 0);
    sched_last_.assign(cfg.schedulers_per_core, -1);
    sched_owned_.resize(cfg.schedulers_per_core);
    sched_wake_.assign(cfg.schedulers_per_core, 0);
    stall_spans_.resize(cfg.schedulers_per_core);
    age_head_.assign(cfg.schedulers_per_core, kNoSlot);
    age_tail_.assign(cfg.schedulers_per_core, kNoSlot);
    for (unsigned slot = 0; slot < warps_.size(); slot++) {
        sched_owned_[slot % cfg.schedulers_per_core].push_back(slot);
        ageLinkBefore(slot, kNoSlot);
    }
}

void
ShaderCore::ageUnlink(unsigned slot)
{
    WarpSlot &w = warps_[slot];
    const unsigned s = slot % cfg_->schedulers_per_core;
    (w.age_prev == kNoSlot ? age_head_[s] : warps_[w.age_prev].age_next) =
        w.age_next;
    (w.age_next == kNoSlot ? age_tail_[s] : warps_[w.age_next].age_prev) =
        w.age_prev;
    w.age_prev = w.age_next = kNoSlot;
}

void
ShaderCore::ageLinkBefore(unsigned slot, unsigned next)
{
    WarpSlot &w = warps_[slot];
    const unsigned s = slot % cfg_->schedulers_per_core;
    const unsigned prev =
        next == kNoSlot ? age_tail_[s] : warps_[next].age_prev;
    w.age_prev = prev;
    w.age_next = next;
    (prev == kNoSlot ? age_head_[s] : warps_[prev].age_next) = slot;
    (next == kNoSlot ? age_tail_[s] : warps_[next].age_prev) = slot;
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
        if (!cta_slots_[i].disp) {
            cta_idx = int(i);
            break;
        }
    }
    if (cta_idx < 0)
        return false;

    // Cores that never run a CTA never touch chunk buffers.
    if (chunks_.empty())
        chunks_.resize(warps_.size());
    const uint64_t linear = disp.next_cta++;
    CtaSlot &cs = cta_slots_[size_t(cta_idx)];
    cs.disp = &disp;
    cs.linear = linear;
    const func::WarpStreamCache *replay = exec_->warpStreamReplay();
    const uint64_t pidx = linear - disp.preload_base;
    if (linear >= disp.preload_base && pidx < disp.preloaded.size() &&
        disp.preloaded[pidx]) {
        MLGS_REQUIRE(!replay, "warp stream replay cannot resume "
                              "checkpointed CTAs");
        cs.cta = std::move(disp.preloaded[pidx]); // checkpoint-restored state
        cs.src = Source::Step;
    } else if (replay) {
        cs.src = Source::Replay;
    } else {
        const Dim3 cta_id = unflatten(linear, disp.grid);
        if (cs.cta)
            cs.cta->reset(*disp.env->kernel, disp.grid, disp.block, cta_id);
        else
            cs.cta = std::make_unique<func::CtaExec>(
                *disp.env->kernel, disp.grid, disp.block, cta_id);
        cs.src = disp.step_at_issue ? Source::Step : Source::Produce;
    }
    const func::CtaExec *cta =
        cs.src == Source::Replay ? nullptr : cs.cta.get();
    MLGS_ASSERT(!cta || cta->numWarps() == disp.warps_per_cta,
                "warp count mismatch");
    for (unsigned w = 0;
         w < warps_.size() && cs.warp_slots.size() < disp.warps_per_cta; w++)
        if (!warps_[w].valid)
            cs.warp_slots.push_back(w);
    cs.live_warps = 0;
    cs.at_barrier = 0;

    const size_t regs = disp.env->kernel->reg_types.size();
    for (unsigned i = 0; i < disp.warps_per_cta; i++) {
        const unsigned slot = cs.warp_slots[i];
        WarpSlot &w = warps_[slot];
        // Restored CTAs may have done warps and warps waiting at a barrier.
        w.valid = !cta || !cta->warpDone(i);
        w.at_barrier = w.valid && cta && cta->warpAtBarrier(i);
        cs.live_warps += w.valid;
        cs.at_barrier += w.at_barrier;
        w.cta_slot = cta_idx;
        w.warp_in_cta = i;
        if (cs.src == Source::Replay) {
            w.stream = &replay->stream(disp.env->launch_seq, linear, i);
        } else {
            chunks_[slot].clear();
            w.stream = &chunks_[slot];
        }
        w.pos = 0;
        std::vector<cycle_t> &ready = reg_ready_[slot];
        ready.assign(std::max(ready.size(), regs), 0);
        std::vector<uint64_t> &mem = mem_dest_regs_[slot];
        mem.assign(std::max(mem.size(), (regs + 63) / 64), 0);
        w.writes_until = 0;
        w.pending_loads = 0;
        w.last_issue = 0;
        // Back into the age-0 prefix, in slot order.
        ageUnlink(slot);
        unsigned next = age_head_[slot % cfg_->schedulers_per_core];
        while (next != kNoSlot && warps_[next].last_issue == 0 && next < slot)
            next = warps_[next].age_next;
        ageLinkBefore(slot, next);
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
ShaderCore::produce(unsigned slot)
{
    WarpSlot &w = warps_[slot];
    const CtaSlot &cs = cta_slots_[size_t(w.cta_slot)];
    const func::LaunchEnv &env = *cs.disp->env;
    MLGS_REQUIRE(cs.src == Source::Produce, "warp stream replay: the stream "
                 "of CTA ", cs.linear, " warp ", w.warp_in_cta, " in ",
                 env.kernel->name, " ends before the warp exits");
    func::CtaExec &cta = *cs.cta;
    const unsigned warp = w.warp_in_cta;
    // The warp's cursor ran dry past its bar.sync record, so the timing
    // barrier released: every live warp of the CTA consumed its bar record,
    // and each of them stopped at the functional barrier when producing it.
    if (cta.warpAtBarrier(warp)) {
        MLGS_ASSERT(cta.barrierComplete(), "functional barrier of CTA ",
                    cs.linear, " in ", env.kernel->name,
                    " released before every warp arrived");
        cta.releaseBarrier();
    }
    func::IssueStream &chunk = chunks_[slot];
    chunk.clear();
    chunk.recs.reserve(kIssueChunk);
    func::IssueSink sink(chunk, cfg_->l1.line_bytes);
    func::compiled::runWarp(*exec_, cta, warp, env,
                            cta.warpInstrCount(warp) + kIssueChunk, nullptr,
                            &sink);
    MLGS_ASSERT(!chunk.recs.empty(), "no instruction produced for a live warp");
    w.pos = 0;
}

uint32_t
ShaderCore::nextPc(unsigned slot)
{
    WarpSlot &w = warps_[slot];
    const CtaSlot &cs = cta_slots_[size_t(w.cta_slot)];
    if (cs.src == Source::Step)
        return cs.cta->stack(w.warp_in_cta).pc();
    if (w.pos == w.stream->recs.size())
        produce(slot);
    return w.stream->recs[w.pos].pc;
}

void
ShaderCore::refresh(unsigned slot)
{
    WarpSlot &w = warps_[slot];
    w.stale = false;
    const CtaSlot &cs = cta_slots_[size_t(w.cta_slot)];
    const InstrTiming &t = (*cs.disp->timing)[nextPc(slot)];
    const cycle_t *ready = reg_ready_[slot].data();

    cycle_t at = t.exit && w.pending_loads > 0 ? kNever : 0;
    for (unsigned i = 0; i < t.n_reads; i++)
        at = std::max(at, ready[t.reads[i]]);
    for (unsigned i = 0; i < t.n_writes; i++)
        at = std::max(at, ready[t.writes[i]]);
    w.ready_at = at;
    w.mem_next = t.memAccess();
}

void
ShaderCore::landWrite(unsigned slot, uint32_t r, cycle_t now)
{
    cycle_t &ready = reg_ready_[slot][r];
    if (ready <= now)
        return;
    // A fixed-latency write it overtakes still lands at its own cycle.
    if (ready != kNever)
        wb_wheel_.push(Writeback{slot, r}, now, ready);
    ready = now;
}

void
ShaderCore::loadPartDone(unsigned slot, cycle_t now)
{
    WarpSlot &w = warps_[slot];
    if (!w.valid || w.pending_loads == 0)
        return;
    if (--w.pending_loads > 0) {
        if (w.pending_loads + 1 == cfg_->max_pending_loads_per_warp)
            sched_wake_[slot % sched_wake_.size()] = 0; // below the cap
        return;
    }
    // The warp's last load part: every in-flight load destination lands.
    std::vector<uint64_t> &mem = mem_dest_regs_[slot];
    for (size_t i = 0; i < mem.size(); i++) {
        for (uint64_t bits = mem[i]; bits; bits &= bits - 1)
            landWrite(slot, uint32_t(i * 64 + unsigned(__builtin_ctzll(bits))),
                      now);
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
    at = std::max(at, now + 1);
    cycle_t *ready = reg_ready_[slot].data();
    for (unsigned i = 0; i < t.n_writes; i++)
        ready[t.writes[i]] = at;
    WarpSlot &w = warps_[slot];
    w.writes_until = std::max(w.writes_until, at);
}

void
ShaderCore::releaseBarrier(unsigned cta_slot)
{
    CtaSlot &cs = cta_slots_[cta_slot];
    cs.at_barrier = 0;
    for (const unsigned slot : cs.warp_slots) {
        // A slot freed by an exited warp may hold another CTA's warp now.
        if (warps_[slot].cta_slot == int(cta_slot))
            warps_[slot].at_barrier = false;
        markStale(slot);
    }
    // A stepped CTA's functional barrier releases with the timing one; a
    // producing CTA's releases when a warp next runs ahead (produce()).
    if (cs.src == Source::Step)
        cs.cta->releaseBarrier();
}

void
ShaderCore::completeCtaIfDone(int cta_slot)
{
    CtaSlot &cs = cta_slots_[size_t(cta_slot)];
    if (!cs.disp || cs.live_warps > 0)
        return;
    used_threads_ -= cs.disp->threads_per_cta;
    used_shared_ -= cs.disp->shared_bytes_per_cta;
    used_ctas_--;
    cs.disp->completed_ctas++;
    // The next CTA of the same launch reuses the CtaExec's buffers; once
    // the launch has no CTA left to install, they go back to the heap.
    if (cs.disp->allIssued())
        cs.cta.reset();
    cs.disp = nullptr;
    cs.warp_slots.clear();
}

void
ShaderCore::issueWarp(unsigned slot, cycle_t now)
{
    WarpSlot &w = warps_[slot];
    CtaSlot &cs = cta_slots_[size_t(w.cta_slot)];
    const func::LaunchEnv &env = *cs.disp->env;

    if (cs.src == Source::Step) {
        exec_->stepWarp(*cs.cta, w.warp_in_cta, env, step_);
        chunks_[slot].clear();
        chunks_[slot].appendStep(step_, cfg_->l1.line_bytes);
        w.pos = 0;
    }
    // Otherwise refresh() read this record's pc, so the cursor holds it.
    MLGS_ASSERT(w.pos < w.stream->recs.size(), "issue from a dry cursor");
    const func::IssueStream &stream = *w.stream;
    const IssueRecord &rec = stream.recs[w.pos++];
    if (func::WarpStreamCache *cap = exec_->warpStreamRecord())
        cap->append(env.launch_seq, cs.disp->total_ctas,
                    cs.disp->warps_per_cta, cs.linear, w.warp_in_cta, rec,
                    stream.lines.data());

    w.last_issue = now;
    // The youngest age goes to the tail. At cycle 0 every age is still 0,
    // so slot order already sorts the list.
    if (now > 0 && age_tail_[slot % cfg_->schedulers_per_core] != slot) {
        ageUnlink(slot);
        ageLinkBefore(slot, kNoSlot);
    }
    markStale(slot);

    const InstrTiming &t = (*cs.disp->timing)[rec.pc];
    const unsigned lanes = unsigned(__builtin_popcount(rec.active));
    counters_.warp_instructions++;
    counters_.thread_instructions += lanes;
    counters_.*kPipeCounter[size_t(t.pipe)] += 1;
    issues_by_lanes_[lanes]++;

    if (rec.exited) {
        // The warp does not wait for its fixed-latency writes: each one
        // still in flight goes to the wheel and lands on whatever warp
        // holds the slot then.
        if (w.writes_until > now) {
            const std::vector<cycle_t> &ready = reg_ready_[slot];
            for (uint32_t r = 0; r < ready.size(); r++)
                if (ready[r] > now)
                    wb_wheel_.push(Writeback{slot, r}, now, ready[r]);
        }
        w.valid = false;
        MLGS_ASSERT(w.pending_loads == 0, "warp exited with loads in flight");
        cs.live_warps--;
        live_warps_total_--;
        barrier_checks_.push_back(unsigned(w.cta_slot));
        completeCtaIfDone(w.cta_slot);
        return;
    }
    if (rec.barrier) {
        // The warp now waits; the release happens in the next cycle().
        w.at_barrier = true;
        cs.at_barrier++;
        barrier_checks_.push_back(unsigned(w.cta_slot));
        return;
    }

    // Memory path: the record's lines, coalesced for the L1 line size.
    const auto load_lines = stream.loadLines(rec);
    const auto store_lines = stream.storeLines(rec);
    if (!load_lines.empty() || !store_lines.empty()) {
        const unsigned line = cfg_->l1.line_bytes;
        const auto fetch = [&](addr_t la, bool is_write) {
            MemFetch mf;
            mf.line_addr = la;
            mf.bytes = line;
            mf.is_write = is_write;
            mf.is_atomic = t.atomic;
            mf.core_id = id_;
            mf.warp_slot = is_write && !t.atomic ? -1 : int(slot);
            out_queue_.push_back(std::move(mf));
        };
        // Every load line, and every atomic line, is one pending load part.
        const unsigned pending_before = w.pending_loads;
        for (const addr_t la : load_lines) {
            w.pending_loads++;
            unsigned mshr = 0;
            const CacheOutcome outcome = l1_.accessRead(la, now, &mshr);
            if (outcome == CacheOutcome::Hit)
                wb_wheel_.push(Writeback{slot, kLoadPart}, now,
                               now + cfg_->l1.hit_latency);
            else if (outcome == CacheOutcome::MissMerged)
                l1_waiters_.push(mshr, slot);
            else
                fetch(la, false);
        }
        for (const addr_t la : store_lines) {
            l1_.accessWrite(la, now);
            if (t.atomic)
                w.pending_loads++;
            fetch(la, true);
        }

        if (w.pending_loads > pending_before) {
            for (unsigned i = 0; i < t.n_writes; i++) {
                reg_ready_[slot][t.writes[i]] = kNever;
                setReg(mem_dest_regs_[slot].data(), t.writes[i]);
            }
        }
        return;
    }

    if (rec.shared_accesses > 0) {
        counters_.shared_accesses += rec.shared_accesses;
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
ShaderCore::stallFrom(unsigned s, stats::StallKind kind, cycle_t now)
{
    StallSpan &span = stall_spans_[s];
    if (kind == span.kind)
        return;
    if (span.kind != stats::StallKind::Idle)
        stalled_slots_[size_t(span.kind)] += now - span.since;
    span = {kind, now};
}

void
ShaderCore::addAerialCounts(stats::AerialBucket &a, cycle_t now) const
{
    a.instructions += counters_.warp_instructions;
    a.core_instructions.push_back(counters_.warp_instructions);
    a.core_thread_instructions.push_back(counters_.thread_instructions);
    for (unsigned w = 0; w <= kWarpSize; w++)
        a.lane_histogram[w] += issues_by_lanes_[w];
    for (size_t k = 0; k < stalled_slots_.size(); k++)
        a.stalls[k] += stalled_slots_[k];
    for (const StallSpan &span : stall_spans_)
        if (span.kind != stats::StallKind::Idle)
            a.stalls[size_t(span.kind)] += now - span.since;
}

bool
ShaderCore::cycle(cycle_t now)
{
    // Fast path: nothing resident and nothing in flight.
    if (live_warps_total_ == 0 && wb_wheel_.empty())
        return false;
    const unsigned live_before = live_warps_total_;

    // 1. Land matured L1-hit load parts and orphaned writes.
    wb_wheel_.drain(now, [&](const Writeback &wb) {
        if (wb.reg == kLoadPart) {
            loadPartDone(wb.warp, now);
        } else if (warps_[wb.warp].valid) {
            landWrite(wb.warp, wb.reg, now);
            markStale(wb.warp);
        }
    });

    // 2. Release barriers completed by last cycle's arrivals and exits or
    //    by a CTA installed since: every live warp of the CTA waits.
    for (const unsigned c : barrier_checks_) {
        const CtaSlot &cs = cta_slots_[c];
        if (cs.disp && cs.at_barrier > 0 && cs.at_barrier == cs.live_warps)
            releaseBarrier(c);
    }
    barrier_checks_.clear();

    // 3. Schedulers issue. A scheduler before its wake cycle has warps
    //    unchanged since its last fruitless scan, none of whose writes has
    //    landed since, so a scan would find nothing again, for the same
    //    reason: its stall span goes on.
    const unsigned nsched = cfg_->schedulers_per_core;
    for (unsigned s = 0; s < nsched; s++) {
        if (now < sched_wake_[s])
            continue;
        int chosen = -1;
        // A fruitless scan stalls for the reason of its blocked warp of
        // highest rank: slot order under GTO, visit order under LRR. `why`
        // keeps the largest rank * kStallKinds + reason (no branch).
        unsigned why = 0;
        bool any_valid = false, any_eligible = false;
        cycle_t wake = kNever;
        const auto &owned = sched_owned_[s];

        const auto block = [&](stats::StallKind kind, unsigned rank) {
            why = std::max(why, rank * kStallKinds + unsigned(kind));
            return false;
        };
        auto ready = [&](unsigned slot, unsigned rank) -> bool {
            WarpSlot &w = warps_[slot];
            if (!w.valid)
                return false;
            any_valid = true;
            if (w.at_barrier)
                return false;
            any_eligible = true;
            if (w.stale)
                refresh(slot);
            if (now < w.ready_at) {
                wake = std::min(wake, w.ready_at);
                return block(stats::StallKind::DataHazard, rank);
            }
            if (w.mem_next &&
                (out_queue_.size() >= kOutQueueLimit ||
                 w.pending_loads >= cfg_->max_pending_loads_per_warp))
                return block(stats::StallKind::MemStructural, rank);
            return true;
        };

        if (cfg_->sched_policy == SchedPolicy::GTO) {
            // Greedy: stay on the last-issued warp while it is ready...
            if (sched_last_[s] >= 0 &&
                ready(unsigned(sched_last_[s]), unsigned(sched_last_[s])))
                chosen = sched_last_[s];
            // ...then fall back to the oldest ready warp: the first ready
            // one in age order, where ties go to the lower slot. A
            // fruitless walk visits every owned slot.
            for (unsigned slot = age_head_[s]; chosen < 0 && slot != kNoSlot;
                 slot = warps_[slot].age_next)
                if (ready(slot, slot))
                    chosen = int(slot);
        } else if (!owned.empty()) {
            const unsigned start = sched_rr_[s] % unsigned(owned.size());
            for (size_t i = 0; i < owned.size(); i++) {
                const unsigned slot = owned[(start + i) % owned.size()];
                if (ready(slot, unsigned(i))) {
                    chosen = int(slot);
                    sched_rr_[s] = unsigned((start + i + 1) % owned.size());
                    break;
                }
            }
        }

        if (chosen >= 0) {
            sched_last_[s] = chosen;
            stallFrom(s, stats::StallKind::Idle, now);
            issueWarp(unsigned(chosen), now);
            continue;
        }
        sched_wake_[s] = wake;
        stallFrom(s,
                  !any_valid      ? stats::StallKind::Idle
                  : !any_eligible ? stats::StallKind::Barrier
                                  : stats::StallKind(why % kStallKinds),
                  now);
    }
    return live_warps_total_ < live_before;
}

void
ShaderCore::pushResponse(const MemFetch &mf, cycle_t now)
{
    const unsigned mshr = l1_.fill(mf.line_addr, now);

    if (mf.warp_slot >= 0)
        loadPartDone(unsigned(mf.warp_slot), now);
    if (mshr != TagCache::kNoMshr)
        l1_waiters_.drain(mshr,
                          [&](unsigned slot) { loadPartDone(slot, now); });
}

MemFetch
ShaderCore::popOutgoing()
{
    MemFetch mf = out_queue_.pop_front();
    if (out_queue_.size() + 1 == kOutQueueLimit) // dropped below the limit
        std::fill(sched_wake_.begin(), sched_wake_.end(), 0);
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
                ": wheel events left on a drained device");
    MLGS_ASSERT(l1_waiters_.empty(), "core ", id_,
                ": L1 waiters left on a drained device");
    MLGS_ASSERT(l1_.mshrInUse() == 0, "core ", id_, ": ", l1_.mshrInUse(),
                " L1 MSHRs in use on a drained device");
    for (const StallSpan &span : stall_spans_)
        MLGS_ASSERT(span.kind == stats::StallKind::Idle, "core ", id_,
                    ": a scheduler stalls with no live warp");
}

void
ShaderCore::assertAgeOrder() const
{
    for (unsigned s = 0; s < age_head_.size(); s++) {
        size_t n = 0;
        unsigned prev = kNoSlot;
        for (unsigned slot = age_head_[s]; slot != kNoSlot;
             slot = warps_[slot].age_next) {
            MLGS_ASSERT(slot < warps_.size() && slot % age_head_.size() == s,
                        "core ", id_, " scheduler ", s,
                        ": age list holds slot ", slot, " it does not own");
            MLGS_ASSERT(n < sched_owned_[s].size(), "core ", id_,
                        " scheduler ", s, ": age list is longer than its ",
                        sched_owned_[s].size(), " owned slots");
            MLGS_ASSERT(warps_[slot].age_prev == prev, "core ", id_,
                        " scheduler ", s, ": age list links broken at slot ",
                        slot);
            MLGS_ASSERT(prev == kNoSlot ||
                            std::pair(warps_[prev].last_issue, prev) <
                                std::pair(warps_[slot].last_issue, slot),
                        "core ", id_, " scheduler ", s, ": slot ", slot,
                        " is out of (last_issue, slot) order");
            prev = slot;
            n++;
        }
        MLGS_ASSERT(age_tail_[s] == prev && n == sched_owned_[s].size(),
                    "core ", id_, " scheduler ", s, ": age list holds ", n,
                    " of ", sched_owned_[s].size(), " owned slots");
    }
}

} // namespace mlgs::timing
