#include "timing/gpu.h"

#include <algorithm>
#include <limits>

namespace mlgs::timing
{

namespace
{
constexpr cycle_t kNoDeadline = std::numeric_limits<cycle_t>::max();
} // namespace

GpuModel::GpuModel(const GpuConfig &cfg, func::Executor &exec) : cfg_(cfg)
{
    for (unsigned c = 0; c < cfg_.num_cores; c++)
        cores_.push_back(std::make_unique<ShaderCore>(c, cfg_, exec));
    for (unsigned p = 0; p < cfg_.num_partitions; p++)
        partitions_.push_back(std::make_unique<MemPartition>(cfg_, p));
}

GpuModel::~GpuModel() = default;

bool
GpuModel::anythingInFlight() const
{
    for (const auto &core : cores_)
        if (core->busy())
            return true;
    for (const auto &part : partitions_)
        if (part->busy())
            return true;
    return !to_partition_.empty() || !to_core_.empty();
}

void
GpuModel::cycleOnce(cycle_t now, stats::AerialSampler *sampler)
{
    // 1. Shader cores (issue + writeback), in ascending core-id order.
    for (auto &core : cores_) {
        if (core->liveWarps())
            live_.core_active_cycles++;
        else
            live_.core_idle_cycles++;
        // An idle core's cycle is a no-op, apart from the sampler's stalls.
        if (sampler || core->busy())
            core->cycle(now, sampler);
    }

    // 2. Core -> interconnect (all outgoing requests enter the crossbar;
    //    per-partition acceptance below models the bandwidth limit).
    for (auto &core : cores_) {
        unsigned moved = 0;
        while (core->hasOutgoing() && moved < 2) {
            MemFetch mf = core->popOutgoing();
            mf.partition = unsigned((mf.line_addr / cfg_.l2.line_bytes) %
                                    cfg_.num_partitions);
            live_.icnt_flits += (mf.bytes + 31) / 32;
            to_partition_.push(std::move(mf), now + cfg_.icnt_latency);
            moved++;
        }
    }

    // 3. Interconnect -> partitions.
    while (to_partition_.ready(now)) {
        MemFetch mf = to_partition_.pop();
        partitions_[mf.partition]->pushRequest(std::move(mf));
    }

    // 4. Partitions (L2 + DRAM), response collection, bank sampling.
    for (unsigned p = 0; p < partitions_.size(); p++) {
        MemPartition &part = *partitions_[p];
        if (part.busy())
            part.cycle(now);
        unsigned moved = 0;
        while (part.hasResponse() && moved < 2) {
            MemFetch mf = part.popResponse();
            live_.icnt_flits += (mf.bytes + 31) / 32;
            to_core_.push(std::move(mf), now + cfg_.icnt_latency);
            moved++;
        }
        if (sampler) {
            const DramChannel &dram = part.dram();
            for (unsigned b = 0; b < cfg_.dram_banks; b++)
                sampler->recordBank(p * cfg_.dram_banks + b,
                                    dram.bankTransferring(b, now),
                                    dram.bankPending(b));
        }
    }

    // 5. Interconnect -> cores.
    while (to_core_.ready(now)) {
        const MemFetch mf = to_core_.pop();
        cores_[mf.core_id]->pushResponse(mf, now);
    }

    if (sampler)
        sampler->endCycle();
}

void
GpuModel::assertDrained() const
{
    for (const auto &core : cores_)
        core->assertDrained();
    for (const auto &part : partitions_)
        MLGS_ASSERT(part->l2().mshrInUse() == 0, part->l2().mshrInUse(),
                    " L2 MSHRs in use on a drained device");
}

std::vector<uint64_t>
GpuModel::perBankRowHits() const
{
    std::vector<uint64_t> out;
    for (const auto &p : partitions_)
        for (unsigned b = 0; b < cfg_.dram_banks; b++)
            out.push_back(p->dram().bankRowHits(b));
    return out;
}

std::vector<uint64_t>
GpuModel::perBankRowMisses() const
{
    std::vector<uint64_t> out;
    for (const auto &p : partitions_)
        for (unsigned b = 0; b < cfg_.dram_banks; b++)
            out.push_back(p->dram().bankRowMisses(b));
    return out;
}

TimingTotals
GpuModel::snapshot() const
{
    TimingTotals t = live_;
    for (const auto &core : cores_) {
        t += core->counters();
        t.l1_hits += core->l1().hits();
        t.l1_misses += core->l1().misses();
    }
    for (const auto &p : partitions_) {
        t.l2_hits += p->l2().hits();
        t.l2_misses += p->l2().misses();
        t.dram_writes += p->l2Writebacks();
        t.dram_row_hits += p->dram().rowHits();
        t.dram_row_misses += p->dram().rowMisses();
    }
    t.dram_reads = t.l2_misses;
    return t;
}

uint64_t
GpuModel::beginKernel(const func::LaunchEnv &env, const Dim3 &grid,
                      const Dim3 &block, cycle_t not_before,
                      uint64_t skip_ctas,
                      std::vector<std::unique_ptr<func::CtaExec>> preloaded)
{
    MLGS_REQUIRE(env.kernel, "beginKernel without a kernel");

    auto ak = std::make_unique<ActiveKernel>();
    ak->token = next_token_++;
    ak->env = env;
    ak->env.launch_seq = next_launch_seq_++;
    ak->not_before = not_before;

    KernelDispatch &disp = ak->disp;
    disp.env = &ak->env;
    disp.timing = &ptx::timingTable(*env.kernel);
    disp.grid = grid;
    disp.block = block;
    disp.threads_per_cta = unsigned(block.count());
    disp.warps_per_cta = (disp.threads_per_cta + kWarpSize - 1) / kWarpSize;
    disp.shared_bytes_per_cta = env.kernel->shared_bytes;
    disp.total_ctas = grid.count();
    disp.next_cta = std::min<uint64_t>(skip_ctas, disp.total_ctas);
    disp.completed_ctas = disp.next_cta;
    disp.preload_base = skip_ctas;
    disp.preloaded = std::move(preloaded);

    MLGS_REQUIRE(disp.threads_per_cta <= cfg_.max_threads_per_core,
                 "CTA larger than a core's thread capacity");
    MLGS_REQUIRE(disp.shared_bytes_per_cta <= cfg_.shared_mem_per_core,
                 "CTA shared memory exceeds the core's capacity");

    last_progress_clock_ = clock_;
    active_.push_back(std::move(ak));
    return active_.back()->token;
}

KernelCompletion
GpuModel::finishActive(size_t idx)
{
    ActiveKernel &ak = *active_[idx];
    const TimingTotals now = snapshot();
    const auto rate = [](uint64_t hits, uint64_t misses) {
        return (hits + misses) ? double(hits) / double(hits + misses) : 0.0;
    };

    // Full window delta (per-launch breakdown + sampling extrapolation).
    KernelRunStats rs;
    rs.kernel_name = ak.env.kernel->name;
    rs.cycles = clock_ - ak.start_clock;
    rs.start_cycle = ak.start_clock;
    rs.totals = now - ak.base;
    const TimingTotals &w = rs.totals;
    rs.warp_instructions = w.warp_instructions;
    rs.thread_instructions = w.thread_instructions;
    rs.ipc = rs.cycles ? double(rs.warp_instructions) / double(rs.cycles) : 0.0;
    rs.l1_hit_rate = rate(w.l1_hits, w.l1_misses);
    rs.l2_hit_rate = rate(w.l2_hits, w.l2_misses);
    rs.dram_row_hit_rate = rate(w.dram_row_hits, w.dram_row_misses);

    // Grand totals accumulate the delta since the previous accumulation
    // point, so overlapping kernels never double-count an event.
    totals_ += now - totals_base_;
    totals_base_ = now;

    const KernelCompletion comp{ak.token, clock_};
    per_launch_.push_back(rs);
    finished_.emplace(ak.token, std::move(rs));
    active_.erase(active_.begin() + long(idx));
    last_progress_clock_ = clock_;
    return comp;
}

std::optional<KernelCompletion>
GpuModel::advanceUntil(cycle_t limit, stats::AerialSampler *sampler)
{
    while (!active_.empty()) {
        // Mark kernels whose start time has arrived as started.
        for (auto &ak : active_) {
            if (!ak->started && clock_ >= ak->not_before) {
                ak->started = true;
                ak->start_clock = clock_;
                ak->base = snapshot();
            }
        }

        // Retire the earliest-launched finished kernel. A lone kernel also
        // waits for the pipeline to drain, preserving the classic
        // one-kernel-at-a-time cycle accounting exactly.
        for (size_t i = 0; i < active_.size(); i++) {
            ActiveKernel &ak = *active_[i];
            if (!ak.started || !ak.disp.allDone())
                continue;
            const bool drained = !anythingInFlight();
            if (drained)
                assertDrained();
            if (drained || active_.size() > 1)
                return finishActive(i);
        }

        // Fully idle gap: every resident kernel is still waiting for its
        // start time — jump the clock instead of simulating empty cycles.
        bool any_started = false;
        cycle_t next_start = kNoDeadline;
        for (const auto &ak : active_) {
            if (ak->started)
                any_started = true;
            else
                next_start = std::min(next_start, ak->not_before);
        }
        if (!any_started && next_start > clock_ && !anythingInFlight()) {
            if (next_start > limit) {
                clock_ = limit;
                last_progress_clock_ = clock_;
                return std::nullopt;
            }
            clock_ = next_start;
            last_progress_clock_ = clock_;
            continue;
        }

        if (clock_ >= limit)
            return std::nullopt;

        // Leftover-core CTA dispatch: kernels claim free core slots in
        // launch order, so a later kernel fills whatever an earlier one
        // leaves unoccupied.
        for (auto &core : cores_) {
            for (auto &ak : active_) {
                if (!ak->started)
                    continue;
                while (!ak->disp.allIssued() && core->tryIssueCta(ak->disp)) {
                }
            }
        }

        cycleOnce(clock_, sampler);
        live_.cycles++;
        clock_++;

        uint64_t completed = 0;
        for (const auto &ak : active_)
            completed += ak->disp.completed_ctas;
        if (completed != last_completed_sum_) {
            last_completed_sum_ = completed;
            last_progress_clock_ = clock_;
        }
        MLGS_ASSERT(clock_ - last_progress_clock_ < 10'000'000,
                    "timing model made no progress for 10M cycles in kernel ",
                    active_.front()->env.kernel->name);
    }
    return std::nullopt;
}

KernelRunStats
GpuModel::collectKernel(uint64_t token)
{
    const auto it = finished_.find(token);
    MLGS_REQUIRE(it != finished_.end(),
                 "collectKernel: token not finished: ", token);
    KernelRunStats rs = std::move(it->second);
    finished_.erase(it);
    return rs;
}

KernelRunStats
GpuModel::runKernel(const func::LaunchEnv &env, const Dim3 &grid,
                    const Dim3 &block, stats::AerialSampler *sampler)
{
    return runKernelFrom(env, grid, block, 0, {}, sampler);
}

KernelRunStats
GpuModel::runKernelFrom(const func::LaunchEnv &env, const Dim3 &grid,
                        const Dim3 &block, uint64_t skip_ctas,
                        std::vector<std::unique_ptr<func::CtaExec>>
                            preloaded_ctas,
                        stats::AerialSampler *sampler)
{
    MLGS_REQUIRE(active_.empty(),
                 "runKernelFrom requires an idle device (",
                 active_.size(), " kernels resident)");
    const uint64_t token = beginKernel(env, grid, block, clock_, skip_ctas,
                                       std::move(preloaded_ctas));
    const auto comp = advanceUntil(kNoDeadline, sampler);
    MLGS_REQUIRE(comp && comp->token == token, "kernel did not complete");
    return collectKernel(token);
}

} // namespace mlgs::timing
