#include "sample/sampled_backend.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/json.h"

namespace mlgs::sample
{

namespace
{

/** `from` with every counter mapped through `f`. */
template <typename F>
timing::TimingTotals
mapCounters(const timing::TimingTotals &from, F f)
{
    timing::TimingTotals out;
    for (const auto &c : timing::kTimingCounters)
        out.*c.member = f(from.*c.member);
    return out;
}

} // namespace

SampledBackend::SampledBackend(timing::GpuModel &gpu,
                               func::FunctionalEngine &func,
                               const SamplingOptions &opts)
    : gpu_(&gpu), func_(&func), opts_(opts)
{
}

bool
SampledBackend::canAccept() const
{
    // Conservative: routing is decided inside begin(), so admission must
    // assume the next launch may need a cycle-model residency slot.
    return gpu_->residentKernels() <
           std::max(1u, gpu_->config().max_resident_kernels);
}

uint64_t
SampledBackend::begin(engine::LaunchRecord &rec, const func::LaunchEnv &env,
                      cycle_t start)
{
    launches_++;
    Cluster &cl = clusterer_.clusterFor(*rec.kernel, rec.grid, rec.block);
    cl.members++;
    rec.cluster_id = cl.id;

    // Cycle-simulate unless the cluster has a representative to extrapolate
    // from. max_cluster_size == 1 disables clustering (bitwise Detailed); a
    // launch beyond a larger cap is routed detailed and counted as such.
    // !has_rep covers a representative still in flight on another stream;
    // redetail_period periodically refreshes the representative.
    const bool over_cap =
        opts_.max_cluster_size > 1 && cl.members > opts_.max_cluster_size;
    if (over_cap)
        capacity_detailed_++;
    if (opts_.max_cluster_size == 1 || over_cap ||
        cl.detailed_begun < opts_.detailed_per_cluster || !cl.has_rep ||
        (opts_.redetail_period != 0 &&
         cl.members % opts_.redetail_period == 0)) {
        cl.detailed_begun++;
        detailed_launches_++;
        return gpu_->beginKernel(env, rec.grid, rec.block, start);
    }

    // The engine passes the stream's ready time, which is stale when this
    // begin() was deferred by canAccept() until a resident kernel retired.
    // Detailed launches are immune — GpuModel schedules from its own clock —
    // so the fast path must clamp the same way, or its completion lands in
    // the past and the launch retroactively overlaps the kernel it queued
    // behind.
    start = std::max(start, gpu_->clock());

    // Fast-forward: execute functionally now — memory effects and the
    // instruction-class counts below are exact; only the cycle-level view
    // (cycles, cache/DRAM/interconnect counters) is extrapolated from the
    // representative, scaled by the warp-instruction ratio.
    rec.func_stats = func_->launch(env, rec.grid, rec.block);
    const uint64_t wi = rec.func_stats.instructions;
    const timing::KernelRunStats &rep = cl.rep;
    const double s =
        rep.warp_instructions
            ? double(std::max<uint64_t>(wi, 1)) / double(rep.warp_instructions)
            : 1.0;
    const cycle_t est_cycles =
        std::max<cycle_t>(1, cycle_t(std::llround(double(rep.cycles) * s)));
    timing::TimingTotals est = mapCounters(rep.totals, [s](uint64_t v) {
        return uint64_t(std::llround(double(v) * s));
    });
    rec.perf.l1_hit_rate = rep.l1_hit_rate;
    rec.perf.l2_hit_rate = rep.l2_hit_rate;
    rec.perf.dram_row_hit_rate = rep.dram_row_hit_rate;
    rec.timing_source = engine::TimingSource::Extrapolated;
    cl.fast++;

    est.cycles = est_cycles;
    est.warp_instructions = wi;
    est.thread_instructions = rec.func_stats.thread_instructions;
    est.alu = rec.func_stats.alu;
    est.sfu = rec.func_stats.sfu;
    est.mem_insts = rec.func_stats.mem;
    est.shared_accesses = rec.func_stats.shared_accesses;

    rec.perf.kernel_name = rec.kernel->name;
    rec.perf.cycles = est_cycles;
    rec.perf.warp_instructions = wi;
    rec.perf.thread_instructions = rec.func_stats.thread_instructions;
    rec.perf.ipc = double(wi) / double(est_cycles);
    rec.perf.start_cycle = start;
    rec.perf.totals = est;
    rec.cycles = est_cycles;

    const uint64_t token = kFastBit | next_fast_token_++;
    fast_pq_.push(FastPending{start + est_cycles, token});
    return token;
}

bool
SampledBackend::busy() const
{
    return gpu_->residentKernels() > 0 || !fast_pq_.empty();
}

std::optional<engine::BackendCompletion>
SampledBackend::advanceUntil(cycle_t limit)
{
    const bool have_fast = !fast_pq_.empty();
    const cycle_t fast_at = have_fast ? fast_pq_.top().at : 0;
    if (gpu_->residentKernels() > 0) {
        // Never let the cycle model's clock race past the earliest
        // fast-forwarded completion: completions must surface in device-time
        // order so the engine's stream/copy interleaving stays consistent.
        const cycle_t gpu_limit = have_fast ? std::min(limit, fast_at) : limit;
        if (const auto c = gpu_->advanceUntil(gpu_limit))
            return engine::BackendCompletion{c->token, c->at};
    }
    if (have_fast && fast_at <= limit) {
        const uint64_t token = fast_pq_.top().token;
        fast_pq_.pop();
        return engine::BackendCompletion{token, fast_at};
    }
    return std::nullopt;
}

void
SampledBackend::finish(uint64_t token, engine::LaunchRecord &rec)
{
    Cluster &cl = *clusterer_.clusters()[rec.cluster_id];
    if (token & kFastBit) {
        // Estimates were synthesized at begin(); fold them into the device
        // grand totals now that the launch retires.
        gpu_->accumulateExtrapolated(rec.perf.totals);
        cl.extrapolated_cycles += rec.perf.cycles;
        return;
    }
    rec.perf = gpu_->collectKernel(token);
    rec.cycles = rec.perf.cycles;
    rec.timing_source = engine::TimingSource::Detailed;
    clusterer_.recordDetailed(cl, rec.perf);
}

SamplingReport
SampledBackend::report() const
{
    SamplingReport r;
    r.launches = launches_;
    r.detailed_launches = detailed_launches_;
    r.capacity_detailed = capacity_detailed_;
    double weighted_err = 0.0;
    double covered = 0.0;
    for (const auto &clp : clusterer_.clusters()) {
        const Cluster &cl = *clp;
        r.clusters++;
        r.extrapolated_launches += cl.fast;
        r.detailed_cycles += cl.detailed_cycles;
        r.extrapolated_cycles += cl.extrapolated_cycles;
        weighted_err += double(cl.extrapolated_cycles) * cl.cpiRelSpread();
        if (cl.cpi_n >= 2)
            covered += double(cl.extrapolated_cycles);

        SamplingReport::ClusterRow row;
        row.id = cl.id;
        row.kernel_name = cl.sig.kernel_name;
        row.block = cl.sig.block;
        row.ctas_bucket = cl.sig.ctas_bucket;
        row.members = cl.members;
        row.detailed = cl.detailed_done;
        row.fast = cl.fast;
        row.cpi_mean = cl.cpiMean();
        row.cpi_rel_spread = cl.cpiRelSpread();
        row.detailed_cycles = cl.detailed_cycles;
        row.extrapolated_cycles = cl.extrapolated_cycles;
        r.rows.push_back(std::move(row));
    }
    if (r.extrapolated_cycles > 0) {
        r.cycle_error_bound_rel =
            weighted_err / double(r.extrapolated_cycles);
        r.error_bar_coverage = covered / double(r.extrapolated_cycles);
    }
    return r;
}

std::string
reportJson(const SamplingReport &r, int indent)
{
    const std::string p(size_t(std::max(indent, 0)), ' ');
    std::ostringstream os;
    os << "{\n";
    os << p << "  \"mode\": \"" << timingModeName(TimingMode::Sampled)
       << "\",\n";
    os << p << "  \"launches\": " << r.launches << ",\n";
    os << p << "  \"detailed_launches\": " << r.detailed_launches << ",\n";
    os << p << "  \"extrapolated_launches\": " << r.extrapolated_launches
       << ",\n";
    os << p << "  \"capacity_detailed\": " << r.capacity_detailed << ",\n";
    os << p << "  \"clusters\": " << r.clusters << ",\n";
    os << p << "  \"detailed_cycles\": " << r.detailed_cycles << ",\n";
    os << p << "  \"extrapolated_cycles\": " << r.extrapolated_cycles
       << ",\n";
    os << p << "  \"cycle_error_bound_rel\": "
       << jsonDouble(r.cycle_error_bound_rel) << ",\n";
    os << p << "  \"error_bar_coverage\": " << jsonDouble(r.error_bar_coverage)
       << ",\n";
    os << p << "  \"clusters_detail\": [";
    for (size_t i = 0; i < r.rows.size(); i++) {
        const auto &row = r.rows[i];
        os << (i ? "," : "") << "\n"
           << p << "    {\"id\": " << row.id << ", \"kernel\": \""
           << row.kernel_name << "\", \"block\": [" << row.block.x << ","
           << row.block.y << "," << row.block.z
           << "], \"ctas_bucket\": " << row.ctas_bucket
           << ", \"members\": " << row.members
           << ", \"detailed\": " << row.detailed << ", \"fast\": " << row.fast
           << ", \"cpi_mean\": " << jsonDouble(row.cpi_mean)
           << ", \"cpi_rel_spread\": " << jsonDouble(row.cpi_rel_spread)
           << ", \"detailed_cycles\": " << row.detailed_cycles
           << ", \"extrapolated_cycles\": " << row.extrapolated_cycles
           << "}";
    }
    if (!r.rows.empty())
        os << "\n" << p << "  ";
    os << "]\n" << p << "}";
    return os.str();
}

} // namespace mlgs::sample
