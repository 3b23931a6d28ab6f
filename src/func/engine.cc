#include "func/engine.h"

#include "func/compiled/exec.h"

namespace mlgs::func
{

void
FuncStats::accumulate(const WarpStepResult &res, const ptx::Uop &u)
{
    count(u, res.active);
    for (const auto &acc : res.accesses) {
        if (acc.space == ptx::Space::Global || acc.space == ptx::Space::Const ||
            acc.space == ptx::Space::Tex) {
            if (acc.is_store)
                global_st_bytes += acc.size;
            else
                global_ld_bytes += acc.size;
        }
        if (acc.is_atomic)
            atomics++;
    }
    shared_accesses += res.shared_accesses;
}

std::unique_ptr<CtaExec>
FunctionalEngine::makeCta(const LaunchEnv &env, const Dim3 &grid,
                          const Dim3 &block, uint64_t linear_cta) const
{
    MLGS_REQUIRE(linear_cta < grid.count(), "CTA index out of range");
    const Dim3 cta_id = unflatten(linear_cta, grid);
    return std::make_unique<CtaExec>(*env.kernel, grid, block, cta_id);
}

bool
FunctionalEngine::runCta(CtaExec &cta, const LaunchEnv &env,
                         uint64_t max_instr_per_warp, FuncStats *stats)
{
    return runCtaWith(*exec_, cta, env, max_instr_per_warp, stats);
}

bool
FunctionalEngine::runCtaWith(Executor &exec, CtaExec &cta,
                             const LaunchEnv &env, uint64_t max_instr_per_warp,
                             FuncStats *stats)
{
    if (exec.raceCheck())
        cta.enableRaceCheck();
    // Warps run in batches (whole basic-block spans per dispatch) unless a
    // warp-stream cache or a site profiler needs per-step granularity.
    const bool batch = !exec.warpStreamActive() && !exec.siteProfiler();
    // Stat classes do not depend on bug flags: the clean program serves.
    const ptx::Uop *uops =
        stats && !batch
            ? ptx::compiledProgram(*env.kernel, ptx::LowerBugs{}).uops.data()
            : nullptr;
    while (true) {
        if (cta.allDone()) {
            if (const RaceShadow *rs = cta.raceShadow()) {
                for (const RaceRecord &r : rs->races())
                    warn("shared-memory race in kernel '", env.kernel->name,
                         "' cta (", cta.ctaId().x, ",", cta.ctaId().y, ",",
                         cta.ctaId().z, "): ",
                         r.a_is_write ? "store" : "load", " at line ",
                         r.line_a, " (thread ", r.tid_a, ") vs ",
                         r.b_is_write ? "store" : "load", " at line ",
                         r.line_b, " (thread ", r.tid_b, ") on shared byte ",
                         r.offset, " in barrier phase ", r.phase);
                if (stats)
                    stats->shared_races += rs->races().size();
            }
            return true;
        }

        bool progressed = false;
        for (unsigned w = 0; w < cta.numWarps(); w++) {
            if (batch) {
                const uint64_t before = cta.warpInstrCount(w);
                compiled::runWarp(exec, cta, w, env, max_instr_per_warp,
                                  stats);
                progressed |= cta.warpInstrCount(w) != before;
                continue;
            }
            while (!cta.warpDone(w) && !cta.warpAtBarrier(w) &&
                   cta.warpInstrCount(w) < max_instr_per_warp) {
                const WarpStepResult res = exec.stepWarp(cta, w, env);
                if (stats)
                    stats->accumulate(res, uops[res.pc]);
                progressed = true;
                if (res.barrier)
                    break;
            }
        }

        if (cta.barrierComplete()) {
            cta.releaseBarrier();
            if (stats)
                stats->barriers++;
            progressed = true;
        }

        if (!progressed) {
            // Every live warp is throttled by the instruction limit (the
            // checkpoint case) — or the CTA is deadlocked.
            bool any_below_limit = false;
            for (unsigned w = 0; w < cta.numWarps(); w++)
                if (!cta.warpDone(w) &&
                    cta.warpInstrCount(w) < max_instr_per_warp)
                    any_below_limit = true;
            if (!any_below_limit)
                return false;
            fatal("CTA deadlock in kernel ", env.kernel->name,
                  " (barrier never completed)");
        }
    }
}

FuncStats
FunctionalEngine::launch(const LaunchEnv &env, const Dim3 &grid,
                         const Dim3 &block)
{
    const uint64_t num_ctas = grid.count();
    // The site profiler accumulates per-pc counters in one map; CTAs must
    // run serially while it is attached.
    const bool parallel = pool_ && pool_->threadCount() > 1 && num_ctas > 1 &&
                          !ptx::usesGlobalAtomics(*env.kernel) &&
                          !exec_->siteProfiler();
    if (parallel)
        return launchParallel(env, grid, block, num_ctas);

    FuncStats stats;
    for (uint64_t c = 0; c < num_ctas; c++) {
        auto cta = makeCta(env, grid, block, c);
        const bool done = runCta(*cta, env, UINT64_MAX, &stats);
        MLGS_ASSERT(done, "unlimited CTA run did not complete");
    }
    return stats;
}

FuncStats
FunctionalEngine::launchParallel(const LaunchEnv &env, const Dim3 &grid,
                                 const Dim3 &block, uint64_t num_ctas)
{
    // Per-worker shards: CTAs share only GpuMemory (thread-safe) and the
    // read-only launch env. Stats are all commutative integer sums and
    // coverage counts are integer vectors, so reducing the shards in fixed
    // worker order reproduces the serial totals bitwise.
    const unsigned workers = pool_->threadCount();
    CoverageMap *cov = exec_->coverage();
    std::vector<FuncStats> stat_shards(workers);
    std::vector<CoverageMap> cov_shards(cov ? workers : 0);

    pool_->parallelFor(num_ctas, [&](uint64_t c, unsigned w) {
        Executor exec(exec_->memory(), exec_->bugs());
        exec.setRaceCheck(exec_->raceCheck());
        if (cov)
            exec.setCoverage(&cov_shards[w]);
        auto cta = makeCta(env, grid, block, c);
        const bool done =
            runCtaWith(exec, *cta, env, UINT64_MAX, &stat_shards[w]);
        MLGS_ASSERT(done, "unlimited CTA run did not complete");
    });

    FuncStats stats;
    for (unsigned w = 0; w < workers; w++)
        stats += stat_shards[w];
    if (cov)
        for (unsigned w = 0; w < workers; w++)
            cov->merge(cov_shards[w]);
    return stats;
}

} // namespace mlgs::func
