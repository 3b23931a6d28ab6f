/**
 * @file
 * Pure-functional grid execution ("Functional simulation mode"): executes
 * kernels warp-serially with no timing, collecting aggregate counts used by
 * the hardware oracle and by checkpointing.
 */
#ifndef MLGS_FUNC_ENGINE_H
#define MLGS_FUNC_ENGINE_H

#include <memory>

#include "common/thread_pool.h"
#include "func/executor.h"
#include "ptx/uop.h"

namespace mlgs::func
{

/** Aggregate dynamic counts from a functional run. */
struct FuncStats
{
    uint64_t instructions = 0;    ///< warp instructions executed
    uint64_t thread_instructions = 0; ///< summed over active lanes
    uint64_t alu = 0;             ///< warp ALU instructions
    uint64_t sfu = 0;             ///< warp SFU (transcendental) instructions
    uint64_t mem = 0;             ///< warp memory instructions
    uint64_t global_ld_bytes = 0;
    uint64_t global_st_bytes = 0;
    uint64_t shared_accesses = 0;
    uint64_t atomics = 0;
    uint64_t barriers = 0;
    uint64_t flops = 0;           ///< per-lane floating-point operations

    /**
     * Same-phase shared-memory conflicts confirmed by the dynamic race
     * shadow (always 0 unless Executor::setRaceCheck is on; the shadow
     * never alters any other stat or simulated state).
     */
    uint64_t shared_races = 0;

    /** Count one warp instruction of `u` executed by the `exec` lanes. */
    void
    count(const ptx::Uop &u, warp_mask_t exec)
    {
        instructions++;
        const unsigned lanes = unsigned(__builtin_popcount(exec));
        thread_instructions += lanes;
        switch (u.stat_class) {
          case ptx::PipeClass::Sfu: sfu++; break;
          case ptx::PipeClass::Mem: mem++; break;
          default: alu++; break;
        }
        flops += uint64_t(u.flops_per_lane) * lanes;
    }

    /** count() plus the step's memory-access bookkeeping; `u` is its uop. */
    void accumulate(const WarpStepResult &res, const ptx::Uop &u);

    FuncStats &
    operator+=(const FuncStats &o)
    {
        instructions += o.instructions;
        thread_instructions += o.thread_instructions;
        alu += o.alu;
        sfu += o.sfu;
        mem += o.mem;
        global_ld_bytes += o.global_ld_bytes;
        global_st_bytes += o.global_st_bytes;
        shared_accesses += o.shared_accesses;
        atomics += o.atomics;
        barriers += o.barriers;
        flops += o.flops;
        shared_races += o.shared_races;
        return *this;
    }
};

/**
 * Executes grids CTA-by-CTA on an Executor.
 *
 * With a ThreadPool attached (setThreadPool), launch() fans independent CTAs
 * out across the pool's workers: each worker steps whole CTAs with its own
 * FuncStats/CoverageMap shard, and shards are reduced in a fixed worker
 * order afterwards, so results are bitwise identical to a serial run.
 * Kernels whose static analysis shows global atom/red (usesGlobalAtomics)
 * run serially so float-atomic ordering never changes numerics.
 */
class FunctionalEngine
{
  public:
    explicit FunctionalEngine(Executor &exec) : exec_(&exec) {}

    /** Attach (or detach with nullptr) the worker pool for CTA fan-out. */
    void setThreadPool(ThreadPool *pool) { pool_ = pool; }

    /** Run a full grid to completion. */
    FuncStats launch(const LaunchEnv &env, const Dim3 &grid, const Dim3 &block);

    /** Create the functional state for one CTA (linear index order). */
    std::unique_ptr<CtaExec> makeCta(const LaunchEnv &env, const Dim3 &grid,
                                     const Dim3 &block,
                                     uint64_t linear_cta) const;

    /**
     * Run one CTA until completion or until every warp has executed
     * max_instr_per_warp instructions (checkpoint fast-forward).
     *
     * @return true when the CTA completed, false when suspended at the limit.
     */
    bool runCta(CtaExec &cta, const LaunchEnv &env,
                uint64_t max_instr_per_warp = UINT64_MAX,
                FuncStats *stats = nullptr);

  private:
    static bool runCtaWith(Executor &exec, CtaExec &cta,
                           const LaunchEnv &env, uint64_t max_instr_per_warp,
                           FuncStats *stats);

    FuncStats launchParallel(const LaunchEnv &env, const Dim3 &grid,
                             const Dim3 &block, uint64_t num_ctas);

    Executor *exec_;
    ThreadPool *pool_ = nullptr;
};

} // namespace mlgs::func

#endif // MLGS_FUNC_ENGINE_H
