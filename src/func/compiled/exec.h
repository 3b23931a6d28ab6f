/**
 * @file
 * Compiled warp execution: dispatches the decode-once micro-op stream a
 * kernel was lowered into (ptx/uop.h) instead of re-decoding parsed
 * instructions each step. This is the only functional execution path; two
 * entry points:
 *
 *  - stepWarp(): single-instruction step returning a WarpStepResult — used
 *    by the timing model and whenever a warp-stream cache or a site
 *    profiler is attached (both need per-step granularity).
 *  - runWarp(): the batched fast path for the pure-functional engine — runs
 *    the warp until it finishes, reaches a barrier, or hits the instruction
 *    limit, folding stats in directly and walking straight-line basic-block
 *    spans without touching the SIMT stack.
 *
 * Both are bitwise identical on register files, memory and every FuncStats
 * field (tests/test_compiled_exec.cc compares them case by case).
 */
#ifndef MLGS_FUNC_COMPILED_EXEC_H
#define MLGS_FUNC_COMPILED_EXEC_H

#include <cstdint>

#include "func/warp_step.h"

namespace mlgs::func
{

class CtaExec;
class Executor;
struct FuncStats;
struct LaunchEnv;

namespace compiled
{

/** Execute one warp instruction (timing-model / warp-stream contract). */
WarpStepResult stepWarp(Executor &executor, CtaExec &cta, unsigned warp,
                        const LaunchEnv &env);

/**
 * Run a warp until done, at a barrier, or at the per-warp instruction limit.
 * `stats` may be null (checkpoint fast-forward discards counts).
 */
void runWarp(Executor &executor, CtaExec &cta, unsigned warp,
             const LaunchEnv &env, uint64_t max_instr_per_warp,
             FuncStats *stats);

} // namespace compiled
} // namespace mlgs::func

#endif // MLGS_FUNC_COMPILED_EXEC_H
