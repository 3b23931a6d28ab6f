/**
 * @file
 * Compiled warp execution: dispatches the decode-once micro-op stream a
 * kernel was lowered into (ptx/uop.h) instead of re-decoding parsed
 * instructions each step. This is the only functional execution path; two
 * entry points:
 *
 *  - stepWarp(): single-instruction step into a WarpStepResult — used
 *    by the timing model where an observable property needs execution at
 *    issue, and whenever a site profiler is attached (it needs per-step
 *    granularity).
 *  - runWarp(): the batched fast path — runs the warp until it finishes,
 *    reaches a barrier, or hits the instruction limit, folding stats in
 *    directly and walking straight-line basic-block spans without touching
 *    the SIMT stack. The pure-functional engine runs whole warps with it;
 *    detailed timing runs warps ahead of issue in bounded chunks, with an
 *    IssueSink collecting one issue record per instruction.
 *
 * Both are bitwise identical on register files, memory and every FuncStats
 * field, and runWarp's records equal stepWarp's results coalesced into lines
 * (tests/test_compiled_exec.cc compares them case by case).
 */
#ifndef MLGS_FUNC_COMPILED_EXEC_H
#define MLGS_FUNC_COMPILED_EXEC_H

#include <cstdint>

#include "func/warp_step.h"

namespace mlgs::func
{

class CtaExec;
class Executor;
class IssueSink;
struct FuncStats;
struct LaunchEnv;

namespace compiled
{

/**
 * Execute one warp instruction into `res` (timing-model / warp-stream
 * contract): every field is reset, the capacity of `res.accesses` is kept.
 */
void stepWarp(Executor &executor, CtaExec &cta, unsigned warp,
              const LaunchEnv &env, WarpStepResult &res);

/**
 * Run a warp until done, at a barrier, or at the per-warp instruction limit.
 * `stats` may be null (checkpoint fast-forward discards counts). With a
 * `sink`, every executed instruction appends one issue record to it, and
 * memory accesses reach the sink instead of `stats`.
 */
void runWarp(Executor &executor, CtaExec &cta, unsigned warp,
             const LaunchEnv &env, uint64_t max_instr_per_warp,
             FuncStats *stats, IssueSink *sink = nullptr);

} // namespace compiled
} // namespace mlgs::func

#endif // MLGS_FUNC_COMPILED_EXEC_H
