/**
 * @file
 * The functional-debug methodology of Section III-D, run from a recorded
 * .mlgstrace, with a static "step zero" before any replay:
 *   0. lint every module the trace carries with the PTX verifier
 *      (Replayer::lintModules) — type/width bugs, uninitialized reads,
 *      divergent barriers and shared-memory races are cheaper to find
 *      statically than by bisecting replays;
 *   1. find the first library call with wrong output (app-level, by
 *      comparing per-call output buffers between a golden and a suspect
 *      context — see the tests/examples);
 *   2. replay the trace and run each launch from its pre-launch device
 *      memory on "hardware" (the golden bug model) and on the suspect
 *      simulator, comparing every live allocation afterwards (Fig 2);
 *   3. replay to the first incorrect launch, instrument its kernel so every
 *      register write is logged, and flag the first write that differs
 *      (Fig 3).
 * Launches see the replayed context's symbols and texture bindings, so
 * kernels that read module globals or textures debug like any other.
 */
#ifndef MLGS_DEBUG_DEBUGGER_H
#define MLGS_DEBUG_DEBUGGER_H

#include <functional>
#include <string>
#include <vector>

#include "debug/instrument.h"
#include "ptx/verifier/verifier.h"
#include "trace/replayer.h"

namespace mlgs::debug
{

/** Step-2 outcome: first kernel whose replayed output differs. */
struct KernelSearchResult
{
    bool diverged = false;
    size_t launch_index = 0;
    std::string kernel_name;
    addr_t buffer_addr = 0;
    size_t byte_offset = 0;
};

/** Step-3 outcome: first divergent register write. */
struct InstrSearchResult
{
    bool diverged = false;
    bool control_diverged = false; ///< tags mismatched (branch-level skew)
    uint64_t record_index = 0;
    uint32_t pc = 0;
    int reg = -1;
    std::string reg_name;
    std::string instr_text;
    uint64_t golden_value = 0;
    uint64_t suspect_value = 0;
};

/** Replays a recorded trace's launches under two bug models and compares. */
class Replayer
{
  public:
    Replayer(trace::TraceFile trace, func::BugModel golden,
             func::BugModel suspect);

    /**
     * Step zero: statically verify every module whose source the trace
     * carries and return the combined diagnostics (empty = all modules lint
     * clean). Run this before any replay — a type-width bug or shared-memory
     * race flagged here usually IS the divergence the replay bisection would
     * find.
     */
    std::vector<ptx::verifier::Diagnostic> lintModules() const;

    /** Fig 2: first launch of the trace whose outputs differ. */
    KernelSearchResult findFirstBadKernel() const;

    /** Fig 3: first divergent register write within launch `launch_index`
     *  (its LaunchRecord::launch_id, as KernelSearchResult reports it). */
    InstrSearchResult localizeInstruction(size_t launch_index) const;

  private:
    /** Called at each launch's pre-state; returning true ends the replay. */
    using LaunchVisit =
        std::function<bool(const cuda::LaunchRecord &,
                           const func::LaunchEnv &, cuda::Context &)>;

    /** Replay the trace functionally, visiting each launch before it runs. */
    void replayLaunches(const LaunchVisit &visit) const;

    trace::TraceReplayer trace_;
    func::BugModel golden_;
    func::BugModel suspect_;
};

} // namespace mlgs::debug

#endif // MLGS_DEBUG_DEBUGGER_H
