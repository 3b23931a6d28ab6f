/**
 * @file
 * The functional-debug methodology of Section III-D, with a static "step
 * zero" before any replay:
 *   0. lint every module under suspicion with the PTX verifier
 *      (Replayer::lintModules) — type/width bugs, uninitialized reads,
 *      divergent barriers and shared-memory races are cheaper to find
 *      statically than by bisecting replays;
 *   1. find the first library call with wrong output (app-level, by
 *      comparing per-call output buffers between a golden and a suspect
 *      context — see the tests/examples);
 *   2. replay each captured kernel launch of that call on "hardware" (the
 *      bug-free executor) and on the suspect simulator, comparing every
 *      buffer a kernel parameter points to (Fig 2);
 *   3. instrument the first incorrect kernel so every register write is
 *      logged, and flag the first write that differs (Fig 3).
 */
#ifndef MLGS_DEBUG_DEBUGGER_H
#define MLGS_DEBUG_DEBUGGER_H

#include <optional>
#include <string>
#include <vector>

#include "debug/instrument.h"
#include "ptx/verifier/verifier.h"
#include "runtime/context.h"

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

/** Replays captured launches under two bug models and compares. */
class Replayer
{
  public:
    struct ModuleSrc
    {
        std::string source;
        std::string name;
    };

    Replayer(std::vector<ModuleSrc> modules, func::BugModel golden,
             func::BugModel suspect);

    /**
     * Step zero: statically verify every supplied module and return the
     * combined diagnostics (empty = all modules lint clean). Run this before
     * any replay — a type-width bug or shared-memory race flagged here
     * usually IS the divergence the replay bisection would find.
     */
    std::vector<ptx::verifier::Diagnostic> lintModules() const;

    /** Fig 2: first captured launch whose output buffers differ. */
    KernelSearchResult
    findFirstBadKernel(const std::vector<cuda::CapturedLaunch> &launches);

    /** Fig 3: first divergent register write within one launch. */
    InstrSearchResult localizeInstruction(const cuda::CapturedLaunch &launch);

  private:
    const ptx::KernelDef *findKernel(const std::string &name) const;
    void replayOn(GpuMemory &mem, const cuda::CapturedLaunch &launch,
                  const func::BugModel &bugs, const ptx::KernelDef *kernel,
                  const std::vector<uint8_t> &params) const;

    std::vector<ptx::Module> modules_;
    func::BugModel golden_;
    func::BugModel suspect_;
};

} // namespace mlgs::debug

#endif // MLGS_DEBUG_DEBUGGER_H
