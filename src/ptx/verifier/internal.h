/**
 * @file
 * Internal interfaces shared between the verifier's translation units:
 * the uniformity analysis (is a register's value warp-uniform or
 * thread-dependent?) and the affine address abstraction used by the static
 * shared-memory race detector.
 */
#ifndef MLGS_PTX_VERIFIER_INTERNAL_H
#define MLGS_PTX_VERIFIER_INTERNAL_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ptx/cfg.h"
#include "ptx/uop.h"
#include "ptx/verifier/verifier.h"

namespace mlgs::ptx::verifier::detail
{

/**
 * Flow-insensitive uniformity: divergent[r] is true when register r may hold
 * a thread-dependent value (derived from %tid/%laneid/%warpid/%clock, from a
 * non-uniform memory load, or computed under a divergent guard).
 * %ntid/%ctaid/%nctaid, immediates, symbols, and param/const loads are
 * uniform across a CTA's threads.
 */
struct Uniformity
{
    std::vector<bool> divergent;

    /**
     * %tid.{x,y,z} components pinned to 0 by launch-bounds hints
     * (.reqntid/.maxntid extent 1). Such a component is CTA-uniform, which
     * sharpens every downstream consumer (guards, affine addresses).
     */
    bool tid_uniform[3] = {false, false, false};

    bool
    isDivergent(int reg) const
    {
        return reg >= 0 && size_t(reg) < divergent.size() &&
               divergent[size_t(reg)];
    }
};

Uniformity computeUniformity(const KernelDef &kernel);

/**
 * Divergence of the value an instruction writes, given register uniformity:
 * guard taint + source-operand divergence + load-space rules. Used both by
 * the fixpoint and to re-derive one definition's divergence precisely.
 */
bool instrValueDivergent(const Instr &ins, const Uniformity &uni);

/**
 * Divergence of a guard predicate at a specific use site. Registers are
 * freely reused across loop regions, so the flow-insensitive merge is too
 * coarse for guards; when the nearest definition of the predicate lies in
 * the same basic block (the setp-then-branch idiom) and is unpredicated,
 * that definition alone decides.
 */
bool guardDivergent(const KernelDef &kernel, const Cfg &cfg,
                    const Uniformity &uni, uint32_t pc);

/**
 * Abstract register value for address analysis:
 *
 *     value = base(var) + c0 + ct[0]*tid.x + ct[1]*tid.y + ct[2]*tid.z
 *             (+ unknown uniform term)(+ unknown thread-dependent term)
 *
 * `var` is an index into kernel.shared_vars when the value carries a shared
 * variable's base address, else -1. The unknown flags are sticky: once a
 * non-affine operation (rem, and, brev, a data load, ...) contributes, the
 * remainder collapses into unk_uniform or unk_divergent depending on the
 * uniformity of the contribution, while any tid coefficients that survived
 * the joins stay exact. That split is what lets the race detector prove
 * row-partitioned kernels clean: equal tid parts with unknown remainders are
 * treated as staying inside one thread's partition.
 */
struct Affine
{
    bool valid = false; ///< has at least one reaching definition
    int var = -1;       ///< shared_vars index of the base, or -1
    int64_t c0 = 0;
    int64_t ct[3] = {0, 0, 0}; ///< tid.x / tid.y / tid.z coefficients
    bool unk_uniform = false;
    bool unk_divergent = false;
};

/** Fixpoint affine values per register id (flow-insensitive joins). */
std::vector<Affine> computeAffine(const KernelDef &kernel,
                                  const Uniformity &uni);

/**
 * Flow-sensitive affine states at memory sites: for every ld/st/atom/red pc,
 * the per-register affine values holding on entry to that instruction
 * (forward dataflow over the CFG; joins at block entries, strong updates
 * inside blocks). Registers are freely reused across loop regions — an
 * address register that holds a divergent global index in one block and a
 * tid-linear tile index in another keeps both meanings separate here, where
 * the flow-insensitive fixpoint would collapse them to divergent-unknown.
 * Used by perf-lint; the race detector keeps the coarser (sound, join-all)
 * view.
 */
std::unordered_map<uint32_t, std::vector<Affine>>
computeAffineAtSites(const KernelDef &kernel, const Cfg &cfg,
                     const Uniformity &uni);

/**
 * Affine form of a memory instruction's effective address (base register or
 * symbol plus immediate offset). Returns an invalid Affine when the
 * instruction has no memory operand.
 */
Affine memAddressAffine(const KernelDef &kernel, const Instr &ins,
                        const std::vector<Affine> &regs);

/** Build a diagnostic anchored at kernel.instrs[pc]. */
Diagnostic makeDiag(Severity sev, Check check, const KernelDef &kernel,
                    uint32_t pc, std::string message);

/** Type/width consistency over every operand (verifier.cc). */
void checkTypes(const KernelDef &kernel, std::vector<Diagnostic> &out);

/** Def-before-use dataflow over the block graph (dataflow.cc). */
void checkUninit(const KernelDef &kernel, const Cfg &cfg,
                 std::vector<Diagnostic> &out);

/** bar.sync reachable inside a divergent region (phases.cc). */
void checkBarrierDivergence(const KernelDef &kernel, const Cfg &cfg,
                            const Uniformity &uni,
                            std::vector<Diagnostic> &out);

/** Static warp-epoch shared-memory race analysis (phases.cc). */
void checkSharedRaces(const KernelDef &kernel, const Cfg &cfg,
                      const Uniformity &uni, std::vector<Diagnostic> &out);

} // namespace mlgs::ptx::verifier::detail

#endif // MLGS_PTX_VERIFIER_INTERNAL_H
