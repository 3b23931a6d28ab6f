/**
 * @file
 * Grammar-driven random PTX kernel generator for differential testing.
 *
 * KernelGen produces typed, verifier-well-formed kernels over a weighted
 * instruction menu (integer/float/f16 arithmetic, rem/div/bfe/bfi/mad/fma,
 * shared-memory tiles with bar.sync, divergent diamonds with guaranteed
 * post-dominator reconvergence, scalar, sub-word and v2/v4 global loads and
 * stores over caller-provided buffers, and a per-thread .local scratch
 * reached by symbol and through a generic address). Kernels are emitted as PTX *text* and consumed through the real
 * parser so the whole parse/analyze pipeline is on the tested path.
 *
 * Every generated statement carries enough structure (def/uses/fallback) for
 * the minimizer in difftest.cc to bisect the body while preserving both a
 * failure and the well-formedness invariants (no uninit reads, reconverging
 * control flow, in-bounds addressing).
 */
#ifndef MLGS_DIFFTEST_KERNEL_GEN_H
#define MLGS_DIFFTEST_KERNEL_GEN_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace mlgs::difftest
{

/** Deliberately seeded defect class (for verifier/race-shadow cross-checks). */
enum class Defect : uint8_t
{
    None,        ///< clean, verifier-silent kernel
    SharedRace,  ///< same-phase shared-memory race (missing bar.sync)
    WideRemRead, ///< rem.u64 reading a 32-bit register (the paper's bug class)
};

/**
 * Seeded known-stride access pattern: the generated kernel carries one
 * global load and one shared store whose per-lane stride (in 4-byte words)
 * is fixed, so tests can assert that perf-lint statically classifies the
 * site exactly as seeded and that the dynamic site profiler measures the
 * same class — fuzzing the analyzer itself.
 */
enum class StrideSeed : uint8_t
{
    None,      ///< no probe emitted
    Coalesced, ///< stride 1: one transaction, conflict-free
    Stride2,   ///< stride 2: two transactions, 2-way bank conflict
    Stride32,  ///< stride 32: fully diverged, 32-way bank conflict
};

/** Everything needed to launch a generated kernel besides its PTX text. */
struct LaunchSpec
{
    std::string kernel = "fuzz";
    Dim3 grid{1, 1, 1};
    Dim3 block{32, 1, 1};
    unsigned in_words = 8;  ///< u32 words per thread in each input buffer
    unsigned out_slots = 8; ///< 8-byte output slots per thread
    uint64_t data_seed = 1; ///< seeds the input-buffer contents

    uint64_t totalThreads() const { return grid.count() * block.count(); }
};

/**
 * One generated statement. `state` (kept in GenKernel) selects between the
 * original text, the `fallback` (a self-contained mov that keeps the same
 * destination defined), or dropping the line entirely.
 */
struct GenStmt
{
    std::string text;     ///< canonical PTX line (no indentation)
    std::string fallback; ///< imm-only replacement defining `def`; "" = none
    bool structural = false; ///< prologue/control-flow/address skeleton
    bool droppable = false;  ///< side-effect-only line (stores): removable
    bool is_label = false;   ///< emitted without indentation
    std::string def;             ///< register written ("" if none)
    std::vector<std::string> uses; ///< registers read by `text`
};

/** A generated kernel: launch shape + minimizer-aware statement list. */
struct GenKernel
{
    LaunchSpec spec;
    Defect defect = Defect::None;
    uint64_t seed = 0; ///< generator seed (reproducibility bookkeeping)

    /**
     * Stride-probe bookkeeping (StrideSeed != None only). The probes are
     * located in the parsed kernel by their unique address registers: the
     * seeded global load is the ld.global whose address register is
     * `probe_global_addr`, the seeded shared store the st.shared addressed
     * by `probe_shared_addr`.
     */
    StrideSeed stride_seed = StrideSeed::None;
    unsigned probe_stride = 0;      ///< words between consecutive lanes
    std::string probe_global_addr;  ///< address register of the global load
    std::string probe_shared_addr;  ///< address register of the shared store

    std::vector<std::string> decl_lines; ///< .reg/.shared declarations
    std::vector<GenStmt> body;
    /** Per-statement minimizer state: 0 = keep, 1 = fallback, 2 = dropped. */
    std::vector<uint8_t> state;

    /** Render the full module (honours `state`). */
    std::string ptx() const;

    /** Statements still emitted verbatim (minimizer progress metric). */
    unsigned liveCount() const;
};

/**
 * Seedable generator. The same seed always yields the same kernel, byte for
 * byte, independent of prior generate() calls.
 */
class KernelGen
{
  public:
    explicit KernelGen(uint64_t seed) : seed_(seed) {}

    GenKernel generate(Defect defect = Defect::None,
                       StrideSeed stride = StrideSeed::None);

  private:
    uint64_t seed_;
};

} // namespace mlgs::difftest

#endif // MLGS_DIFFTEST_KERNEL_GEN_H
