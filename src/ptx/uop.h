/**
 * @file
 * Decode-once micro-op IR: the lowering target that `analyzeKernel` compiles
 * each kernel into. A Uop is a flat, fixed-size record with everything the
 * executor needs pre-resolved — register slots, operand immediates already
 * converted to their typed bit patterns, branch/reconvergence targets from
 * the CFG immediate post-dominators, static shared/local/param symbol
 * offsets folded, and the per-instruction stat classification precomputed —
 * so the hot loop never touches the parser's heavyweight `Operand` records
 * (strings, vectors) or re-derives types per step.
 *
 * Layering: this header lives in the ptx layer and therefore cannot know
 * about address-window bases or the functional engine. Static symbols are
 * stored as (space, offset) pairs and runtime symbols (module globals,
 * texrefs) as indices into UopProgram::syms; the executor in src/func folds
 * window bases and resolves names against the launch environment, then
 * classifies each effective address by its window (generic-space
 * resolution).
 */
#ifndef MLGS_PTX_UOP_H
#define MLGS_PTX_UOP_H

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "ptx/ir.h"

namespace mlgs::ptx
{

/**
 * Micro-op opcode. Control kinds come first so the dispatch loop can test
 * `kind < UopKind::Mov` to leave the straight-line fast path. Generic kinds
 * funnel into the shared scalar semantics (exec_semantics.h); the remaining
 * kinds are specialized lane-loop handlers for uniform arith/logic micro-ops
 * whose operands are plain registers or pre-converted immediates, structured
 * for autovectorization across the 32 lanes.
 */
enum class UopKind : uint8_t
{
    // ---- control (handled by the dispatch loop itself) ----
    Bra, Exit, Bar, Membar,
    // ---- generic scalar-semantics fallbacks ----
    Mov, Cvt, SetpG, SelpG, Bfi, Ld, St, Atom, Tex, Alu,
    // ---- specialized SIMD lane loops ----
    Mov32, Mov64,
    IAdd32, ISub32, IMul32, IMad32,
    IAnd32, IOr32, IXor32, IShl32, IShrS32, IShrU32,
    IMinS32, IMinU32, IMaxS32, IMaxU32,
    IAdd64, MulWideU32, MulWideS32,
    FAdd32, FSub32, FMul32, FMad32, FFma32, FMin32, FMax32,
    Setp32, SetpF32, Selp32, Selp64,
    Count,
};

/** Pre-decoded scalar source operand. */
struct UopSrc
{
    enum class K : uint8_t
    {
        None,       ///< absent operand (reads as a zeroed RegVal)
        Reg,        ///< register slot
        Imm,        ///< immediate, pre-converted into `imm` per the op's type
        Sreg,       ///< special register (%tid.x etc.)
        SymStatic,  ///< kernel-static symbol: (space, off), window-folded later
        SymRuntime, ///< module symbol resolved by name at execution time
    };

    K kind = K::None;
    SReg sreg = SReg::None;
    Space space = Space::None; ///< SymStatic window
    int32_t reg = -1;
    int32_t sym = -1;          ///< SymRuntime: index into UopProgram::syms
    uint32_t off = 0;          ///< SymStatic offset within its window
    RegVal imm;                ///< Imm/FImm payload (typed bits, ready to use)
};

/** Pre-decoded memory address operand ([reg+imm] or [sym+imm]). */
struct UopMem
{
    int32_t base_reg = -1;       ///< register base, or -1 for symbol base
    int32_t sym = -1;            ///< runtime symbol index, or -1 if static
    Space sym_space = Space::None; ///< static symbol window (base_reg < 0, sym < 0)
    uint32_t sym_off = 0;        ///< static symbol offset
    int64_t imm = 0;             ///< constant byte offset
    Space space = Space::None;   ///< instruction's declared space (None = generic)
};

/** Issue class: the FuncStats (Uop) or TimingTotals (InstrTiming) counter. */
enum class PipeClass : uint8_t { Alu, Sfu, Mem };

/** Lowering-time bug injection flags baked into affected uops. */
struct UopBug
{
    static constexpr uint8_t kLegacyRem = 1;
    static constexpr uint8_t kLegacyBfe = 2;
    static constexpr uint8_t kSplitFma = 4;
};

/** One micro-op; uops are 1:1 with KernelDef::instrs (same pc space). */
struct Uop
{
    UopKind kind = UopKind::Alu;
    Op op = Op::Mov;
    Type type = Type::None;      ///< operation type (ins.type)
    Type stype = Type::None;     ///< cvt source / tex coord type (resolved)
    Type dst_type = Type::None;  ///< pre-widened destination write type
    CmpOp cmp = CmpOp::Eq;
    MulMode mul_mode = MulMode::Default;
    AtomOp atom_op = AtomOp::Add;
    CvtRound cvt_round = CvtRound::Trunc;
    uint8_t vec_width = 1;
    uint8_t tex_dim = 2;
    PipeClass stat_class = PipeClass::Alu; ///< FuncStats class
    uint8_t flops_per_lane = 0;  ///< FuncStats flop contribution per lane
    uint8_t bug_flags = 0;       ///< UopBug bits baked in at lowering time
    bool pred_neg = false;
    bool ends_block = false;     ///< last uop of its basic block

    int32_t pred = -1;           ///< guard predicate register, -1 if none
    int32_t dst = -1;            ///< destination register, -1 if none
    int32_t dvec[4] = {-1, -1, -1, -1}; ///< vector ld / tex destinations
    int32_t svec[4] = {-1, -1, -1, -1}; ///< vector st values / tex coords
    uint8_t dvec_n = 0;
    uint8_t svec_n = 0;

    UopSrc a, b, c, d;           ///< scalar sources (d: bfi len)
    UopMem mem;

    uint32_t target_pc = 0;
    uint32_t reconv_pc = 0;
    uint32_t variant_id = kNoVariant;
    uint32_t pc = 0;             ///< own index (race shadow reporting)
    int32_t line = 0;            ///< source line (race shadow reporting)
};

/** Bug-model flags that change lowering output (one cached variant each). */
struct LowerBugs
{
    bool legacy_rem = false;
    bool legacy_bfe = false;
    bool split_fma = false;

    bool operator==(const LowerBugs &) const = default;
};

/** A fully lowered kernel: flat uop array + runtime symbol name table. */
struct UopProgram
{
    std::vector<Uop> uops;          ///< 1:1 with KernelDef::instrs
    std::vector<std::string> syms;  ///< names resolved via LaunchEnv at exec
    LowerBugs bugs;                 ///< flags this variant was lowered under
};

/** Writeback latency of a register result that needs no memory access. */
enum class LatencyClass : uint8_t { Alu, Sfu, Sfu2x };

/**
 * One pc of a kernel's timing table: what the cycle-level core needs to
 * schedule and retire the instruction, decided once at analysis. Float div
 * issues on the ALU pipe with SFU latency, although Uop::stat_class counts
 * it as sfu; integer div takes twice the SFU latency.
 */
struct InstrTiming
{
    static constexpr unsigned kMaxReads = 8;
    static constexpr unsigned kMaxWrites = 4; ///< the Uop::dvec bound

    /** Guard predicate, sources, address base, vector and tex operands. */
    uint32_t reads[kMaxReads] = {};
    uint32_t writes[kMaxWrites] = {};
    uint8_t n_reads = 0;
    uint8_t n_writes = 0;
    PipeClass pipe = PipeClass::Alu;
    LatencyClass latency = LatencyClass::Alu;
    bool exit = false;   ///< ret/exit: issues only once the warp's loads drain
    bool atomic = false; ///< atom/red: its memory requests are atomics

    bool memAccess() const { return pipe == PipeClass::Mem; }
    std::span<const uint32_t> readSet() const { return {reads, n_reads}; }
    std::span<const uint32_t> writeSet() const { return {writes, n_writes}; }
};

/** The timing-table entry of one analyzed instruction. */
InstrTiming instrTiming(const Instr &ins);

/**
 * Per-kernel cache of lowered programs, keyed by LowerBugs, plus the
 * bug-independent timing table. Owned by the KernelDef via shared_ptr so
 * every func::Executor (including the per-CTA instances the parallel engine
 * spawns) shares one lowering per variant.
 */
struct UopCache
{
    std::mutex mu;
    std::vector<std::shared_ptr<const UopProgram>> variants;
    std::vector<InstrTiming> timing; ///< 1:1 with KernelDef::instrs
};

/**
 * Create the kernel's uop cache and eagerly lower the clean (no-bug) program.
 * Called at the end of analyzeKernel, so a kernel is lowered exactly once per
 * module load (re-analysis after instrumentation re-lowers the mutated copy).
 */
void initUopCache(KernelDef &kernel);

/**
 * The lowered program for the kernel under the given bug flags. Lazily lowers
 * and caches non-clean variants; thread-safe; the returned reference stays
 * valid for the lifetime of the kernel's cache. Requires analyzeKernel.
 */
const UopProgram &compiledProgram(const KernelDef &kernel,
                                  const LowerBugs &bugs);

/** The kernel's timing table, 1:1 with its instrs (requires analyzeKernel). */
const std::vector<InstrTiming> &timingTable(const KernelDef &kernel);

/**
 * Static per-class instruction mix of a lowered kernel: one count per
 * FuncStats stat class plus control-flow shape. Purely static (no execution
 * weighting) — the sampling subsystem uses it as part of a launch signature,
 * so two kernels that merely share a name but differ in body hash apart.
 */
struct UopMix
{
    uint32_t uops = 0;       ///< total micro-ops
    uint32_t alu = 0;        ///< stat class 0
    uint32_t sfu = 0;        ///< stat class 1
    uint32_t mem = 0;        ///< stat class 2
    uint32_t shared = 0;     ///< memory micro-ops in the shared window
    uint32_t branches = 0;   ///< bra micro-ops
    uint32_t divergent = 0;  ///< predicated bra (potential divergence points)
    uint32_t barriers = 0;   ///< bar.sync micro-ops
    uint32_t atomics = 0;    ///< atom/red micro-ops
    uint32_t flops = 0;      ///< summed flops_per_lane
};

/** Compute the static mix of the clean lowered program (requires analyzeKernel). */
UopMix uopMix(const KernelDef &kernel);

} // namespace mlgs::ptx

#endif // MLGS_PTX_UOP_H
