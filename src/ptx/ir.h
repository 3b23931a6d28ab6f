/**
 * @file
 * In-memory representation of the PTX dialect executed by MLGPUSim.
 *
 * The dialect is a faithful subset of NVIDIA PTX ISA 6.x sufficient to
 * express the cuDNN-substitute kernels: typed integer/float arithmetic,
 * predication, SIMT branches, shared/global/local/param/const state spaces,
 * vector loads/stores, textures, atomics, barriers, and the instructions the
 * paper singles out (brev, bfe, rem with full type handling, FP16 cvt).
 */
#ifndef MLGS_PTX_IR_H
#define MLGS_PTX_IR_H

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/log.h"
#include "common/types.h"

namespace mlgs::ptx
{

struct UopCache; // per-kernel lowered micro-op programs (ptx/uop.h)

/** PTX operand/instruction data type. */
enum class Type : uint8_t
{
    None,
    U8, U16, U32, U64,
    S8, S16, S32, S64,
    B8, B16, B32, B64,
    F16, F32, F64,
    Pred,
};

/** Byte width of a PTX type. */
inline unsigned
typeSize(Type t)
{
    switch (t) {
      case Type::U8: case Type::S8: case Type::B8:
        return 1;
      case Type::U16: case Type::S16: case Type::B16: case Type::F16:
        return 2;
      case Type::U32: case Type::S32: case Type::B32: case Type::F32:
        return 4;
      case Type::U64: case Type::S64: case Type::B64: case Type::F64:
        return 8;
      case Type::Pred:
        return 1;
      default:
        return 0;
    }
}

inline bool
isSigned(Type t)
{
    return t == Type::S8 || t == Type::S16 || t == Type::S32 || t == Type::S64;
}

inline bool
isFloat(Type t)
{
    return t == Type::F16 || t == Type::F32 || t == Type::F64;
}

inline bool
isInt(Type t)
{
    return !isFloat(t) && t != Type::Pred && t != Type::None;
}

/** Printable name (".u32" etc.). */
const char *typeName(Type t);

/** Parse "u32"/"f16"/... ; Type::None if unknown. */
Type parseTypeToken(const std::string &tok);

/** PTX state space. */
enum class Space : uint8_t
{
    None,    ///< generic addressing: resolved by address range
    Reg,
    Global,
    Shared,
    Local,
    Param,
    Const,
    Tex,
};

const char *spaceName(Space s);

/** Instruction opcodes (base mnemonic, modifiers stored separately). */
enum class Op : uint8_t
{
    Abs, Add, And, Atom, Bar, Bfe, Bfi, Bra, Brev, Clz, Cos, Cvt, Cvta,
    Div, Ex2, Exit, Fma, Ld, Lg2, Mad, Max, Membar, Min, Mov, Mul, Neg,
    Not, Or, Popc, Rcp, Red, Rem, Ret, Rsqrt, Selp, Setp, Shl, Shr, Sin,
    Sqrt, St, Sub, Tex, Xor,
};

const char *opName(Op op);

/** setp comparison operator. */
enum class CmpOp : uint8_t { Eq, Ne, Lt, Le, Gt, Ge, Lo, Ls, Hi, Hs };

/** mul/mad result-half selector. */
enum class MulMode : uint8_t { Default, Lo, Hi, Wide };

/** Atomic operation kind. */
enum class AtomOp : uint8_t { Add, Min, Max, Exch, Cas, And, Or, Inc };

/**
 * cvt float->int rounding modifier, decoded at parse time. Trunc covers the
 * default and .rzi; Nearest is .rni (round to nearest even).
 */
enum class CvtRound : uint8_t { Trunc, Nearest };

/** Special (read-only) register identifiers. */
enum class SReg : uint8_t
{
    None,
    TidX, TidY, TidZ,
    NTidX, NTidY, NTidZ,
    CtaIdX, CtaIdY, CtaIdZ,
    NCtaIdX, NCtaIdY, NCtaIdZ,
    LaneId, WarpId, Clock,
};

/** 64-bit typed register value, mirroring GPGPU-Sim's ptx_reg_t union. */
union RegVal
{
    uint8_t u8;
    uint16_t u16;
    uint32_t u32;
    uint64_t u64;
    int8_t s8;
    int16_t s16;
    int32_t s32;
    int64_t s64;
    float f32;
    double f64;
    uint16_t f16bits; ///< binary16 payload (arithmetic done via fp32)
    bool pred;

    RegVal() : u64(0) {}
};

static_assert(sizeof(RegVal) == 8, "RegVal must stay a packed 64-bit union");

/** One instruction operand. */
struct Operand
{
    enum class Kind : uint8_t
    {
        None,
        Reg,     ///< %r5 -> register id
        Imm,     ///< integer literal
        FImm,    ///< floating-point literal
        Mem,     ///< [reg+off] or [sym+off]
        Vec,     ///< {%f1,%f2,...}
        Sym,     ///< bare symbol (shared var, global var, param, texref)
        Special, ///< %tid.x and friends
        Label,   ///< branch target
    };

    Kind kind = Kind::None;
    int reg = -1;                ///< Reg / Mem base register
    int64_t imm = 0;             ///< Imm value / Mem offset
    double fimm = 0.0;           ///< FImm value
    std::string sym;             ///< Sym / Mem symbol base / tex name
    std::vector<int> vec;        ///< Vec register ids / tex coord registers
    SReg sreg = SReg::None;      ///< Special
    std::string label;           ///< Label name (resolved to target_pc)

    bool isMemWithSym() const { return kind == Kind::Mem && !sym.empty(); }
};

/** One decoded PTX instruction. */
struct Instr
{
    Op op = Op::Mov;
    Type type = Type::None;   ///< primary (destination) type
    Type stype = Type::None;  ///< source type (cvt, tex coord type)
    Space space = Space::None;
    CmpOp cmp = CmpOp::Eq;
    MulMode mul_mode = MulMode::Default;
    AtomOp atom_op = AtomOp::Add;

    bool approx = false;
    bool sat = false;
    bool ftz = false;
    bool uni = false;        ///< bra.uni
    CvtRound cvt_round = CvtRound::Trunc; ///< cvt float->int rounding
    unsigned vec_width = 1;  ///< 1, 2 or 4 for ld/st
    unsigned tex_dim = 2;    ///< tex.1d / tex.2d

    int pred = -1;           ///< guard predicate register id, -1 if none
    bool pred_neg = false;   ///< @!%p guard

    std::vector<Operand> ops; ///< destination first

    uint32_t target_pc = 0;   ///< resolved branch target
    uint32_t reconv_pc = 0;   ///< reconvergence point (set by analyzeKernel)

    int line = 0;             ///< source line for diagnostics
    int col = 0;              ///< source column (1-based) for diagnostics
    std::string text;         ///< original source text

    /**
     * Interned id of the mnemonic text (coverage key), assigned by
     * analyzeKernel via internVariant(). kNoVariant until then.
     */
    uint32_t variant_id = 0xffffffffu;

    bool isBranch() const { return op == Op::Bra; }
    bool isExit() const { return op == Op::Ret || op == Op::Exit; }
};

/** Kernel formal parameter. */
struct Param
{
    std::string name;
    Type type = Type::None;
    unsigned size = 0;    ///< bytes
    unsigned offset = 0;  ///< byte offset in the param block
};

/** Statically declared shared-memory variable. */
struct SharedVar
{
    std::string name;
    unsigned size = 0;
    unsigned align = 4;
    unsigned offset = 0;  ///< byte offset within the CTA's shared segment
};

/** Module-scope .global/.const variable (address assigned at module load). */
struct GlobalVar
{
    std::string name;
    Type type = Type::None;
    unsigned size = 0;   ///< total bytes
    unsigned align = 4;
    bool is_const = false;
    addr_t addr = 0;     ///< device address once materialized
};

/** Sentinel reconvergence PC meaning "reconverge only at thread exit". */
constexpr uint32_t kReconvExit = 0xffffffffu;

/** Sentinel variant id for instructions not yet seen by analyzeKernel. */
constexpr uint32_t kNoVariant = 0xffffffffu;

/** A parsed kernel. */
struct KernelDef
{
    std::string name;
    std::vector<Param> params;
    unsigned param_bytes = 0;

    std::vector<Instr> instrs;

    /** Register file layout: id -> declared type/name. */
    std::vector<Type> reg_types;
    std::vector<std::string> reg_names;
    std::unordered_map<std::string, int> reg_ids;

    std::vector<SharedVar> shared_vars;
    unsigned shared_bytes = 0;

    std::unordered_map<std::string, uint32_t> labels;

    /** Declared per-thread local memory (.local .b8 name[n]) if any. */
    std::vector<SharedVar> local_vars;
    unsigned local_bytes = 0;

    const SharedVar *
    findLocal(const std::string &lname) const
    {
        for (const auto &v : local_vars)
            if (v.name == lname)
                return &v;
        return nullptr;
    }

    /**
     * Launch-bounds hints from the kernel directive list: `.reqntid x,y,z`
     * pins the exact CTA shape, `.maxntid x,y,z` bounds it. Zero means "not
     * declared". perf-lint and the barrier-divergence check use these for
     * real block shapes instead of worst-case assumptions; a dimension
     * declared 1 makes the matching %tid component a compile-time constant.
     */
    unsigned reqntid[3] = {0, 0, 0};
    unsigned maxntid[3] = {0, 0, 0};

    bool hasReqntid() const { return reqntid[0] > 0; }

    /** Is %tid along dimension d provably 0 (block extent pinned to 1)? */
    bool
    tidDimTrivial(int d) const
    {
        return reqntid[d] == 1 || maxntid[d] == 1;
    }

    bool analyzed = false; ///< reconvergence points computed

    /**
     * Lowered micro-op programs and the timing table, created by
     * analyzeKernel (ptx/uop.h). The cache is shared between copies of the
     * KernelDef; re-analysis (the instrumentation pass) installs a fresh
     * cache for the mutated copy.
     */
    std::shared_ptr<UopCache> uop_cache;

    /**
     * Kernel performs atomics outside shared memory (set by analyzeKernel).
     * Such kernels communicate across CTAs, so the functional engine runs
     * them serially to keep float-atomic ordering — and numerics — fixed.
     */
    bool global_atomics = false;

    int
    regId(const std::string &name) const
    {
        auto it = reg_ids.find(name);
        return it == reg_ids.end() ? -1 : it->second;
    }

    const Param *
    findParam(const std::string &pname) const
    {
        for (const auto &p : params)
            if (p.name == pname)
                return &p;
        return nullptr;
    }

    const SharedVar *
    findShared(const std::string &sname) const
    {
        for (const auto &s : shared_vars)
            if (s.name == sname)
                return &s;
        return nullptr;
    }
};

/**
 * A parsed PTX translation unit. The runtime keeps modules separate (one per
 * embedded "PTX file") so that duplicate symbol names across units do not
 * collide — the Section III-A fix.
 */
struct Module
{
    std::string source_name; ///< pseudo file name for diagnostics
    std::vector<KernelDef> kernels;
    std::vector<GlobalVar> globals;
    std::vector<std::string> texrefs; ///< .tex declarations (texref names)

    KernelDef *
    findKernel(const std::string &name)
    {
        for (auto &k : kernels)
            if (k.name == name)
                return &k;
        return nullptr;
    }

    const KernelDef *
    findKernel(const std::string &name) const
    {
        for (const auto &k : kernels)
            if (k.name == name)
                return &k;
        return nullptr;
    }
};

/**
 * Compute reconvergence PCs for every potentially divergent branch in the
 * kernel using immediate post-dominators of the control-flow graph.
 * Idempotent; sets kernel.analyzed.
 */
void analyzeKernel(KernelDef &kernel);

/** Render an instruction back to text (used by the instrumentation pass). */
std::string formatInstr(const KernelDef &kernel, const Instr &ins);

/**
 * Does the kernel use atom/red outside shared memory? Requires analyzeKernel
 * to have run (parseModule does; instrumented kernels are re-analyzed).
 */
bool usesGlobalAtomics(const KernelDef &kernel);

/**
 * Process-wide intern table mapping instruction mnemonic text to dense ids.
 * Thread-safe; ids are stable for the life of the process, so coverage maps
 * from different kernels and workers index the same space.
 */
uint32_t internVariant(const std::string &text);

/** Mnemonic text for an interned id (id must come from internVariant). */
const std::string &variantName(uint32_t id);

/** Number of interned variants so far. */
uint32_t variantCount();

} // namespace mlgs::ptx

#endif // MLGS_PTX_IR_H
