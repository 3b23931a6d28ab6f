/**
 * @file
 * The compiled micro-op executor. Dispatch is a flat table of per-kind
 * handlers over the lowered uop stream (ptx/uop.h): control kinds are
 * handled inline by the dispatch loop, generic kinds funnel into the shared
 * scalar semantics (func/exec_semantics.h), and the specialized kinds are
 * dense 32-lane loops over pre-resolved register slots, structured so the
 * compiler can unroll/vectorize them.
 *
 * The batch loop (runWarp) additionally exploits the basic-block structure
 * the lowering pass marked via `ends_block`: within a block the active mask
 * is invariant and the SIMT stack is untouched, so the top-of-stack pc is
 * synced only at block boundaries, control ops, and the instruction limit.
 * This is safe because reconvergence targets are always block leaders — a
 * mid-block advance can never trigger a reconvergence pop.
 */
#include "func/compiled/exec.h"

#include "func/engine.h"
#include "func/exec_semantics.h"
#include "func/executor.h"
#include "func/site_profiler.h"
#include "ptx/uop.h"

namespace mlgs::func::compiled
{

using ptx::AtomOp;
using ptx::CmpOp;
using ptx::RegVal;
using ptx::Space;
using ptx::Type;
using ptx::Uop;
using ptx::UopBug;
using ptx::UopKind;
using ptx::UopMem;
using ptx::UopProgram;
using ptx::UopSrc;

namespace
{

/** Per-warp execution context threaded through every handler. */
struct ExecCtx
{
    CtaExec *cta = nullptr;
    const LaunchEnv *env = nullptr;
    GpuMemory *mem = nullptr;
    const UopProgram *prog = nullptr;
    unsigned warp = 0;
    unsigned tid0 = 0;                 ///< first thread id of the warp
    RegVal *lanes[kWarpSize] = {};     ///< per-lane register files
    WarpStepResult *res = nullptr;     ///< single-step mode: access sink
    FuncStats *stats = nullptr;        ///< batch mode: direct accumulation
    SiteProfiler *profiler = nullptr;  ///< single-step mode: shared lanes
};

ExecCtx
makeCtx(Executor &executor, CtaExec &cta, const LaunchEnv &env,
        const UopProgram &prog, unsigned warp)
{
    ExecCtx ctx;
    ctx.cta = &cta;
    ctx.env = &env;
    ctx.mem = &executor.memory();
    ctx.prog = &prog;
    ctx.warp = warp;
    ctx.tid0 = warp * kWarpSize;
    const unsigned n = cta.numThreads();
    for (unsigned lane = 0; lane < kWarpSize; lane++) {
        const unsigned tid = ctx.tid0 + lane;
        ctx.lanes[lane] = tid < n ? cta.thread(tid).regs.data() : nullptr;
    }
    return ctx;
}

/** Guard-predicate evaluation over the warp's active lanes. */
warp_mask_t
predMask(const Uop &u, warp_mask_t mask, const ExecCtx &ctx)
{
    if (u.pred < 0)
        return mask;
    warp_mask_t exec = 0;
    warp_mask_t m = mask;
    while (m) {
        const unsigned lane = unsigned(__builtin_ctz(m));
        m &= m - 1;
        const bool p = ctx.lanes[lane][size_t(u.pred)].pred;
        if (p != u.pred_neg)
            exec |= warp_mask_t(1) << lane;
    }
    return exec;
}

addr_t
windowBase(Space sp)
{
    switch (sp) {
      case Space::Shared: return kSharedBase;
      case Space::Local: return kLocalBase;
      case Space::Param: return kParamBase;
      default: panic("windowBase: bad static symbol space");
    }
}

addr_t
runtimeSym(const ExecCtx &ctx, int32_t sym)
{
    const std::string &name = ctx.prog->syms[size_t(sym)];
    if (ctx.env->symbols) {
        const auto it = ctx.env->symbols->find(name);
        if (it != ctx.env->symbols->end())
            return it->second;
    }
    fatal("unresolved symbol '", name, "' in kernel ", ctx.env->kernel->name);
}

/** Generic scalar source read (any UopSrc kind). */
RegVal
srcVal(const ExecCtx &ctx, const UopSrc &s, unsigned lane, const RegVal *r)
{
    RegVal v{};
    switch (s.kind) {
      case UopSrc::K::Reg:
        return r[size_t(s.reg)];
      case UopSrc::K::Imm:
        return s.imm;
      case UopSrc::K::Sreg:
        v.u64 = readSpecial(s.sreg, *ctx.cta, ctx.tid0 + lane);
        return v;
      case UopSrc::K::SymStatic:
        v.u64 = windowBase(s.space) + s.off;
        return v;
      case UopSrc::K::SymRuntime:
        v.u64 = runtimeSym(ctx, s.sym);
        return v;
      default:
        return v; // None: an absent operand reads as zero
    }
}

/** Specialized-kind source read: guaranteed register or typed immediate. */
inline RegVal
srcRI(const UopSrc &s, const RegVal *r)
{
    return s.kind == UopSrc::K::Reg ? r[size_t(s.reg)] : s.imm;
}

/** Pre-resolved effective address with generic-space resolution. */
Ea
uopAddr(const ExecCtx &ctx, const UopMem &m, const RegVal *r)
{
    addr_t ea;
    if (m.base_reg >= 0)
        ea = r[size_t(m.base_reg)].u64 + addr_t(m.imm);
    else if (m.sym >= 0)
        ea = runtimeSym(ctx, m.sym) + addr_t(m.imm);
    else
        ea = windowBase(m.sym_space) + m.sym_off + addr_t(m.imm);
    return Ea{resolveSpace(m.space, ea), ea};
}

/**
 * Book-keep one lane's ld/st. Single-step mode pushes the access for the
 * engine's FuncStats::accumulate; batch mode applies the exact same
 * accumulation directly (bytes only for global/const, shared counts +
 * race shadow for shared, nothing for param). An attached site profiler
 * sees every shared lane, in lane order.
 */
void
recordLdSt(const ExecCtx &ctx, const Uop &u, const Ea &ea, unsigned bytes,
           bool is_store, unsigned tid)
{
    if (ea.space == Space::Global || ea.space == Space::Const ||
        ea.space == Space::Local) {
        if (ctx.res) {
            ctx.res->accesses.push_back(
                MemAccess{ea.addr, bytes, is_store, false, ea.space});
        } else if (ctx.stats && ea.space != Space::Local) {
            if (is_store)
                ctx.stats->global_st_bytes += bytes;
            else
                ctx.stats->global_ld_bytes += bytes;
        }
    } else if (ea.space == Space::Shared) {
        if (ctx.res)
            ctx.res->shared_accesses++;
        else if (ctx.stats)
            ctx.stats->shared_accesses++;
        if (ctx.profiler)
            ctx.profiler->noteSharedLane(ea.addr - kSharedBase, bytes);
        if (RaceShadow *rs = ctx.cta->raceShadow())
            rs->onAccess(size_t(ea.addr - kSharedBase), bytes, tid, u.pc,
                         u.line, is_store);
    }
}

/**
 * Dense lane loop: the full-mask path is a branch-free 0..31 loop the
 * compiler can unroll/vectorize; the divergent path walks set bits.
 */
#define MLGS_LANE_LOOP(body)                                                  \
    do {                                                                      \
        if (exec == kFullWarpMask) {                                          \
            for (unsigned lane = 0; lane < kWarpSize; lane++) {               \
                RegVal *const r = ctx.lanes[lane];                            \
                body;                                                         \
            }                                                                 \
        } else {                                                              \
            warp_mask_t m_ = exec;                                            \
            while (m_) {                                                      \
                const unsigned lane = unsigned(__builtin_ctz(m_));            \
                m_ &= m_ - 1;                                                 \
                RegVal *const r = ctx.lanes[lane];                            \
                body;                                                         \
            }                                                                 \
        }                                                                     \
    } while (0)

using Handler = void (*)(const Uop &, warp_mask_t, ExecCtx &);

// ---- generic handlers (shared scalar semantics) ----

void
hMov(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(
        writeTyped(r[size_t(u.dst)], u.type, srcVal(ctx, u.a, lane, r)));
}

void
hCvt(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(writeTyped(
        r[size_t(u.dst)], u.type,
        execCvt(u.type, u.stype, u.cvt_round, srcVal(ctx, u.a, lane, r))));
}

void
hSetpG(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    const std::string &text = ptx::variantName(u.variant_id);
    MLGS_LANE_LOOP(r[size_t(u.dst)].pred =
                       setpCompare(u.type, u.cmp, srcVal(ctx, u.a, lane, r),
                                   srcVal(ctx, u.b, lane, r), text));
}

void
hSelpG(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP({
        const RegVal a = srcVal(ctx, u.a, lane, r);
        const RegVal b = srcVal(ctx, u.b, lane, r);
        const RegVal p = srcVal(ctx, u.c, lane, r);
        writeTyped(r[size_t(u.dst)], u.type, p.pred ? a : b);
    });
}

void
hBfi(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP({
        const uint64_t ia = asU64(u.type, srcVal(ctx, u.a, lane, r));
        const uint64_t ib = asU64(u.type, srcVal(ctx, u.b, lane, r));
        const uint32_t pos = srcVal(ctx, u.c, lane, r).u32 & 0xff;
        const uint32_t len = srcVal(ctx, u.d, lane, r).u32 & 0xff;
        writeTyped(r[size_t(u.dst)], u.type,
                   makeInt(u.type, bfiInsert(u.type, ia, ib, pos, len)));
    });
}

void
hLd(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    const unsigned bytes = u.vec_width * ptx::typeSize(u.type);
    MLGS_LANE_LOOP({
        const unsigned tid = ctx.tid0 + lane;
        const Ea ea = uopAddr(ctx, u.mem, r);
        RegVal vals[4];
        loadTyped(*ctx.mem, ea, u.type, u.vec_width, vals, *ctx.cta, tid,
                  *ctx.env);
        if (u.vec_width == 1)
            writeTyped(r[size_t(u.dst)], u.type, vals[0]);
        else
            for (unsigned i = 0; i < u.dvec_n; i++)
                writeTyped(r[size_t(u.dvec[i])], u.type, vals[i]);
        recordLdSt(ctx, u, ea, bytes, false, tid);
    });
}

void
hSt(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    const unsigned bytes = u.vec_width * ptx::typeSize(u.type);
    MLGS_LANE_LOOP({
        const unsigned tid = ctx.tid0 + lane;
        const Ea ea = uopAddr(ctx, u.mem, r);
        RegVal vals[4];
        if (u.vec_width == 1)
            vals[0] = srcVal(ctx, u.a, lane, r);
        else
            for (unsigned i = 0; i < u.svec_n; i++)
                vals[i] = r[size_t(u.svec[i])];
        storeTyped(*ctx.mem, ea, u.type, u.vec_width, vals, *ctx.cta, tid);
        recordLdSt(ctx, u, ea, bytes, true, tid);
    });
}

void
hAtom(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP({
        const unsigned tid = ctx.tid0 + lane;
        const Ea ea = uopAddr(ctx, u.mem, r);
        RegVal old;
        loadTyped(*ctx.mem, ea, u.type, 1, &old, *ctx.cta, tid, *ctx.env);
        const RegVal b = srcVal(ctx, u.a, lane, r);
        RegVal swap{};
        if (u.atom_op == AtomOp::Cas)
            swap = srcVal(ctx, u.b, lane, r);
        const RegVal next = atomNext(u.atom_op, u.type, old, b, swap);
        storeTyped(*ctx.mem, ea, u.type, 1, &next, *ctx.cta, tid);
        if (u.dst >= 0)
            writeTyped(r[size_t(u.dst)], u.type, old);
        if (ea.space == Space::Shared) {
            if (ctx.res)
                ctx.res->shared_accesses++;
            else if (ctx.stats)
                ctx.stats->shared_accesses++;
            if (ctx.profiler)
                ctx.profiler->noteSharedLane(ea.addr - kSharedBase,
                                             ptx::typeSize(u.type));
        } else if (ctx.res) {
            ctx.res->accesses.push_back(MemAccess{
                ea.addr, ptx::typeSize(u.type), true, true, ea.space});
        } else if (ctx.stats) {
            ctx.stats->atomics++;
            if (ea.space == Space::Global || ea.space == Space::Const ||
                ea.space == Space::Tex)
                ctx.stats->global_st_bytes += ptx::typeSize(u.type);
        }
    });
}

void
hTex(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    if (!exec)
        return; // no active lane: no texture lookup, no binding required
    MLGS_REQUIRE(ctx.env->textures,
                 "texture instruction without texture table");
    const std::string &name = ctx.prog->syms[size_t(u.mem.sym)];
    const TexBinding *bind = ctx.env->textures->lookupTexture(name);
    MLGS_REQUIRE(bind, "texture '", name,
                 "' is not bound to an array (lost binding)");
    MLGS_LANE_LOOP({
        const int64_t xi = texCoordToInt(u.stype, r[size_t(u.svec[0])]);
        const int64_t yi = (u.tex_dim >= 2 && u.svec_n >= 2)
                               ? texCoordToInt(u.stype, r[size_t(u.svec[1])])
                               : 0;
        const TexFetch f = texFetch(*ctx.mem, *bind, u.tex_dim, xi, yi);
        if (f.hit) {
            if (ctx.res)
                ctx.res->accesses.push_back(
                    MemAccess{f.base, f.bytes, false, false, Space::Tex});
            else if (ctx.stats)
                ctx.stats->global_ld_bytes += f.bytes;
        }
        if (u.dvec_n) {
            for (unsigned i = 0; i < u.dvec_n; i++) {
                RegVal v;
                v.f32 = f.texel[i];
                writeTyped(r[size_t(u.dvec[i])], Type::F32, v);
            }
        } else {
            RegVal v;
            v.f32 = f.texel[0];
            writeTyped(r[size_t(u.dst)], Type::F32, v);
        }
    });
}

void
hAlu(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    BugModel bugs;
    bugs.legacy_rem = (u.bug_flags & UopBug::kLegacyRem) != 0;
    bugs.legacy_bfe = (u.bug_flags & UopBug::kLegacyBfe) != 0;
    bugs.split_fma = (u.bug_flags & UopBug::kSplitFma) != 0;
    MLGS_LANE_LOOP({
        const RegVal a = srcVal(ctx, u.a, lane, r);
        const RegVal b = srcVal(ctx, u.b, lane, r);
        const RegVal c = srcVal(ctx, u.c, lane, r);
        writeTyped(r[size_t(u.dst)], u.dst_type,
                   execAluOp(bugs, u.op, u.type, u.mul_mode, a, b, c));
    });
}

// ---- specialized SIMD lane loops ----

void
hMov32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u32 = srcRI(u.a, r).u32);
}

void
hMov64(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u64 = srcRI(u.a, r).u64);
}

void
hIAdd32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u32 =
                       srcRI(u.a, r).u32 + srcRI(u.b, r).u32);
}

void
hISub32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u32 =
                       srcRI(u.a, r).u32 - srcRI(u.b, r).u32);
}

void
hIMul32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u32 =
                       srcRI(u.a, r).u32 * srcRI(u.b, r).u32);
}

void
hIMad32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u32 =
                       srcRI(u.a, r).u32 * srcRI(u.b, r).u32 +
                       srcRI(u.c, r).u32);
}

void
hIAnd32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u32 =
                       srcRI(u.a, r).u32 & srcRI(u.b, r).u32);
}

void
hIOr32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u32 =
                       srcRI(u.a, r).u32 | srcRI(u.b, r).u32);
}

void
hIXor32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u32 =
                       srcRI(u.a, r).u32 ^ srcRI(u.b, r).u32);
}

void
hIShl32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP({
        const uint32_t s = srcRI(u.b, r).u32;
        r[size_t(u.dst)].u32 = s >= 32 ? 0 : srcRI(u.a, r).u32 << s;
    });
}

void
hIShrS32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP({
        const uint32_t s = std::min(srcRI(u.b, r).u32, 31u);
        r[size_t(u.dst)].s32 = srcRI(u.a, r).s32 >> s;
    });
}

void
hIShrU32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP({
        const uint32_t s = srcRI(u.b, r).u32;
        r[size_t(u.dst)].u32 = s >= 32 ? 0 : srcRI(u.a, r).u32 >> s;
    });
}

void
hIMinS32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].s32 =
                       std::min(srcRI(u.a, r).s32, srcRI(u.b, r).s32));
}

void
hIMinU32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u32 =
                       std::min(srcRI(u.a, r).u32, srcRI(u.b, r).u32));
}

void
hIMaxS32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].s32 =
                       std::max(srcRI(u.a, r).s32, srcRI(u.b, r).s32));
}

void
hIMaxU32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u32 =
                       std::max(srcRI(u.a, r).u32, srcRI(u.b, r).u32));
}

void
hIAdd64(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u64 =
                       srcRI(u.a, r).u64 + srcRI(u.b, r).u64);
}

void
hMulWideU32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u64 =
                       uint64_t(srcRI(u.a, r).u32) * srcRI(u.b, r).u32);
}

void
hMulWideS32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].s64 =
                       int64_t(srcRI(u.a, r).s32) * srcRI(u.b, r).s32);
}

void
hFAdd32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(writeTyped(
        r[size_t(u.dst)], Type::F32,
        makeF(Type::F32,
              double(srcRI(u.a, r).f32) + double(srcRI(u.b, r).f32))));
}

void
hFSub32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(writeTyped(
        r[size_t(u.dst)], Type::F32,
        makeF(Type::F32,
              double(srcRI(u.a, r).f32) - double(srcRI(u.b, r).f32))));
}

void
hFMul32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(writeTyped(
        r[size_t(u.dst)], Type::F32,
        makeF(Type::F32,
              double(srcRI(u.a, r).f32) * double(srcRI(u.b, r).f32))));
}

void
hFMad32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    // Exactly the generic mad.f32: the product is rounded to f32 (canonical
    // NaN applied) before the add — two roundings.
    MLGS_LANE_LOOP({
        const RegVal prod =
            makeF(Type::F32,
                  double(srcRI(u.a, r).f32) * double(srcRI(u.b, r).f32));
        writeTyped(r[size_t(u.dst)], Type::F32,
                   makeF(Type::F32,
                         double(prod.f32) + double(srcRI(u.c, r).f32)));
    });
}

void
hFFma32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    const bool split = (u.bug_flags & UopBug::kSplitFma) != 0;
    MLGS_LANE_LOOP({
        const float fa = srcRI(u.a, r).f32;
        const float fb = srcRI(u.b, r).f32;
        const float fc = srcRI(u.c, r).f32;
        const float v = split ? fa * fb + fc : std::fmaf(fa, fb, fc);
        writeTyped(r[size_t(u.dst)], Type::F32, makeF(Type::F32, v));
    });
}

void
hFMin32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(writeTyped(
        r[size_t(u.dst)], Type::F32,
        makeF(Type::F32, fminDet(double(srcRI(u.a, r).f32),
                                 double(srcRI(u.b, r).f32)))));
}

void
hFMax32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(writeTyped(
        r[size_t(u.dst)], Type::F32,
        makeF(Type::F32, fmaxDet(double(srcRI(u.a, r).f32),
                                 double(srcRI(u.b, r).f32)))));
}

void
hSetp32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    // setpCompare never takes the float-fatal path for 32-bit int types.
    static const std::string kNoText;
    MLGS_LANE_LOOP(r[size_t(u.dst)].pred =
                       setpCompare(u.type, u.cmp, srcRI(u.a, r),
                                   srcRI(u.b, r), kNoText));
}

void
hSetpF32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP({
        const float fa = srcRI(u.a, r).f32;
        const float fb = srcRI(u.b, r).f32;
        bool p = false;
        switch (u.cmp) {
          case CmpOp::Eq: p = fa == fb; break;
          case CmpOp::Ne: p = fa != fb; break;
          case CmpOp::Lt: p = fa < fb; break;
          case CmpOp::Le: p = fa <= fb; break;
          case CmpOp::Gt: p = fa > fb; break;
          default: p = fa >= fb; break; // Ge: lowering excludes Lo/Ls/Hi/Hs
        }
        r[size_t(u.dst)].pred = p;
    });
}

void
hSelp32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u32 = r[size_t(u.c.reg)].pred
                                              ? srcRI(u.a, r).u32
                                              : srcRI(u.b, r).u32);
}

void
hSelp64(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u64 = r[size_t(u.c.reg)].pred
                                              ? srcRI(u.a, r).u64
                                              : srcRI(u.b, r).u64);
}

#undef MLGS_LANE_LOOP

constexpr size_t kNumKinds = size_t(UopKind::Count);

/** Dispatch table, indexed by UopKind; control kinds have no handler. */
const Handler kHandlers[kNumKinds] = {
    nullptr, nullptr, nullptr, nullptr, // Bra, Exit, Bar, Membar
    hMov, hCvt, hSetpG, hSelpG, hBfi, hLd, hSt, hAtom, hTex, hAlu,
    hMov32, hMov64,
    hIAdd32, hISub32, hIMul32, hIMad32,
    hIAnd32, hIOr32, hIXor32, hIShl32, hIShrS32, hIShrU32,
    hIMinS32, hIMinU32, hIMaxS32, hIMaxU32,
    hIAdd64, hMulWideU32, hMulWideS32,
    hFAdd32, hFSub32, hFMul32, hFMad32, hFFma32, hFMin32, hFMax32,
    hSetp32, hSetpF32, hSelp32, hSelp64,
};
static_assert(sizeof(kHandlers) / sizeof(kHandlers[0]) == kNumKinds,
              "handler table out of sync with UopKind");

/**
 * The lowered program for this CTA's kernel under the executor's bug model,
 * cached on the CtaExec (a CTA is stepped by one thread only, and the timing
 * model shares one Executor across CTAs, so the cache must be per-CTA rather
 * than per-Executor).
 */
const UopProgram &
programFor(Executor &executor, CtaExec &cta)
{
    if (const UopProgram *p = cta.uopProgram())
        return *p;
    const BugModel &b = executor.bugs();
    const UopProgram &p = ptx::compiledProgram(
        cta.kernel(),
        ptx::LowerBugs{b.legacy_rem, b.legacy_bfe, b.split_fma});
    cta.setUopProgram(&p);
    return p;
}

} // namespace

WarpStepResult
stepWarp(Executor &executor, CtaExec &cta, unsigned warp,
         const LaunchEnv &env)
{
    const UopProgram &prog = programFor(executor, cta);
    SimtStack &st = cta.stack(warp);
    MLGS_ASSERT(!st.empty(), "stepWarp on a finished warp");
    MLGS_ASSERT(!cta.warpAtBarrier(warp), "stepWarp on a warp at a barrier");

    const uint32_t pc = st.pc();
    MLGS_ASSERT(pc < prog.uops.size(), "pc out of range in ",
                env.kernel->name);
    const Uop &u = prog.uops[pc];
    const warp_mask_t mask = st.activeMask();
    ExecCtx ctx = makeCtx(executor, cta, env, prog, warp);
    const warp_mask_t exec = predMask(u, mask, ctx);

    WarpStepResult res;
    res.ins = &env.kernel->instrs[pc];
    res.pc = pc;
    res.active = exec;
    cta.warpInstrCount(warp)++;
    if (CoverageMap *cov = executor.coverage())
        cov->hit(u.variant_id);

    switch (u.kind) {
      case UopKind::Bra:
        st.branch(exec, u.target_pc, pc + 1, u.reconv_pc);
        return res;
      case UopKind::Exit:
        st.exitLanes(exec);
        if (exec != mask && !st.empty())
            st.advance();
        res.exited = st.empty();
        return res;
      case UopKind::Bar:
        MLGS_REQUIRE(st.entries().size() == 1,
                     "bar.sync inside divergent control flow in ",
                     env.kernel->name);
        cta.setWarpAtBarrier(warp);
        st.advance();
        res.barrier = true;
        return res;
      case UopKind::Membar:
        st.advance();
        return res;
      default:
        break;
    }

    ctx.res = &res;
    ctx.profiler = executor.siteProfiler();
    kHandlers[size_t(u.kind)](u, exec, ctx);
    st.advance();
    return res;
}

void
runWarp(Executor &executor, CtaExec &cta, unsigned warp, const LaunchEnv &env,
        uint64_t max_instr_per_warp, FuncStats *stats)
{
    const UopProgram &prog = programFor(executor, cta);
    SimtStack &st = cta.stack(warp);
    ExecCtx ctx = makeCtx(executor, cta, env, prog, warp);
    ctx.stats = stats;
    CoverageMap *cov = executor.coverage();
    uint64_t &icount = cta.warpInstrCount(warp);
    const Uop *const uops = prog.uops.data();
    const size_t nuops = prog.uops.size();

    while (!st.empty() && !cta.warpAtBarrier(warp) &&
           icount < max_instr_per_warp) {
        uint32_t pc = st.pc();
        const warp_mask_t mask = st.activeMask();
        // Straight-line span: within a basic block the stack is untouched
        // and the active mask is invariant, so the top-of-stack pc is only
        // synced at block ends, control ops, and the instruction limit.
        for (;;) {
            MLGS_ASSERT(pc < nuops, "pc out of range in ", env.kernel->name);
            const Uop &u = uops[pc];
            const warp_mask_t exec = predMask(u, mask, ctx);
            icount++;
            if (cov)
                cov->hit(u.variant_id);
            if (stats)
                stats->count(u, exec);

            if (u.kind >= UopKind::Mov) {
                kHandlers[size_t(u.kind)](u, exec, ctx);
                if (u.ends_block) {
                    st.entries().back().pc = pc;
                    st.advance();
                    break;
                }
                pc++;
                if (icount >= max_instr_per_warp) {
                    st.entries().back().pc = pc;
                    break;
                }
                continue;
            }

            // Control op: sync the deferred pc before any stack mutation.
            st.entries().back().pc = pc;
            if (u.kind == UopKind::Bra) {
                st.branch(exec, u.target_pc, pc + 1, u.reconv_pc);
            } else if (u.kind == UopKind::Exit) {
                st.exitLanes(exec);
                if (exec != mask && !st.empty())
                    st.advance();
            } else if (u.kind == UopKind::Bar) {
                MLGS_REQUIRE(st.entries().size() == 1,
                             "bar.sync inside divergent control flow in ",
                             env.kernel->name);
                cta.setWarpAtBarrier(warp);
                st.advance();
            } else { // Membar
                st.advance();
            }
            break;
        }
    }
}

} // namespace mlgs::func::compiled
