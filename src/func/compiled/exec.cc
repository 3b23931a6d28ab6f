/**
 * @file
 * The compiled micro-op executor. Dispatch is a flat table of per-kind
 * handlers over the lowered uop stream (ptx/uop.h): control kinds are
 * handled inline by the dispatch loop, generic kinds funnel into the shared
 * scalar semantics (func/exec_semantics.h), and the specialized kinds are
 * dense 32-lane loops over pre-resolved register slots, structured so the
 * compiler can unroll/vectorize them. ld and st are warp-wide memory
 * micro-ops that settle element type, state space and bookkeeping once per
 * uop; only atom, tex and generic-space resolution stay per lane.
 *
 * The batch loop (runWarp) additionally exploits the basic-block structure
 * the lowering pass marked via `ends_block`: within a block the active mask
 * is invariant and the SIMT stack is untouched, so the top-of-stack pc is
 * synced only at block boundaries, control ops, and the instruction limit.
 * This is safe because reconvergence targets are always block leaders — a
 * mid-block advance can never trigger a reconvergence pop.
 */
#include "func/compiled/exec.h"

#include <bit>
#include <cstring>
#include <functional>
#include <span>

#include "func/engine.h"
#include "func/exec_semantics.h"
#include "func/executor.h"
#include "func/site_profiler.h"
#include "func/warp_stream.h"
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
    RegVal *regs = nullptr;            ///< lane 0's registers in the CTA file
    size_t stride = 0;                 ///< cells from one lane to the next
    PageHint page;                     ///< last device-memory page touched
    WarpStepResult *res = nullptr;     ///< single-step mode: access sink
    IssueSink *sink = nullptr;         ///< batch mode: issue-record sink
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
    // Lane l's registers are regs + l * stride; lanes past a partial last
    // warp are never in an execution mask, so never addressed.
    ctx.regs = cta.regs(ctx.tid0).data();
    ctx.stride = cta.regsPerThread();
    return ctx;
}

/** Lane `lane`'s register file. */
inline RegVal *
laneRegs(const ExecCtx &ctx, unsigned lane)
{
    return ctx.regs + size_t(lane) * ctx.stride;
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
        const bool p = laneRegs(ctx, lane)[size_t(u.pred)].pred;
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

/** Address of a symbol-based operand ([sym+imm]): the same in every lane. */
addr_t
symAddr(const ExecCtx &ctx, const UopMem &m)
{
    if (m.sym >= 0)
        return runtimeSym(ctx, m.sym) + addr_t(m.imm);
    return windowBase(m.sym_space) + m.sym_off + addr_t(m.imm);
}

/** Pre-resolved effective address with generic-space resolution. */
Ea
uopAddr(const ExecCtx &ctx, const UopMem &m, const RegVal *r)
{
    const addr_t ea = m.base_reg >= 0
                          ? r[size_t(m.base_reg)].u64 + addr_t(m.imm)
                          : symAddr(ctx, m);
    return Ea{resolveSpace(m.space, ea), ea};
}

/**
 * Dense lane loop: the full-mask path is a branch-free 0..31 loop the
 * compiler can unroll/vectorize; the divergent path walks set bits.
 */
#define MLGS_LANE_LOOP(body)                                                  \
    do {                                                                      \
        if (exec == kFullWarpMask) {                                          \
            for (unsigned lane = 0; lane < kWarpSize; lane++) {               \
                RegVal *const r = laneRegs(ctx, lane);                        \
                body;                                                         \
            }                                                                 \
        } else {                                                              \
            warp_mask_t m_ = exec;                                            \
            while (m_) {                                                      \
                const unsigned lane = unsigned(__builtin_ctz(m_));            \
                m_ &= m_ - 1;                                                 \
                RegVal *const r = laneRegs(ctx, lane);                        \
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

// ---- ld/st: warp-wide memory micro-ops ----
//
// One handler per direction, a template over the element's storage type that
// a switch on the uop's type instantiates once per uop. A declared state
// space skips generic-space resolution, a symbol-based address is computed
// once for the warp, and the bookkeeping mode is picked once (MemBook).
//
// An element moves as its low typeSize bytes: a load overwrites exactly
// those bytes of each destination cell and a store takes them from the
// source cell. On the little-endian RegVal union that is writeTyped's and
// storeTyped's effect for every ld/st type, so a u32 load keeps the high
// half of a cell holding a 64-bit value.
static_assert(std::endian::native == std::endian::little,
              "ld/st move elements as the low bytes of a RegVal cell");

/**
 * The per-lane body of a memory micro-op is forced inline into its lane
 * loop: gcc -O3 otherwise keeps it out of line, a call per lane.
 */
#define MLGS_LANE_INLINE [[gnu::always_inline]] inline

/**
 * One ld/st's bookkeeping, set up once per uop. The step path lists each
 * global, const or local lane for FuncStats::accumulate; a batch run with an
 * issue sink coalesces it into the open record's lines; a plain batch run
 * counts the bytes of global and const lanes into FuncStats; checkpoint
 * fast-forward keeps no counts. Shared lanes are counted in every mode, and
 * an attached site profiler and the CTA's race shadow see each one, in lane
 * order. Param and texture lanes are not booked. finish() folds the counts
 * into the sink once the lanes are done.
 */
class MemBook
{
  public:
    MemBook(ExecCtx &ctx, const Uop &u, unsigned bytes, bool is_store)
        : ctx_(ctx), u_(u), race_(ctx.cta->raceShadow()), bytes_(bytes),
          store_(is_store)
    {
        mode_ = ctx.res     ? Mode::Step
                : ctx.sink  ? Mode::Sink
                : ctx.stats ? Mode::Stats
                            : Mode::None;
    }

    /** Book one lane's access of space `sp` at `ea`. */
    MLGS_LANE_INLINE void
    note(Space sp, addr_t ea, unsigned lane)
    {
        if (sp == Space::Global || sp == Space::Const || sp == Space::Local) {
            if (mode_ == Mode::Sink)
                ctx_.sink->access(ea, bytes_, store_);
            else if (mode_ == Mode::Step)
                ctx_.res->accesses.push_back(
                    MemAccess{ea, bytes_, store_, false, sp});
            else if (sp != Space::Local)
                device_lanes_++;
        } else if (sp == Space::Shared) {
            shared_lanes_++;
            if (ctx_.profiler || race_)
                observeShared(ea, lane);
        }
    }

    void
    finish()
    {
        switch (mode_) {
          case Mode::Step:
            ctx_.res->shared_accesses += shared_lanes_;
            break;
          case Mode::Sink:
            ctx_.sink->current().shared_accesses += uint16_t(shared_lanes_);
            break;
          case Mode::Stats:
            ctx_.stats->shared_accesses += shared_lanes_;
            (store_ ? ctx_.stats->global_st_bytes
                    : ctx_.stats->global_ld_bytes) +=
                uint64_t(device_lanes_) * bytes_;
            break;
          case Mode::None:
            break;
        }
    }

  private:
    enum class Mode : uint8_t { Step, Sink, Stats, None };

    void
    observeShared(addr_t ea, unsigned lane)
    {
        if (ctx_.profiler)
            ctx_.profiler->noteSharedLane(ea - kSharedBase, bytes_);
        if (race_)
            race_->onAccess(size_t(ea - kSharedBase), bytes_,
                            ctx_.tid0 + lane, u_.pc, u_.line, store_);
    }

    ExecCtx &ctx_;
    const Uop &u_;
    RaceShadow *race_;
    unsigned bytes_;
    bool store_;
    Mode mode_;
    unsigned device_lanes_ = 0; ///< global/const lanes (Stats mode)
    unsigned shared_lanes_ = 0;
};

[[noreturn, gnu::cold]] void
outOfBounds(const ExecCtx &ctx, Space sp, addr_t off, const char *what)
{
    fatal(ptx::spaceName(sp), " ", what, " out of bounds in ",
          ctx.env->kernel->name, " offset ", off);
}

/** Offset of an `n`-byte access at `ea` into a window of `size` bytes. */
MLGS_LANE_INLINE addr_t
windowOffset(const ExecCtx &ctx, Space sp, addr_t ea, addr_t base, size_t n,
             size_t size, const char *what)
{
    const addr_t off = ea - base;
    if (!inWindow(off, n, size))
        outOfBounds(ctx, sp, off, what);
    return off;
}

/**
 * Bytes of one lane's `n`-byte access at `ea` in CTA-shared or
 * thread-local memory, bounds-checked; `what` ("read" or "write") names the
 * access in the FatalError.
 */
MLGS_LANE_INLINE uint8_t *
windowBytes(ExecCtx &ctx, Space sp, addr_t ea, size_t n, unsigned lane,
            const char *what)
{
    const std::span<uint8_t> bytes = sp == Space::Shared
                                         ? std::span(ctx.cta->shared())
                                         : ctx.cta->local(ctx.tid0 + lane);
    return bytes.data() +
           windowOffset(ctx, sp, ea,
                        sp == Space::Shared ? kSharedBase : kLocalBase, n,
                        bytes.size(), what);
}

/**
 * Where one lane reads its `n` bytes at `ea` in space `sp`: in place for
 * shared, local and param (bounds-checked) and for device memory on the
 * hinted page; any other device access is copied into `buf` by GpuMemory,
 * where a page never written reads as zeros and stays absent.
 */
MLGS_LANE_INLINE const uint8_t *
laneSrc(ExecCtx &ctx, Space sp, addr_t ea, size_t n, unsigned lane,
        uint8_t *buf)
{
    if (sp == Space::Shared || sp == Space::Local)
        return windowBytes(ctx, sp, ea, n, lane, "read");
    if (sp == Space::Param) {
        const std::vector<uint8_t> &params = ctx.env->params;
        return params.data() + windowOffset(ctx, sp, ea, kParamBase, n,
                                            params.size(), "read");
    }
    const size_t off = size_t(ea & (GpuMemory::kPageSize - 1));
    if ((ea >> GpuMemory::kPageBits) == ctx.page.page &&
        off + n <= GpuMemory::kPageSize)
        return ctx.page.bytes + off;
    ctx.mem->read(ea, buf, n, &ctx.page);
    return buf;
}

/** One lane's `n`-byte store at `ea` in space `sp` (see laneSrc). */
MLGS_LANE_INLINE void
laneStore(ExecCtx &ctx, Space sp, addr_t ea, const uint8_t *bytes, size_t n,
          unsigned lane)
{
    if (sp == Space::Param)
        fatal("stores to param space are not allowed");
    if (sp == Space::Shared || sp == Space::Local) {
        std::memcpy(windowBytes(ctx, sp, ea, n, lane, "write"), bytes, n);
        return;
    }
    const size_t off = size_t(ea & (GpuMemory::kPageSize - 1));
    if ((ea >> GpuMemory::kPageBits) == ctx.page.page &&
        off + n <= GpuMemory::kPageSize)
        std::memcpy(ctx.page.bytes + off, bytes, n);
    else
        ctx.mem->write(ea, bytes, n, &ctx.page);
}

/** A load's `n` elements of type E at `src` into the `dst` cells. */
template <typename E>
MLGS_LANE_INLINE void
scatter(RegVal *r, const int32_t *dst, unsigned n, const uint8_t *src)
{
    for (unsigned i = 0; i < n; i++)
        std::memcpy(static_cast<void *>(&r[size_t(dst[i])]),
                    src + i * sizeof(E), sizeof(E));
}

/** One lane of an ld: read, write the destination cells, book. */
template <typename E>
MLGS_LANE_INLINE void
loadLane(ExecCtx &ctx, const Uop &u, MemBook &book, RegVal *r, unsigned lane,
         Space sp, addr_t ea)
{
    const unsigned n = u.vec_width;
    uint8_t buf[4 * sizeof(E)];
    scatter<E>(r, n == 1 ? &u.dst : u.dvec, n,
               laneSrc(ctx, sp, ea, n * sizeof(E), lane, buf));
    book.note(sp, ea, lane);
}

/** One lane of an st: gather the source cells, write, book. */
template <typename E>
MLGS_LANE_INLINE void
storeLane(ExecCtx &ctx, const Uop &u, MemBook &book, RegVal *r,
          unsigned lane, Space sp, addr_t ea)
{
    const unsigned n = u.vec_width;
    uint8_t buf[4 * sizeof(E)];
    if (n == 1) {
        const RegVal v = u.a.kind == UopSrc::K::Reg
                             ? r[size_t(u.a.reg)]
                             : srcVal(ctx, u.a, lane, r);
        std::memcpy(buf, &v, sizeof(E));
    } else {
        for (unsigned i = 0; i < n; i++)
            std::memcpy(buf + i * sizeof(E), &r[size_t(u.svec[i])],
                        sizeof(E));
    }
    laneStore(ctx, sp, ea, buf, n * sizeof(E), lane);
    book.note(sp, ea, lane);
}

/** ld over the active lanes, E being the element's storage type. */
template <typename E>
void
ldWarp(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    const UopMem &m = u.mem;
    MemBook book(ctx, u, u.vec_width * unsigned(sizeof(E)), false);
    if (m.base_reg >= 0 && m.space != Space::None) {
        const Space sp = m.space;
        MLGS_LANE_LOOP(loadLane<E>(ctx, u, book, r, lane, sp,
                                   r[size_t(m.base_reg)].u64 +
                                       addr_t(m.imm)));
    } else if (m.base_reg >= 0) {
        MLGS_LANE_LOOP({
            const addr_t ea = r[size_t(m.base_reg)].u64 + addr_t(m.imm);
            loadLane<E>(ctx, u, book, r, lane, resolveSpace(Space::None, ea),
                        ea);
        });
    } else {
        // A uniform address: read once and broadcast, except from .local,
        // whose storage is per thread.
        const addr_t ea = symAddr(ctx, m);
        const Space sp = resolveSpace(m.space, ea);
        if (sp == Space::Local) {
            MLGS_LANE_LOOP(loadLane<E>(ctx, u, book, r, lane, sp, ea));
        } else {
            uint8_t buf[4 * sizeof(E)];
            const uint8_t *src =
                laneSrc(ctx, sp, ea, u.vec_width * sizeof(E), 0, buf);
            MLGS_LANE_LOOP({
                scatter<E>(r, u.vec_width == 1 ? &u.dst : u.dvec,
                           u.vec_width, src);
                book.note(sp, ea, lane);
            });
        }
    }
    book.finish();
}

/** st over the active lanes, E being the element's storage type. */
template <typename E>
void
stWarp(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    const UopMem &m = u.mem;
    MemBook book(ctx, u, u.vec_width * unsigned(sizeof(E)), true);
    if (m.base_reg >= 0 && m.space != Space::None) {
        const Space sp = m.space;
        MLGS_LANE_LOOP(storeLane<E>(ctx, u, book, r, lane, sp,
                                    r[size_t(m.base_reg)].u64 +
                                        addr_t(m.imm)));
    } else if (m.base_reg >= 0) {
        MLGS_LANE_LOOP({
            const addr_t ea = r[size_t(m.base_reg)].u64 + addr_t(m.imm);
            storeLane<E>(ctx, u, book, r, lane,
                         resolveSpace(Space::None, ea), ea);
        });
    } else {
        const addr_t ea = symAddr(ctx, m);
        const Space sp = resolveSpace(m.space, ea);
        MLGS_LANE_LOOP(storeLane<E>(ctx, u, book, r, lane, sp, ea));
    }
    book.finish();
}

#undef MLGS_LANE_INLINE

/** Storage bytes of one ld/st element of type `t`. */
unsigned
elementBytes(Type t)
{
    const unsigned b = t == Type::Pred ? 0 : ptx::typeSize(t);
    MLGS_ASSERT(b != 0, "ld/st of type ", ptx::typeName(t));
    return b;
}

void
hLd(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    if (!exec)
        return;
    switch (elementBytes(u.type)) {
      case 1: return ldWarp<uint8_t>(u, exec, ctx);
      case 2: return ldWarp<uint16_t>(u, exec, ctx);
      case 4: return ldWarp<uint32_t>(u, exec, ctx);
      default: return ldWarp<uint64_t>(u, exec, ctx);
    }
}

void
hSt(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    if (!exec)
        return;
    switch (elementBytes(u.type)) {
      case 1: return stWarp<uint8_t>(u, exec, ctx);
      case 2: return stWarp<uint16_t>(u, exec, ctx);
      case 4: return stWarp<uint32_t>(u, exec, ctx);
      default: return stWarp<uint64_t>(u, exec, ctx);
    }
}

void
hAtom(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP({
        const unsigned tid = ctx.tid0 + lane;
        const Ea ea = uopAddr(ctx, u.mem, r);
        RegVal old;
        loadTyped(*ctx.mem, ea, u.type, 1, &old, *ctx.cta, tid, *ctx.env,
                  &ctx.page);
        const RegVal b = srcVal(ctx, u.a, lane, r);
        RegVal swap{};
        if (u.atom_op == AtomOp::Cas)
            swap = srcVal(ctx, u.b, lane, r);
        const RegVal next = atomNext(u.atom_op, u.type, old, b, swap);
        storeTyped(*ctx.mem, ea, u.type, 1, &next, *ctx.cta, tid, &ctx.page);
        if (u.dst >= 0)
            writeTyped(r[size_t(u.dst)], u.type, old);
        if (ea.space == Space::Shared) {
            if (ctx.res)
                ctx.res->shared_accesses++;
            else if (ctx.sink)
                ctx.sink->sharedLane();
            else if (ctx.stats)
                ctx.stats->shared_accesses++;
            if (ctx.profiler)
                ctx.profiler->noteSharedLane(ea.addr - kSharedBase,
                                             ptx::typeSize(u.type));
        } else if (ctx.res) {
            ctx.res->accesses.push_back(MemAccess{
                ea.addr, ptx::typeSize(u.type), true, true, ea.space});
        } else if (ctx.sink) {
            ctx.sink->access(ea.addr, ptx::typeSize(u.type), true);
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
        const TexFetch f =
            texFetch(*ctx.mem, *bind, u.tex_dim, xi, yi, &ctx.page);
        if (f.hit) {
            if (ctx.res)
                ctx.res->accesses.push_back(
                    MemAccess{f.base, f.bytes, false, false, Space::Tex});
            else if (ctx.sink)
                ctx.sink->access(f.base, f.bytes, false);
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

/**
 * setp over the active lanes on u32 views XORed with `bias`, comparing with
 * `cmp` (chosen by the caller once per uop).
 */
template <typename Cmp>
inline void
setpLanes(const Uop &u, warp_mask_t exec, ExecCtx &ctx, uint32_t bias,
          Cmp cmp)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].pred = cmp(srcRI(u.a, r).u32 ^ bias,
                                               srcRI(u.b, r).u32 ^ bias));
}

void
hSetp32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    // setpCompare for 32-bit integer types with the comparison picked once
    // per uop. Flipping the sign bit maps s32 order onto u32 order, so a
    // signed type's Lt..Ge compare biased values; Lo/Ls/Hi/Hs and unsigned
    // or bit types compare plain u32. Equality is the same either way.
    const bool as_unsigned = u.cmp == CmpOp::Lo || u.cmp == CmpOp::Ls ||
                             u.cmp == CmpOp::Hi || u.cmp == CmpOp::Hs ||
                             !ptx::isSigned(u.type);
    const uint32_t bias = as_unsigned ? 0 : 0x80000000u;
    switch (u.cmp) {
      case CmpOp::Eq:
        return setpLanes(u, exec, ctx, bias, std::equal_to<uint32_t>());
      case CmpOp::Ne:
        return setpLanes(u, exec, ctx, bias, std::not_equal_to<uint32_t>());
      case CmpOp::Lt: case CmpOp::Lo:
        return setpLanes(u, exec, ctx, bias, std::less<uint32_t>());
      case CmpOp::Le: case CmpOp::Ls:
        return setpLanes(u, exec, ctx, bias, std::less_equal<uint32_t>());
      case CmpOp::Gt: case CmpOp::Hi:
        return setpLanes(u, exec, ctx, bias, std::greater<uint32_t>());
      case CmpOp::Ge: case CmpOp::Hs:
        return setpLanes(u, exec, ctx, bias, std::greater_equal<uint32_t>());
    }
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

void
stepWarp(Executor &executor, CtaExec &cta, unsigned warp,
         const LaunchEnv &env, WarpStepResult &res)
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

    res.reset(&env.kernel->instrs[pc], pc, exec);
    cta.warpInstrCount(warp)++;
    if (CoverageMap *cov = executor.coverage())
        cov->hit(u.variant_id);

    switch (u.kind) {
      case UopKind::Bra:
        st.branch(exec, u.target_pc, pc + 1, u.reconv_pc);
        return;
      case UopKind::Exit:
        st.exitLanes(exec);
        if (exec != mask && !st.empty())
            st.advance();
        res.exited = st.empty();
        return;
      case UopKind::Bar:
        MLGS_REQUIRE(st.entries().size() == 1,
                     "bar.sync inside divergent control flow in ",
                     env.kernel->name);
        cta.setWarpAtBarrier(warp);
        st.advance();
        res.barrier = true;
        return;
      case UopKind::Membar:
        st.advance();
        return;
      default:
        break;
    }

    ctx.res = &res;
    ctx.profiler = executor.siteProfiler();
    kHandlers[size_t(u.kind)](u, exec, ctx);
    st.advance();
}

void
runWarp(Executor &executor, CtaExec &cta, unsigned warp, const LaunchEnv &env,
        uint64_t max_instr_per_warp, FuncStats *stats, IssueSink *sink)
{
    const UopProgram &prog = programFor(executor, cta);
    SimtStack &st = cta.stack(warp);
    ExecCtx ctx = makeCtx(executor, cta, env, prog, warp);
    ctx.stats = stats;
    ctx.sink = sink;
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
            if (sink)
                sink->begin(pc, exec);

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
                if (sink)
                    sink->current().exited = st.empty();
            } else if (u.kind == UopKind::Bar) {
                MLGS_REQUIRE(st.entries().size() == 1,
                             "bar.sync inside divergent control flow in ",
                             env.kernel->name);
                cta.setWarpAtBarrier(warp);
                st.advance();
                if (sink)
                    sink->current().barrier = true;
            } else { // Membar
                st.advance();
            }
            break;
        }
    }
}

} // namespace mlgs::func::compiled
