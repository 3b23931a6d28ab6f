/**
 * @file
 * The scalar execution semantics of the PTX dialect, shared by every handler
 * of the compiled micro-op executor (src/func/compiled/). Everything here is
 * deliberately deterministic down to the bit: canonical NaN on computed
 * float results, -0 < +0 min/max ordering, partial-union register writes,
 * f32 arithmetic via a double round-trip. The difftest corpus checks the
 * results against the independent scalar reference (difftest::RefExec).
 */
#ifndef MLGS_FUNC_EXEC_SEMANTICS_H
#define MLGS_FUNC_EXEC_SEMANTICS_H

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/fp16.h"
#include "func/bug_model.h"
#include "func/cta_exec.h"
#include "func/launch_env.h"
#include "mem/addrspace.h"
#include "mem/gpu_memory.h"
#include "ptx/ir.h"

namespace mlgs::func
{

/** Read an operand value as a signed 64-bit integer per type. */
inline int64_t
asS64(ptx::Type t, const ptx::RegVal &v)
{
    using ptx::Type;
    switch (t) {
      case Type::S8: return v.s8;
      case Type::S16: return v.s16;
      case Type::S32: return v.s32;
      case Type::S64: return v.s64;
      case Type::U8: case Type::B8: return int64_t(v.u8);
      case Type::U16: case Type::B16: return int64_t(v.u16);
      case Type::U32: case Type::B32: return int64_t(v.u32);
      case Type::U64: case Type::B64: return int64_t(v.u64);
      default: panic("asS64 on non-integer type");
    }
}

/** Read an operand value as an unsigned 64-bit integer per type. */
inline uint64_t
asU64(ptx::Type t, const ptx::RegVal &v)
{
    using ptx::Type;
    switch (t) {
      case Type::U8: case Type::B8: case Type::S8: return v.u8;
      case Type::U16: case Type::B16: case Type::S16: return v.u16;
      case Type::U32: case Type::B32: case Type::S32: return v.u32;
      case Type::U64: case Type::B64: case Type::S64: return v.u64;
      default: panic("asU64 on non-integer type");
    }
}

/** Read a float operand (f16 is widened to f32). */
inline double
asF(ptx::Type t, const ptx::RegVal &v)
{
    using ptx::Type;
    switch (t) {
      case Type::F16: return fp16ToFp32(v.f16bits);
      case Type::F32: return v.f32;
      case Type::F64: return v.f64;
      default: panic("asF on non-float type");
    }
}

/** Build a RegVal holding x in the field selected by t (other bits zero). */
inline ptx::RegVal
makeInt(ptx::Type t, uint64_t x)
{
    using ptx::Type;
    ptx::RegVal v;
    switch (t) {
      case Type::U8: case Type::B8: case Type::S8: v.u8 = uint8_t(x); break;
      case Type::U16: case Type::B16: case Type::S16: v.u16 = uint16_t(x); break;
      case Type::U32: case Type::B32: case Type::S32: v.u32 = uint32_t(x); break;
      case Type::U64: case Type::B64: case Type::S64: v.u64 = x; break;
      default: panic("makeInt on non-integer type");
    }
    return v;
}

/**
 * Arithmetic instructions generate the canonical NaN (0x7fffffff for f32,
 * 0x7fff for f16), as real SMs do per the PTX ISA. Host NaN propagation is
 * operand-order dependent (x86 keeps one source's payload), so without this
 * the same kernel could produce different NaN bits across compilers. Data
 * movement (ld/st/mov) still preserves NaN payloads — only results computed
 * through makeF are canonicalized. f64 payloads are preserved, also per ISA.
 */
inline ptx::RegVal
makeF(ptx::Type t, double x)
{
    using ptx::Type;
    ptx::RegVal v;
    switch (t) {
      case Type::F16:
        v.f16bits = std::isnan(x) ? 0x7fff : fp32ToFp16(float(x));
        break;
      case Type::F32:
        if (std::isnan(x)) {
            v.u32 = 0x7fffffffu;
            break;
        }
        v.f32 = float(x);
        break;
      case Type::F64: v.f64 = x; break;
      default: panic("makeF on non-float type");
    }
    return v;
}

/** Bit width of an integer type. */
inline unsigned
bitWidth(ptx::Type t)
{
    return ptx::typeSize(t) * 8;
}

/**
 * PTX min/max: a NaN operand is dropped in favour of the other, and signed
 * zeros are ordered -0 < +0 (IEEE 754-2019 minimum/maximum). libm's
 * fmin/fmax leave the zero case unspecified — the result flips with how the
 * compiler schedules the call — so spell the semantics out.
 */
inline double
fminDet(double x, double y)
{
    if (std::isnan(x))
        return y;
    if (std::isnan(y))
        return x;
    if (x == y)
        return std::signbit(x) ? x : y;
    return x < y ? x : y;
}

inline double
fmaxDet(double x, double y)
{
    if (std::isnan(x))
        return y;
    if (std::isnan(y))
        return x;
    if (x == y)
        return std::signbit(x) ? y : x;
    return x > y ? x : y;
}

/**
 * Write only the destination-typed field of the register, leaving the other
 * union bytes untouched — the exact ptx_reg_t semantics that make the
 * legacy untyped-rem bug observable.
 */
inline void
writeTyped(ptx::RegVal &d, ptx::Type t, const ptx::RegVal &v)
{
    using ptx::Type;
    switch (t) {
      case Type::U8: case Type::B8: d.u8 = v.u8; break;
      case Type::S8: d.s8 = v.s8; break;
      case Type::U16: case Type::B16: d.u16 = v.u16; break;
      case Type::S16: d.s16 = v.s16; break;
      case Type::F16: d.f16bits = v.f16bits; break;
      case Type::U32: case Type::B32: d.u32 = v.u32; break;
      case Type::S32: d.s32 = v.s32; break;
      case Type::F32: d.f32 = v.f32; break;
      case Type::U64: case Type::B64: d.u64 = v.u64; break;
      case Type::S64: d.s64 = v.s64; break;
      case Type::F64: d.f64 = v.f64; break;
      case Type::Pred: d.pred = v.pred; break;
      default: panic("writeTyped: bad type");
    }
}

/** Saturating float -> integer conversion bound helper. */
inline int64_t
clampToSigned(double x, unsigned bits)
{
    const double lo = -std::ldexp(1.0, int(bits - 1));
    const double hi = std::ldexp(1.0, int(bits - 1)) - 1.0;
    if (std::isnan(x))
        return 0;
    if (x < lo)
        return int64_t(lo);
    if (x > hi)
        return bits == 64 ? INT64_MAX : int64_t(hi);
    return int64_t(x);
}

inline uint64_t
clampToUnsigned(double x, unsigned bits)
{
    if (std::isnan(x) || x < 0)
        return 0;
    const double hi = std::ldexp(1.0, int(bits)) - 1.0;
    if (x > hi)
        return bits == 64 ? UINT64_MAX : uint64_t(hi);
    return uint64_t(x);
}

/** Special-register value for a thread. */
inline uint32_t
readSpecial(ptx::SReg sreg, const CtaExec &cta, unsigned tid)
{
    const Dim3 tix = cta.threadIdx3(tid);
    switch (sreg) {
      case ptx::SReg::TidX: return tix.x;
      case ptx::SReg::TidY: return tix.y;
      case ptx::SReg::TidZ: return tix.z;
      case ptx::SReg::NTidX: return cta.blockDim().x;
      case ptx::SReg::NTidY: return cta.blockDim().y;
      case ptx::SReg::NTidZ: return cta.blockDim().z;
      case ptx::SReg::CtaIdX: return cta.ctaId().x;
      case ptx::SReg::CtaIdY: return cta.ctaId().y;
      case ptx::SReg::CtaIdZ: return cta.ctaId().z;
      case ptx::SReg::NCtaIdX: return cta.gridDim().x;
      case ptx::SReg::NCtaIdY: return cta.gridDim().y;
      case ptx::SReg::NCtaIdZ: return cta.gridDim().z;
      case ptx::SReg::LaneId: return tid % kWarpSize;
      case ptx::SReg::WarpId: return tid / kWarpSize;
      case ptx::SReg::Clock: return uint32_t(cta.totalInstrCount());
      default: panic("bad special register");
    }
}

/** Resolved effective address. */
struct Ea
{
    ptx::Space space;
    addr_t addr; ///< absolute (window-relative encoding preserved)
};

/** Generic-space resolution: classify an address by its window. */
inline ptx::Space
resolveSpace(ptx::Space sp, addr_t ea)
{
    using ptx::Space;
    if (sp != Space::None)
        return sp;
    if (inSharedWindow(ea))
        return Space::Shared;
    if (inLocalWindow(ea))
        return Space::Local;
    if (inParamWindow(ea))
        return Space::Param;
    return Space::Global;
}

/**
 * Whether `n` bytes at offset `off` lie inside a window of `size` bytes. An
 * address below the window wraps `off` around, so `off + n` must not be
 * formed.
 */
inline bool
inWindow(addr_t off, size_t n, size_t size)
{
    return off <= size && n <= size - off;
}

/**
 * Typed load of `vec` elements from any state space. `hint` (may be null)
 * speeds up global/const reads that stay on one page.
 */
inline void
loadTyped(GpuMemory &mem, const Ea &ea, ptx::Type t, unsigned vec,
          ptx::RegVal *out, CtaExec &cta, unsigned tid, const LaunchEnv &env,
          PageHint *hint)
{
    using ptx::Space;
    using ptx::Type;
    const unsigned esz = ptx::typeSize(t);
    uint8_t bytes[32];
    const size_t total = size_t(esz) * vec;
    MLGS_ASSERT(total <= sizeof(bytes), "vector load too wide");

    switch (ea.space) {
      case Space::Param: {
        const addr_t off = ea.addr - kParamBase;
        MLGS_REQUIRE(inWindow(off, total, env.params.size()),
                     "param read out of bounds in ", env.kernel->name);
        std::memcpy(bytes, env.params.data() + off, total);
        break;
      }
      case Space::Shared: {
        const addr_t off = ea.addr - kSharedBase;
        MLGS_REQUIRE(inWindow(off, total, cta.shared().size()),
                     "shared read out of bounds in ", env.kernel->name,
                     " offset ", off);
        std::memcpy(bytes, cta.shared().data() + off, total);
        break;
      }
      case Space::Local: {
        const addr_t off = ea.addr - kLocalBase;
        const auto local = cta.local(tid);
        MLGS_REQUIRE(inWindow(off, total, local.size()),
                     "local read out of bounds");
        std::memcpy(bytes, local.data() + off, total);
        break;
      }
      default:
        mem.read(ea.addr, bytes, total, hint);
        break;
    }

    for (unsigned i = 0; i < vec; i++) {
        ptx::RegVal v;
        const uint8_t *p = bytes + size_t(i) * esz;
        switch (t) {
          case Type::U8: case Type::B8: v.u64 = p[0]; break;
          case Type::S8: v.s64 = int8_t(p[0]); break;
          case Type::U16: case Type::B16: case Type::F16: {
            uint16_t x;
            std::memcpy(&x, p, 2);
            if (t == Type::F16)
                v.f16bits = x;
            else
                v.u64 = x;
            break;
          }
          case Type::S16: {
            int16_t x;
            std::memcpy(&x, p, 2);
            v.s64 = x;
            break;
          }
          case Type::U32: case Type::B32: {
            uint32_t x;
            std::memcpy(&x, p, 4);
            v.u64 = x;
            break;
          }
          case Type::S32: {
            int32_t x;
            std::memcpy(&x, p, 4);
            v.s64 = x;
            break;
          }
          case Type::F32: std::memcpy(&v.f32, p, 4); break;
          case Type::U64: case Type::B64: case Type::S64:
            std::memcpy(&v.u64, p, 8);
            break;
          case Type::F64: std::memcpy(&v.f64, p, 8); break;
          default: panic("loadTyped: bad type");
        }
        out[i] = v;
    }
}

/** Typed store of `vec` elements into any state space (`hint` may be null). */
inline void
storeTyped(GpuMemory &mem, const Ea &ea, ptx::Type t, unsigned vec,
           const ptx::RegVal *vals, CtaExec &cta, unsigned tid,
           PageHint *hint)
{
    using ptx::Space;
    using ptx::Type;
    const unsigned esz = ptx::typeSize(t);
    uint8_t bytes[32];
    const size_t total = size_t(esz) * vec;
    MLGS_ASSERT(total <= sizeof(bytes), "vector store too wide");

    for (unsigned i = 0; i < vec; i++) {
        uint8_t *p = bytes + size_t(i) * esz;
        const ptx::RegVal &v = vals[i];
        switch (t) {
          case Type::U8: case Type::B8: case Type::S8: p[0] = v.u8; break;
          case Type::U16: case Type::B16: case Type::S16:
            std::memcpy(p, &v.u16, 2);
            break;
          case Type::F16: std::memcpy(p, &v.f16bits, 2); break;
          case Type::U32: case Type::B32: case Type::S32:
            std::memcpy(p, &v.u32, 4);
            break;
          case Type::F32: std::memcpy(p, &v.f32, 4); break;
          case Type::U64: case Type::B64: case Type::S64:
            std::memcpy(p, &v.u64, 8);
            break;
          case Type::F64: std::memcpy(p, &v.f64, 8); break;
          default: panic("storeTyped: bad type");
        }
    }

    switch (ea.space) {
      case Space::Param:
        fatal("stores to param space are not allowed");
      case Space::Shared: {
        const addr_t off = ea.addr - kSharedBase;
        MLGS_REQUIRE(inWindow(off, total, cta.shared().size()),
                     "shared write out of bounds offset ", off);
        std::memcpy(cta.shared().data() + off, bytes, total);
        break;
      }
      case Space::Local: {
        const addr_t off = ea.addr - kLocalBase;
        const auto local = cta.local(tid);
        MLGS_REQUIRE(inWindow(off, total, local.size()),
                     "local write out of bounds");
        std::memcpy(local.data() + off, bytes, total);
        break;
      }
      default:
        mem.write(ea.addr, bytes, total, hint);
        break;
    }
}

/** Two/three-operand ALU semantics (add..lg2); bug flags parameterized. */
inline ptx::RegVal
execAluOp(const BugModel &bugs, ptx::Op op, ptx::Type t, ptx::MulMode mul_mode,
          const ptx::RegVal &a, const ptx::RegVal &b, const ptx::RegVal &c)
{
    using ptx::MulMode;
    using ptx::Op;
    using ptx::RegVal;
    using ptx::Type;
    using ptx::isFloat;
    using ptx::isSigned;

    switch (op) {
      case Op::Add:
        if (isFloat(t))
            return makeF(t, asF(t, a) + asF(t, b));
        return makeInt(t, asU64(t, a) + asU64(t, b));
      case Op::Sub:
        if (isFloat(t))
            return makeF(t, asF(t, a) - asF(t, b));
        return makeInt(t, asU64(t, a) - asU64(t, b));
      case Op::Mul:
      case Op::Mad: {
        RegVal prod;
        if (isFloat(t)) {
            prod = makeF(t, asF(t, a) * asF(t, b));
        } else {
            switch (mul_mode) {
              case MulMode::Wide: {
                // Destination is double-width.
                if (isSigned(t)) {
                    const int64_t p = asS64(t, a) * asS64(t, b);
                    prod = makeInt(t == Type::S32 ? Type::S64 : Type::S32,
                                   uint64_t(p));
                } else {
                    const uint64_t p = asU64(t, a) * asU64(t, b);
                    prod = makeInt(t == Type::U32 ? Type::U64 : Type::U32, p);
                }
                break;
              }
              case MulMode::Hi: {
                if (bitWidth(t) == 32) {
                    if (isSigned(t)) {
                        const int64_t p = asS64(t, a) * asS64(t, b);
                        prod = makeInt(t, uint64_t(p >> 32));
                    } else {
                        const uint64_t p = asU64(t, a) * asU64(t, b);
                        prod = makeInt(t, p >> 32);
                    }
                } else {
                    const uint64_t p =
                        uint64_t((__uint128_t(asU64(t, a)) * asU64(t, b)) >> 64);
                    prod = makeInt(t, p);
                }
                break;
              }
              default:
                prod = makeInt(t, asU64(t, a) * asU64(t, b));
                break;
            }
        }
        if (op == Op::Mul)
            return prod;
        // mad: accumulate in the product's (possibly widened) type.
        if (isFloat(t))
            return makeF(t, asF(t, prod) + asF(t, c));
        const Type acc_t = (mul_mode == MulMode::Wide)
                               ? (bitWidth(t) == 32
                                      ? (isSigned(t) ? Type::S64 : Type::U64)
                                      : (isSigned(t) ? Type::S32 : Type::U32))
                               : t;
        return makeInt(acc_t, asU64(acc_t, prod) + asU64(acc_t, c));
      }
      case Op::Fma: {
        if (t == Type::F64) {
            return makeF(t, bugs.split_fma ? a.f64 * b.f64 + c.f64
                                           : std::fma(a.f64, b.f64, c.f64));
        }
        const float fa = float(asF(t, a)), fb = float(asF(t, b)),
                    fc = float(asF(t, c));
        const float r = bugs.split_fma ? fa * fb + fc : std::fmaf(fa, fb, fc);
        return makeF(t, r);
      }
      case Op::Div:
        if (isFloat(t))
            return makeF(t, asF(t, a) / asF(t, b));
        if (isSigned(t)) {
            const int64_t sa = asS64(t, a), sb = asS64(t, b);
            if (sb == 0)
                return makeInt(t, ~0ull);
            if (sa == INT64_MIN && sb == -1)
                return makeInt(t, uint64_t(sa));
            return makeInt(t, uint64_t(sa / sb));
        } else {
            const uint64_t ua = asU64(t, a), ub = asU64(t, b);
            return makeInt(t, ub == 0 ? ~0ull : ua / ub);
        }
      case Op::Rem: {
        if (bugs.legacy_rem) {
            // The original GPGPU-Sim rem_impl the paper fixed:
            //   data.u64 = src1_data.u64 % src2_data.u64;
            // ignoring both signedness and operand width.
            RegVal d;
            d.u64 = b.u64 == 0 ? a.u64 : a.u64 % b.u64;
            return d;
        }
        if (isSigned(t)) {
            const int64_t sa = asS64(t, a), sb = asS64(t, b);
            if (sb == 0)
                return makeInt(t, uint64_t(sa));
            if (sa == INT64_MIN && sb == -1)
                return makeInt(t, 0);
            return makeInt(t, uint64_t(sa % sb));
        } else {
            const uint64_t ua = asU64(t, a), ub = asU64(t, b);
            return makeInt(t, ub == 0 ? ua : ua % ub);
        }
      }
      case Op::Abs:
        if (isFloat(t))
            return makeF(t, std::fabs(asF(t, a)));
        return makeInt(t, uint64_t(std::llabs(asS64(t, a))));
      case Op::Neg:
        if (isFloat(t))
            return makeF(t, -asF(t, a));
        return makeInt(t, uint64_t(-asS64(t, a)));
      case Op::Min:
        if (isFloat(t))
            return makeF(t, fminDet(asF(t, a), asF(t, b)));
        if (isSigned(t))
            return makeInt(t, uint64_t(std::min(asS64(t, a), asS64(t, b))));
        return makeInt(t, std::min(asU64(t, a), asU64(t, b)));
      case Op::Max:
        if (isFloat(t))
            return makeF(t, fmaxDet(asF(t, a), asF(t, b)));
        if (isSigned(t))
            return makeInt(t, uint64_t(std::max(asS64(t, a), asS64(t, b))));
        return makeInt(t, std::max(asU64(t, a), asU64(t, b)));
      case Op::And:
        return makeInt(t, asU64(t, a) & asU64(t, b));
      case Op::Or:
        return makeInt(t, asU64(t, a) | asU64(t, b));
      case Op::Xor:
        return makeInt(t, asU64(t, a) ^ asU64(t, b));
      case Op::Not:
        return makeInt(t, ~asU64(t, a));
      case Op::Shl: {
        const unsigned w = bitWidth(t);
        const uint32_t s = b.u32;
        return makeInt(t, s >= w ? 0 : asU64(t, a) << s);
      }
      case Op::Shr: {
        const unsigned w = bitWidth(t);
        const uint32_t s = b.u32;
        if (isSigned(t)) {
            const int64_t sa = asS64(t, a);
            return makeInt(t, uint64_t(sa >> std::min(s, w - 1)));
        }
        return makeInt(t, s >= w ? 0 : asU64(t, a) >> s);
      }
      case Op::Brev: {
        const unsigned w = bitWidth(t);
        const uint64_t x = asU64(t, a);
        uint64_t r = 0;
        for (unsigned i = 0; i < w; i++)
            if ((x >> i) & 1)
                r |= 1ull << (w - 1 - i);
        return makeInt(t, r);
      }
      case Op::Bfe: {
        const unsigned w = bitWidth(t);
        const uint64_t x = asU64(t, a);
        const uint32_t pos = b.u32 & 0xff;
        const uint32_t len = c.u32 & 0xff;
        if (len == 0)
            return makeInt(t, 0);
        uint64_t field;
        if (pos >= w)
            field = 0;
        else
            field = x >> pos;
        const uint64_t mask = len >= 64 ? ~0ull : ((1ull << len) - 1);
        field &= mask;
        if (isSigned(t) && !bugs.legacy_bfe) {
            // Sign bit is the msb of the extracted field (or of the source
            // when the field extends past it).
            const uint32_t sb = std::min(pos + len - 1, w - 1);
            if ((x >> sb) & 1)
                field |= ~mask;
        }
        // legacy_bfe: the pre-fix behaviour — no sign extension at all.
        return makeInt(t, field);
      }
      case Op::Popc:
        return makeInt(Type::U32, uint64_t(__builtin_popcountll(asU64(t, a))));
      case Op::Clz: {
        const unsigned w = bitWidth(t);
        const uint64_t x = asU64(t, a);
        unsigned n = 0;
        for (int i = int(w) - 1; i >= 0 && !((x >> i) & 1); i--)
            n++;
        return makeInt(Type::U32, n);
      }
      case Op::Rcp:
        return makeF(t, 1.0 / asF(t, a));
      case Op::Sqrt:
        return makeF(t, std::sqrt(asF(t, a)));
      case Op::Rsqrt:
        return makeF(t, 1.0 / std::sqrt(asF(t, a)));
      case Op::Sin:
        return makeF(t, std::sin(asF(t, a)));
      case Op::Cos:
        return makeF(t, std::cos(asF(t, a)));
      case Op::Ex2:
        return makeF(t, std::exp2(asF(t, a)));
      case Op::Lg2:
        return makeF(t, std::log2(asF(t, a)));
      default:
        panic("execAlu: unhandled op ", ptx::opName(op));
    }
}

/** cvt semantics: dt <- st with the instruction's rounding mode. */
inline ptx::RegVal
execCvt(ptx::Type dt, ptx::Type st, ptx::CvtRound round, const ptx::RegVal &a)
{
    using ptx::isFloat;
    using ptx::isSigned;
    ptx::RegVal out;
    if (isFloat(st) && isFloat(dt)) {
        out = makeF(dt, asF(st, a));
    } else if (isFloat(st)) {
        // float -> int, saturating; default rounding truncates (rzi);
        // .rni rounds to nearest even.
        double x = asF(st, a);
        if (round == ptx::CvtRound::Nearest)
            x = std::nearbyint(x);
        else
            x = std::trunc(x);
        if (isSigned(dt))
            out = makeInt(dt, uint64_t(clampToSigned(x, bitWidth(dt))));
        else
            out = makeInt(dt, clampToUnsigned(x, bitWidth(dt)));
    } else if (isFloat(dt)) {
        if (isSigned(st))
            out = makeF(dt, double(asS64(st, a)));
        else
            out = makeF(dt, double(asU64(st, a)));
    } else {
        // int -> int: read as source type (sign-extends), write as dest.
        if (isSigned(st))
            out = makeInt(dt, uint64_t(asS64(st, a)));
        else
            out = makeInt(dt, asU64(st, a));
    }
    return out;
}

/** setp comparison; `text` names the instruction in the float-cmp fatal. */
inline bool
setpCompare(ptx::Type t, ptx::CmpOp cmp, const ptx::RegVal &a,
            const ptx::RegVal &b, const std::string &text)
{
    using ptx::CmpOp;
    bool r = false;
    if (ptx::isFloat(t)) {
        const double fa = asF(t, a), fb = asF(t, b);
        switch (cmp) {
          case CmpOp::Eq: r = fa == fb; break;
          case CmpOp::Ne: r = fa != fb; break;
          case CmpOp::Lt: r = fa < fb; break;
          case CmpOp::Le: r = fa <= fb; break;
          case CmpOp::Gt: r = fa > fb; break;
          case CmpOp::Ge: r = fa >= fb; break;
          default: fatal("unsigned compare on float type: ", text);
        }
    } else if (cmp == CmpOp::Lo || cmp == CmpOp::Ls || cmp == CmpOp::Hi ||
               cmp == CmpOp::Hs) {
        const uint64_t ua = asU64(t, a), ub = asU64(t, b);
        switch (cmp) {
          case CmpOp::Lo: r = ua < ub; break;
          case CmpOp::Ls: r = ua <= ub; break;
          case CmpOp::Hi: r = ua > ub; break;
          default: r = ua >= ub; break;
        }
    } else if (ptx::isSigned(t)) {
        const int64_t sa = asS64(t, a), sb = asS64(t, b);
        switch (cmp) {
          case CmpOp::Eq: r = sa == sb; break;
          case CmpOp::Ne: r = sa != sb; break;
          case CmpOp::Lt: r = sa < sb; break;
          case CmpOp::Le: r = sa <= sb; break;
          case CmpOp::Gt: r = sa > sb; break;
          case CmpOp::Ge: r = sa >= sb; break;
          default: break;
        }
    } else {
        const uint64_t ua = asU64(t, a), ub = asU64(t, b);
        switch (cmp) {
          case CmpOp::Eq: r = ua == ub; break;
          case CmpOp::Ne: r = ua != ub; break;
          case CmpOp::Lt: r = ua < ub; break;
          case CmpOp::Le: r = ua <= ub; break;
          case CmpOp::Gt: r = ua > ub; break;
          case CmpOp::Ge: r = ua >= ub; break;
          default: break;
        }
    }
    return r;
}

/** bfi.b32/b64: insert ia into ib at [pos, pos+len). */
inline uint64_t
bfiInsert(ptx::Type t, uint64_t ia, uint64_t ib, uint32_t pos, uint32_t len)
{
    const unsigned w = bitWidth(t);
    uint64_t out = ib;
    if (len > 0 && pos < w) {
        const uint64_t mask = (len >= 64 ? ~0ull : ((1ull << len) - 1)) << pos;
        out = (ib & ~mask) | ((ia << pos) & mask);
    }
    return out;
}

/** Next memory value for an atomic op (swap used only by Cas). */
inline ptx::RegVal
atomNext(ptx::AtomOp aop, ptx::Type t, const ptx::RegVal &old,
         const ptx::RegVal &b, const ptx::RegVal &swap)
{
    using ptx::AtomOp;
    switch (aop) {
      case AtomOp::Add:
        if (ptx::isFloat(t))
            return makeF(t, asF(t, old) + asF(t, b));
        return makeInt(t, asU64(t, old) + asU64(t, b));
      case AtomOp::Min:
        if (ptx::isSigned(t))
            return makeInt(t, uint64_t(std::min(asS64(t, old), asS64(t, b))));
        return makeInt(t, std::min(asU64(t, old), asU64(t, b)));
      case AtomOp::Max:
        if (ptx::isSigned(t))
            return makeInt(t, uint64_t(std::max(asS64(t, old), asS64(t, b))));
        return makeInt(t, std::max(asU64(t, old), asU64(t, b)));
      case AtomOp::Exch:
        return b;
      case AtomOp::Cas:
        return (asU64(t, old) == asU64(t, b)) ? swap : old;
      case AtomOp::And:
        return makeInt(t, asU64(t, old) & asU64(t, b));
      case AtomOp::Or:
        return makeInt(t, asU64(t, old) | asU64(t, b));
      case AtomOp::Inc: {
        const uint64_t uo = asU64(t, old);
        return makeInt(t, uo >= asU64(t, b) ? 0 : uo + 1);
      }
      default:
        panic("unhandled atomic op");
    }
}

/** Texture coordinate register -> integer texel coordinate. */
inline int64_t
texCoordToInt(ptx::Type ct, const ptx::RegVal &cv)
{
    if (ptx::isFloat(ct))
        return int64_t(std::floor(asF(ct, cv)));
    return asS64(ct, cv);
}

/** Result of a texel fetch; hit=false means border (texel stays zero). */
struct TexFetch
{
    float texel[4] = {0, 0, 0, 0};
    bool hit = false;
    addr_t base = 0;
    unsigned bytes = 0;
};

/** Wrap/clamp/border coordinate handling plus the texel reads. */
inline TexFetch
texFetch(GpuMemory &mem, const TexBinding &bind, unsigned tex_dim, int64_t xi,
         int64_t yi, PageHint *hint)
{
    auto wrap = [&](int64_t v, int64_t n) -> int64_t {
        if (n <= 0)
            return 0;
        switch (bind.address_mode) {
          case TexAddressMode::Wrap: {
            int64_t m = v % n;
            return m < 0 ? m + n : m;
          }
          case TexAddressMode::Border:
            return (v < 0 || v >= n) ? -1 : v;
          default:
            return std::min(std::max<int64_t>(v, 0), n - 1);
        }
    };
    TexFetch f;
    const int64_t x = wrap(xi, int64_t(bind.width));
    const int64_t y = tex_dim >= 2 ? wrap(yi, int64_t(bind.height)) : 0;
    if (x >= 0 && y >= 0) {
        f.base = bind.base +
                 (addr_t(y) * bind.width + addr_t(x)) * bind.channels * 4;
        for (unsigned ch = 0; ch < bind.channels && ch < 4; ch++)
            f.texel[ch] = mem.load<float>(f.base + ch * 4, hint);
        f.bytes = bind.channels * 4;
        f.hit = true;
    }
    return f;
}

} // namespace mlgs::func

#endif // MLGS_FUNC_EXEC_SEMANTICS_H
