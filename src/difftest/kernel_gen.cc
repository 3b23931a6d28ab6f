#include "difftest/kernel_gen.h"

#include <algorithm>
#include <cstdio>

namespace mlgs::difftest
{

namespace
{

/** Generator register classes (each maps to a dedicated PTX register pool). */
enum Cls : unsigned
{
    CU32,
    CS32,
    CU64,
    CS64,
    CF32,
    CF16,
    CPRED,
    CU8,  ///< sub-word load staging (never in a pool)
    CS8,
    CU16,
    CS16,
    NCLS,
};

struct ClsInfo
{
    const char *prefix; ///< register-name prefix ("%u", "%s", ...)
    const char *regty;  ///< declared type (".u32", ...)
};

const ClsInfo kCls[NCLS] = {
    {"%u", ".u32"}, {"%s", ".s32"}, {"%w", ".u64"}, {"%x", ".s64"},
    {"%f", ".f32"}, {"%h", ".f16"}, {"%p", ".pred"}, {"%c", ".u8"},
    {"%d", ".s8"},  {"%e", ".u16"}, {"%g", ".s16"},
};

const Cls kIntCls[4] = {CU32, CS32, CU64, CS64};

const char *
clsTok(Cls c)
{
    switch (c) {
      case CU32: return "u32";
      case CS32: return "s32";
      case CU64: return "u64";
      case CS64: return "s64";
      case CF32: return "f32";
      case CF16: return "f16";
      case CU8: return "u8";
      case CS8: return "s8";
      case CU16: return "u16";
      case CS16: return "s16";
      default: return "pred";
    }
}

/** `items` separated by `sep`. */
std::string
join(const std::vector<std::string> &items, const char *sep)
{
    std::string out;
    for (size_t i = 0; i < items.size(); i++) {
        if (i)
            out += sep;
        out += items[i];
    }
    return out;
}

/** Self-contained replacement statement keeping `reg` defined. */
std::string
fallbackFor(Cls c, const std::string &reg)
{
    switch (c) {
      case CU32: return "mov.u32 " + reg + ", 2309;";
      case CS32: return "mov.s32 " + reg + ", -47;";
      case CU64: return "mov.u64 " + reg + ", 77777;";
      case CS64: return "mov.s64 " + reg + ", -9999;";
      case CF32: return "mov.f32 " + reg + ", 0f3FC00000;"; // 1.5f
      case CF16: return "mov.b16 " + reg + ", 15360;";      // 1.0h
      case CU8: return "mov.u8 " + reg + ", 200;";
      case CS8: return "mov.s8 " + reg + ", -5;";
      case CU16: return "mov.u16 " + reg + ", 40000;";
      case CS16: return "mov.s16 " + reg + ", -300;";
      default: return "setp.eq.u32 " + reg + ", 1, 1;";
    }
}

/**
 * Builds one kernel. All randomness comes from the embedded Rng so a seed
 * fully determines the output.
 */
struct Builder
{
    Rng rng;
    GenKernel k;
    unsigned count[NCLS] = {};            ///< registers allocated per class
    unsigned na = 0;                      ///< %a address registers (u64)
    std::vector<std::string> pool[NCLS];  ///< live, readable values
    /**
     * Registers guarded ops may redefine. Structural values (lin/gid/...)
     * are deliberately absent: they feed address computations and shared
     * tile indices, so clobbering them would break in-bounds guarantees.
     */
    std::vector<std::string> redef[NCLS];

    explicit Builder(uint64_t seed) : rng(seed) { k.seed = seed; }

    std::string
    newReg(Cls c)
    {
        return kCls[c].prefix + std::to_string(count[c]++);
    }

    std::string newAddr() { return "%a" + std::to_string(na++); }

    const std::string &
    pick(Cls c)
    {
        return pool[c][rng.below(pool[c].size())];
    }

    bool hasVal(Cls c) const { return !pool[c].empty(); }

    void
    emit(std::string text, std::string def = "",
         std::vector<std::string> uses = {}, bool structural = false,
         bool droppable = false, std::string fallback = "")
    {
        GenStmt s;
        s.text = std::move(text);
        s.fallback = std::move(fallback);
        s.structural = structural;
        s.droppable = droppable;
        s.def = std::move(def);
        s.uses = std::move(uses);
        k.body.push_back(std::move(s));
    }

    void
    label(const std::string &name)
    {
        GenStmt s;
        s.text = name + ":";
        s.structural = true;
        s.is_label = true;
        k.body.push_back(std::move(s));
    }

    /** Emit a pool-defining statement with its class fallback; pool the def. */
    void
    def(Cls c, std::string text, const std::string &reg,
        std::vector<std::string> uses)
    {
        emit(std::move(text), reg, std::move(uses), false, false,
             fallbackFor(c, reg));
        pool[c].push_back(reg);
        redef[c].push_back(reg);
    }

    /** Like def() but the register is not pooled (phi staging, guards). */
    void
    defNoPool(Cls c, std::string text, const std::string &reg,
              std::vector<std::string> uses)
    {
        emit(std::move(text), reg, std::move(uses), false, false,
             fallbackFor(c, reg));
    }

    // ---- launch shape ------------------------------------------------

    void
    pickShape()
    {
        static const uint32_t bx[] = {8, 16, 32, 32, 33, 64};
        k.spec.block.x = bx[rng.below(6)];
        k.spec.block.y = rng.below(4) == 0 ? 2 : 1;
        k.spec.grid.x = uint32_t(1 + rng.below(3));
        while (k.spec.totalThreads() > 256)
            k.spec.grid.x--;
        k.spec.kernel = "fuzz";
        k.spec.data_seed = k.seed;
    }

    unsigned nthreads() const { return unsigned(k.spec.block.count()); }

    // ---- structural prologue ------------------------------------------

    static constexpr unsigned kLocalBytes = 64; ///< .local scratch size

    std::string in0p, in1p, outp; ///< per-thread slice base addresses
    std::string lptr;             ///< generic address of the .local scratch
    std::string lin, gid;         ///< linear tid in block / in grid
    std::string a_in0_;           ///< raw in0 base (stride probes)

    void
    prologue()
    {
        const unsigned in_bytes = 4 * k.spec.in_words;
        const unsigned out_bytes = 8 * k.spec.out_slots;

        const std::string a_in0 = newAddr(), a_in1 = newAddr(),
                          a_out = newAddr();
        a_in0_ = a_in0;
        emit("ld.param.u64 " + a_in0 + ", [in0];", a_in0, {}, true);
        emit("ld.param.u64 " + a_in1 + ", [in1];", a_in1, {}, true);
        emit("ld.param.u64 " + a_out + ", [out];", a_out, {}, true);

        const std::string tx = newReg(CU32), ty = newReg(CU32),
                          nx = newReg(CU32);
        emit("mov.u32 " + tx + ", %tid.x;", tx, {}, true);
        emit("mov.u32 " + ty + ", %tid.y;", ty, {}, true);
        emit("mov.u32 " + nx + ", %ntid.x;", nx, {}, true);
        lin = newReg(CU32);
        emit("mad.lo.u32 " + lin + ", " + ty + ", " + nx + ", " + tx + ";",
             lin, {ty, nx, tx}, true);

        const std::string cid = newReg(CU32), ny = newReg(CU32),
                          nt = newReg(CU32);
        emit("mov.u32 " + cid + ", %ctaid.x;", cid, {}, true);
        emit("mov.u32 " + ny + ", %ntid.y;", ny, {}, true);
        emit("mul.lo.u32 " + nt + ", " + nx + ", " + ny + ";", nt,
             {nx, ny}, true);
        gid = newReg(CU32);
        emit("mad.lo.u32 " + gid + ", " + cid + ", " + nt + ", " + lin + ";",
             gid, {cid, nt, lin}, true);

        const std::string off_in = newAddr();
        emit("mul.wide.u32 " + off_in + ", " + gid + ", " +
                 std::to_string(in_bytes) + ";",
             off_in, {gid}, true);
        in0p = newAddr();
        emit("add.u64 " + in0p + ", " + a_in0 + ", " + off_in + ";", in0p,
             {a_in0, off_in}, true);
        in1p = newAddr();
        emit("add.u64 " + in1p + ", " + a_in1 + ", " + off_in + ";", in1p,
             {a_in1, off_in}, true);

        const std::string off_out = newAddr();
        emit("mul.wide.u32 " + off_out + ", " + gid + ", " +
                 std::to_string(out_bytes) + ";",
             off_out, {gid}, true);
        outp = newAddr();
        emit("add.u64 " + outp + ", " + a_out + ", " + off_out + ";", outp,
             {a_out, off_out}, true);

        const std::string total = newReg(CU32);
        emit("ld.param.u32 " + total + ", [total];", total, {}, true);

        pool[CU32] = {tx, cid, lin, gid, total, nx};
    }

    // ---- per-class data seeds ------------------------------------------

    void
    seedValues()
    {
        auto ld = [&](Cls c, const char *ty, const std::string &base,
                      unsigned off) {
            const std::string r = newReg(c);
            def(c,
                "ld.global." + std::string(ty) + " " + r + ", [" + base +
                    "+" + std::to_string(off) + "];",
                r, {base});
            return r;
        };
        const std::string u9 = ld(CU32, "u32", in0p, 0);
        const std::string u10 = ld(CU32, "u32", in0p, 4);
        const std::string s0 = ld(CS32, "s32", in0p, 8);
        ld(CS32, "s32", in0p, 12);
        ld(CU64, "u64", in0p, 16);
        ld(CU64, "u64", in0p, 24);

        std::string r = newReg(CS64);
        def(CS64, "cvt.s64.s32 " + r + ", " + s0 + ";", r, {s0});
        r = newReg(CS64);
        def(CS64, "cvt.s64.u32 " + r + ", " + u9 + ";", r, {u9});

        const std::string f0 = ld(CF32, "f32", in1p, 0);
        const std::string f1 = ld(CF32, "f32", in1p, 4);
        ld(CF32, "f32", in1p, 8);

        r = newReg(CF16);
        def(CF16, "cvt.rn.f16.f32 " + r + ", " + f0 + ";", r, {f0});
        r = newReg(CF16);
        def(CF16, "cvt.rn.f16.f32 " + r + ", " + f1 + ";", r, {f1});

        r = newReg(CPRED);
        def(CPRED, "setp.lt.u32 " + r + ", " + u9 + ", " + u10 + ";", r,
            {u9, u10});
    }

    // ---- weighted instruction menu ---------------------------------------

    /** Random source: pool register (usually) or a small immediate. */
    std::string
    srcOrImm(Cls c, std::vector<std::string> &uses)
    {
        if (rng.below(10) < 7 || !hasVal(c)) {
            if (!hasVal(c))
                return std::to_string(rng.below(1024));
            const std::string &r = pick(c);
            uses.push_back(r);
            return r;
        }
        return std::to_string(rng.below(1024));
    }

    void
    menuOp()
    {
        switch (rng.below(27)) {
          case 0: case 1: case 2: case 3: case 4: { // int binop
            static const char *ops[] = {"add", "sub", "mul.lo", "min",
                                        "max", "and", "or",  "xor"};
            const Cls c = kIntCls[rng.below(4)];
            const char *op = ops[rng.below(8)];
            const std::string d = newReg(c);
            std::vector<std::string> uses;
            const std::string a = pick(c);
            uses.push_back(a);
            const std::string b = srcOrImm(c, uses);
            def(c,
                std::string(op) + "." + clsTok(c) + " " + d + ", " + a +
                    ", " + b + ";",
                d, uses);
            return;
          }
          case 5: { // integer div/rem over register operands
            const Cls c = kIntCls[rng.below(4)];
            const char *op = rng.below(2) ? "div" : "rem";
            const std::string d = newReg(c), a = pick(c), b = pick(c);
            def(c,
                std::string(op) + "." + clsTok(c) + " " + d + ", " + a +
                    ", " + b + ";",
                d, {a, b});
            return;
          }
          case 6: { // mad.lo
            const Cls c = kIntCls[rng.below(4)];
            const std::string d = newReg(c), a = pick(c), b = pick(c),
                              cc = pick(c);
            def(c,
                "mad.lo." + std::string(clsTok(c)) + " " + d + ", " + a +
                    ", " + b + ", " + cc + ";",
                d, {a, b, cc});
            return;
          }
          case 7: { // mul.wide / mad.wide (32 -> 64)
            const bool sgn = rng.below(2);
            const Cls cs = sgn ? CS32 : CU32, cd = sgn ? CS64 : CU64;
            const std::string d = newReg(cd), a = pick(cs), b = pick(cs);
            if (rng.below(2) && hasVal(cd)) {
                const std::string cc = pick(cd);
                def(cd,
                    "mad.wide." + std::string(clsTok(cs)) + " " + d + ", " +
                        a + ", " + b + ", " + cc + ";",
                    d, {a, b, cc});
            } else {
                def(cd,
                    "mul.wide." + std::string(clsTok(cs)) + " " + d + ", " +
                        a + ", " + b + ";",
                    d, {a, b});
            }
            return;
          }
          case 8: { // mul.hi (no s64: the engine's 64-bit high product is
                    // computed unsigned, which the spec-side reference does
                    // not replicate for signed operands)
            static const Cls hi_cls[] = {CU32, CS32, CU64};
            const Cls c = hi_cls[rng.below(3)];
            const std::string d = newReg(c), a = pick(c), b = pick(c);
            def(c,
                "mul.hi." + std::string(clsTok(c)) + " " + d + ", " + a +
                    ", " + b + ";",
                d, {a, b});
            return;
          }
          case 9: case 10: { // shifts (immediate or register amount)
            const Cls c = kIntCls[rng.below(4)];
            const bool left = rng.below(2);
            const unsigned w = (c == CU64 || c == CS64) ? 64 : 32;
            const std::string d = newReg(c), a = pick(c);
            std::vector<std::string> uses = {a};
            std::string sh;
            if (rng.below(2) || !hasVal(CU32)) {
                sh = std::to_string(rng.below(w + 8)); // may exceed width
            } else {
                sh = pick(CU32);
                uses.push_back(sh);
            }
            const std::string mn =
                left ? "shl.b" + std::to_string(w)
                     : "shr." + std::string(clsTok(c));
            if (left && (c == CS32 || c == CS64)) {
                // shl is bits-typed; keep the pool class-pure by shifting
                // within the matching unsigned class instead.
                const Cls uc = c == CS32 ? CU32 : CU64;
                const std::string du = newReg(uc), au = pick(uc);
                def(uc,
                    "shl.b" + std::to_string(w) + " " + du + ", " + au +
                        ", " + sh + ";",
                    du,
                    uses.size() > 1
                        ? std::vector<std::string>{au, uses[1]}
                        : std::vector<std::string>{au});
                return;
            }
            def(c, mn + " " + d + ", " + a + ", " + sh + ";", d, uses);
            return;
          }
          case 11: { // bfe
            const Cls c = kIntCls[rng.below(4)];
            const std::string d = newReg(c), a = pick(c);
            std::vector<std::string> uses = {a};
            std::string pos, len;
            if (rng.below(4) == 0 && hasVal(CU32)) {
                pos = pick(CU32);
                uses.push_back(pos);
            } else {
                pos = std::to_string(rng.below(48));
            }
            len = std::to_string(rng.below(24));
            def(c,
                "bfe." + std::string(clsTok(c)) + " " + d + ", " + a + ", " +
                    pos + ", " + len + ";",
                d, uses);
            return;
          }
          case 12: { // bfi.b32 / bfi.b64
            const Cls c = rng.below(2) ? CU32 : CU64;
            const unsigned w = c == CU64 ? 64 : 32;
            const std::string d = newReg(c), a = pick(c), b = pick(c);
            def(c,
                "bfi.b" + std::to_string(w) + " " + d + ", " + a + ", " + b +
                    ", " + std::to_string(rng.below(w)) + ", " +
                    std::to_string(1 + rng.below(16)) + ";",
                d, {a, b});
            return;
          }
          case 13: { // popc/clz/brev/not
            const Cls c = rng.below(2) ? CU32 : CU64;
            const unsigned w = c == CU64 ? 64 : 32;
            const std::string a = pick(c);
            switch (rng.below(4)) {
              case 0: {
                const std::string d = newReg(CU32);
                def(CU32,
                    "popc.b" + std::to_string(w) + " " + d + ", " + a + ";",
                    d, {a});
                return;
              }
              case 1: {
                const std::string d = newReg(CU32);
                def(CU32,
                    "clz.b" + std::to_string(w) + " " + d + ", " + a + ";",
                    d, {a});
                return;
              }
              case 2: {
                const std::string d = newReg(c);
                def(c,
                    "brev.b" + std::to_string(w) + " " + d + ", " + a + ";",
                    d, {a});
                return;
              }
              default: {
                const std::string d = newReg(c);
                def(c,
                    "not.b" + std::to_string(w) + " " + d + ", " + a + ";",
                    d, {a});
                return;
              }
            }
          }
          case 14: { // neg/abs (32-bit signed only: no INT64_MIN pitfalls)
            const std::string d = newReg(CS32), a = pick(CS32);
            def(CS32,
                std::string(rng.below(2) ? "neg" : "abs") + ".s32 " + d +
                    ", " + a + ";",
                d, {a});
            return;
          }
          case 15: case 16: { // setp
            static const Cls cls[] = {CU32, CS32, CU64, CS64, CF32};
            const Cls c = cls[rng.below(5)];
            static const char *ucmp[] = {"eq", "ne", "lo", "ls", "hi", "hs"};
            static const char *scmp[] = {"eq", "ne", "lt", "le", "gt", "ge"};
            const bool uns = c == CU32 || c == CU64;
            const char *cmp =
                uns ? ucmp[rng.below(6)] : scmp[rng.below(6)];
            const std::string d = newReg(CPRED), a = pick(c), b = pick(c);
            def(CPRED,
                "setp." + std::string(cmp) + "." + clsTok(c) + " " + d +
                    ", " + a + ", " + b + ";",
                d, {a, b});
            return;
          }
          case 17: { // selp
            static const Cls cls[] = {CU32, CS32, CU64, CS64, CF32};
            const Cls c = cls[rng.below(5)];
            const std::string d = newReg(c), a = pick(c), b = pick(c),
                              p = pick(CPRED);
            def(c,
                "selp." + std::string(clsTok(c)) + " " + d + ", " + a +
                    ", " + b + ", " + p + ";",
                d, {a, b, p});
            return;
          }
          case 18: case 19: { // f32 arithmetic
            const std::string d = newReg(CF32), a = pick(CF32);
            switch (rng.below(8)) {
              case 0: case 1: {
                static const char *ops[] = {"add", "sub", "mul", "min",
                                            "max"};
                const std::string b = pick(CF32);
                def(CF32,
                    std::string(ops[rng.below(5)]) + ".f32 " + d + ", " + a +
                        ", " + b + ";",
                    d, {a, b});
                return;
              }
              case 2: {
                const std::string b = pick(CF32);
                def(CF32, "div.rn.f32 " + d + ", " + a + ", " + b + ";", d,
                    {a, b});
                return;
              }
              case 3: case 4: {
                const std::string b = pick(CF32), cc = pick(CF32);
                def(CF32,
                    std::string(rng.below(2) ? "fma.rn" : "mad") + ".f32 " +
                        d + ", " + a + ", " + b + ", " + cc + ";",
                    d, {a, b, cc});
                return;
              }
              case 5:
                def(CF32, "sqrt.rn.f32 " + d + ", " + a + ";", d, {a});
                return;
              case 6:
                def(CF32, "neg.f32 " + d + ", " + a + ";", d, {a});
                return;
              default:
                def(CF32, "abs.f32 " + d + ", " + a + ";", d, {a});
                return;
            }
          }
          case 20: { // f16 arithmetic
            const std::string d = newReg(CF16), a = pick(CF16);
            switch (rng.below(4)) {
              case 0: case 1: {
                static const char *ops[] = {"add", "sub", "mul"};
                const std::string b = pick(CF16);
                def(CF16,
                    std::string(ops[rng.below(3)]) + ".f16 " + d + ", " + a +
                        ", " + b + ";",
                    d, {a, b});
                return;
              }
              default: {
                const std::string b = pick(CF16), cc = pick(CF16);
                def(CF16,
                    "fma.rn.f16 " + d + ", " + a + ", " + b + ", " + cc +
                        ";",
                    d, {a, b, cc});
                return;
              }
            }
          }
          case 21: { // cvt family
            switch (rng.below(11)) {
              case 0: cvt1(CU64, CU32, "cvt.u64.u32"); return;
              case 1: cvt1(CS64, CS32, "cvt.s64.s32"); return;
              case 2: cvt1(CU32, CU64, "cvt.u32.u64"); return;
              case 3: cvt1(CS32, CS64, "cvt.s32.s64"); return;
              case 4: cvt1(CS32, CF32, "cvt.rzi.s32.f32"); return;
              case 5: cvt1(CS32, CF32, "cvt.rni.s32.f32"); return;
              case 6: cvt1(CU32, CF32, "cvt.rzi.u32.f32"); return;
              case 7: cvt1(CF32, CS32, "cvt.rn.f32.s32"); return;
              case 8: cvt1(CF32, CU32, "cvt.rn.f32.u32"); return;
              case 9: cvt1(CF32, CF16, "cvt.f32.f16"); return;
              default: cvt1(CF16, CF32, "cvt.rn.f16.f32"); return;
            }
          }
          case 22: { // extra global load from an input slice
            const unsigned word = unsigned(rng.below(k.spec.in_words));
            switch (rng.below(3)) {
              case 0: {
                const std::string d = newReg(CU32);
                def(CU32,
                    "ld.global.u32 " + d + ", [" + in0p + "+" +
                        std::to_string(4 * word) + "];",
                    d, {in0p});
                return;
              }
              case 1: {
                const std::string d = newReg(CS32);
                def(CS32,
                    "ld.global.s32 " + d + ", [" + in0p + "+" +
                        std::to_string(4 * word) + "];",
                    d, {in0p});
                return;
              }
              default: {
                const std::string d = newReg(CF32);
                def(CF32,
                    "ld.global.f32 " + d + ", [" + in1p + "+" +
                        std::to_string(4 * word) + "];",
                    d, {in1p});
                return;
              }
            }
          }
          case 23: // sub-word load, widened by cvt into a pool class
            subWordLoad();
            return;
          case 24: // vector load from an input slice
            vectorLoad();
            return;
          case 25: // thread-private .local scratch
            localOp();
            return;
          default: { // guarded op or store to the thread's output slice
            const Cls c = kIntCls[rng.below(4)];
            if (rng.below(2) && !redef[c].empty()) {
                // Guarded redefinition of an existing value (keeps the
                // must-defined invariant: the register already has a def).
                const std::string d = redef[c][rng.below(redef[c].size())];
                const std::string a = pick(c), b = pick(c),
                                  p = pick(CPRED);
                const std::string at = rng.below(2) ? "@" : "@!";
                emit(at + p + " add." + clsTok(c) + " " + d + ", " + a +
                         ", " + b + ";",
                     d, {p, a, b}, false, false, fallbackFor(c, d));
                return;
            }
            storeRandom(rng.below(2) == 0);
            return;
          }
        }
    }

    void
    cvt1(Cls cd, Cls cs, const std::string &mn)
    {
        const std::string d = newReg(cd), a = pick(cs);
        def(cd, mn + " " + d + ", " + a + ";", d, {a});
    }

    /**
     * A u8/s8/u16/s16 load into a register of its own width (so only the
     * loaded bytes are ever read), then a cvt into the matching 32-bit pool.
     */
    void
    subWordLoad()
    {
        static const Cls cls[] = {CU8, CS8, CU16, CS16};
        const Cls c = cls[rng.below(4)];
        const unsigned size = c == CU8 || c == CS8 ? 1 : 2;
        const unsigned off =
            unsigned(rng.below(4 * k.spec.in_words / size)) * size;
        const std::string r = newReg(c);
        defNoPool(c,
                  "ld.global." + std::string(clsTok(c)) + " " + r + ", [" +
                      in0p + "+" + std::to_string(off) + "];",
                  r, {in0p});
        const Cls wide = c == CU8 || c == CU16 ? CU32 : CS32;
        const std::string d = newReg(wide);
        def(wide,
            "cvt." + std::string(clsTok(wide)) + "." + clsTok(c) + " " + d +
                ", " + r + ";",
            d, {r});
    }

    /**
     * Emit a load of `n` registers of class `c` (n > 1: one vector load) and
     * pool them. A vector load defines several registers, so its minimizer
     * fallback is one mov per register on one line.
     */
    void
    loadInto(Cls c, unsigned n, const std::string &mnemonic,
             const std::string &addr, std::vector<std::string> uses)
    {
        std::vector<std::string> regs;
        for (unsigned i = 0; i < n; i++)
            regs.push_back(newReg(c));
        if (n == 1) {
            def(c, mnemonic + " " + regs[0] + ", " + addr + ";", regs[0],
                std::move(uses));
            return;
        }
        std::vector<std::string> fallbacks;
        for (const std::string &r : regs)
            fallbacks.push_back(fallbackFor(c, r));
        emit(mnemonic + " {" + join(regs, ", ") + "}, " + addr + ";", "",
             std::move(uses), false, false, join(fallbacks, " "));
        for (const std::string &r : regs) {
            pool[c].push_back(r);
            redef[c].push_back(r);
        }
    }

    /** v2/v4 load of u32, s32, f32 or u64 words from an input slice. */
    void
    vectorLoad()
    {
        static const Cls cls[] = {CU32, CS32, CF32, CU64};
        const Cls c = cls[rng.below(4)];
        const unsigned esz = c == CU64 ? 8 : 4;
        const unsigned n = c == CU64 || rng.below(2) ? 2 : 4;
        const unsigned w = esz * n;
        const unsigned off = unsigned(rng.below(4 * k.spec.in_words / w)) * w;
        const std::string &base = c == CF32 ? in1p : in0p;
        loadInto(c, n,
                 "ld.global.v" + std::to_string(n) + "." + clsTok(c),
                 "[" + base + "+" + std::to_string(off) + "]", {base});
    }

    /**
     * A store to or a load from the thread's .local scratch, by symbol or
     * through the generic address in `lptr` (resolved by its window). A
     * slot never stored reads as zero.
     */
    void
    localOp()
    {
        static const Cls cls[] = {CU32, CS32, CU64, CF32};
        const Cls c = cls[rng.below(4)];
        const unsigned esz = c == CU64 ? 8 : 4;
        const unsigned n = c == CU64 ? 1 + unsigned(rng.below(2))
                                     : 1u << rng.below(3);
        const unsigned w = esz * n;
        const unsigned off = unsigned(rng.below(kLocalBytes / w)) * w;
        const bool generic = rng.below(3) == 0;
        const std::string addr =
            "[" + (generic ? lptr : std::string("lbuf")) + "+" +
            std::to_string(off) + "]";
        std::vector<std::string> uses;
        if (generic)
            uses.push_back(lptr);
        const std::string mn =
            std::string(generic ? "" : ".local") +
            (n > 1 ? ".v" + std::to_string(n) : "") + "." + clsTok(c);
        if (rng.below(2)) {
            loadInto(c, n, "ld" + mn, addr, std::move(uses));
            return;
        }
        std::vector<std::string> vals;
        for (unsigned i = 0; i < n; i++)
            vals.push_back(pick(c));
        uses.insert(uses.end(), vals.begin(), vals.end());
        const std::string list =
            n > 1 ? "{" + join(vals, ", ") + "}" : vals[0];
        emit("st" + mn + " " + addr + ", " + list + ";", "", std::move(uses),
             false, true);
    }

    /** Droppable store of a random pool value into the output slice. */
    void
    storeRandom(bool guarded)
    {
        const unsigned slot = unsigned(rng.below(k.spec.out_slots));
        std::string guard;
        std::vector<std::string> uses;
        if (guarded) {
            const std::string p = pick(CPRED);
            guard = (rng.below(2) ? "@" : "@!") + p + " ";
            uses.push_back(p);
        }
        switch (rng.below(7)) {
          case 6: { // u8/s8/u16/s16, narrowed by cvt into its own width
            static const Cls cls[] = {CU8, CS8, CU16, CS16};
            const Cls c = cls[rng.below(4)];
            const Cls wide = c == CU8 || c == CU16 ? CU32 : CS32;
            const unsigned size = c == CU8 || c == CS8 ? 1 : 2;
            const std::string v = pick(wide), r = newReg(c);
            defNoPool(c,
                      "cvt." + std::string(clsTok(c)) + "." + clsTok(wide) +
                          " " + r + ", " + v + ";",
                      r, {v});
            uses.insert(uses.end(), {r, outp});
            emit(guard + "st.global." + clsTok(c) + " [" + outp + "+" +
                     std::to_string(size * rng.below(8 * k.spec.out_slots /
                                                      size)) +
                     "], " + r + ";",
                 "", uses, false, true);
            return;
          }
          case 4: { // v2/v4 of u32 or f32
            const Cls c = rng.below(2) ? CU32 : CF32;
            const unsigned n = rng.below(2) ? 2 : 4;
            std::vector<std::string> vals;
            for (unsigned i = 0; i < n; i++)
                vals.push_back(pick(c));
            uses.insert(uses.end(), vals.begin(), vals.end());
            uses.push_back(outp);
            emit(guard + "st.global.v" + std::to_string(n) + "." + clsTok(c) +
                     " [" + outp + "+" +
                     std::to_string(4 * n * rng.below(2 * k.spec.out_slots / n)) +
                     "], {" + join(vals, ", ") + "};",
                 "", uses, false, true);
            return;
          }
          case 5: { // v2.u64
            const std::string a = pick(CU64), b = pick(CU64);
            uses.insert(uses.end(), {a, b, outp});
            emit(guard + "st.global.v2.u64 [" + outp + "+" +
                     std::to_string(16 * rng.below(k.spec.out_slots / 2)) +
                     "], {" + a + ", " + b + "};",
                 "", uses, false, true);
            return;
          }
          case 0: {
            const std::string v = pick(CU32);
            uses.insert(uses.end(), {v, outp});
            emit(guard + "st.global.u32 [" + outp + "+" +
                     std::to_string(8 * slot + 4 * rng.below(2)) + "], " + v +
                     ";",
                 "", uses, false, true);
            return;
          }
          case 1: {
            const std::string v = pick(CS32);
            uses.insert(uses.end(), {v, outp});
            emit(guard + "st.global.s32 [" + outp + "+" +
                     std::to_string(8 * slot + 4 * rng.below(2)) + "], " + v +
                     ";",
                 "", uses, false, true);
            return;
          }
          case 2: {
            const std::string v = pick(CU64);
            uses.insert(uses.end(), {v, outp});
            emit(guard + "st.global.u64 [" + outp + "+" +
                     std::to_string(8 * slot) + "], " + v + ";",
                 "", uses, false, true);
            return;
          }
          default: {
            const std::string v = pick(CF32);
            uses.insert(uses.end(), {v, outp});
            emit(guard + "st.global.f32 [" + outp + "+" +
                     std::to_string(8 * slot + 4 * rng.below(2)) + "], " + v +
                     ";",
                 "", uses, false, true);
            return;
          }
        }
    }

    // ---- seeded known-stride probes (perf-lint cross-check) ---------------

    /**
     * One global load and one shared store at a fixed per-lane word stride,
     * indexed by a fresh %tid.x register (the mad-computed linear id is not
     * tid-affine to the analyzer, probes must stay inside its address
     * language). The block is pinned to a single full warp by build().
     */
    void
    strideProbe(unsigned stride)
    {
        k.probe_stride = stride;
        const std::string rp = newReg(CU32);
        emit("mov.u32 " + rp + ", %tid.x;", rp, {}, true);

        const std::string goff = newAddr();
        emit("mul.wide.u32 " + goff + ", " + rp + ", " +
                 std::to_string(4 * stride) + ";",
             goff, {rp}, true);
        const std::string gaddr = newAddr();
        emit("add.u64 " + gaddr + ", " + a_in0_ + ", " + goff + ";", gaddr,
             {a_in0_, goff}, true);
        const std::string rv = newReg(CU32);
        k.probe_global_addr = gaddr;
        emit("ld.global.u32 " + rv + ", [" + gaddr + "];", rv, {gaddr}, true);
        emit("st.global.u32 [" + outp + "+60], " + rv + ";", "", {outp, rv},
             true);

        k.decl_lines.push_back(".shared .align 4 .b8 ptile[" +
                               std::to_string(4 * 32 * stride) + "];");
        const std::string sbase = newAddr();
        emit("mov.u64 " + sbase + ", ptile;", sbase, {}, true);
        const std::string saddr = newAddr();
        emit("add.u64 " + saddr + ", " + sbase + ", " + goff + ";", saddr,
             {sbase, goff}, true);
        k.probe_shared_addr = saddr;
        emit("st.shared.u32 [" + saddr + "], " + rp + ";", "", {saddr, rp},
             true);
    }

    // ---- divergent diamond with post-dominator reconvergence -------------

    void
    diamond(unsigned idx)
    {
        const unsigned nt = nthreads();
        const std::string pg = newReg(CPRED);
        const std::string kimm = std::to_string(1 + rng.below(nt - 1));
        const std::string l_else = "L_ELSE_" + std::to_string(idx);
        const std::string l_join = "L_JOIN_" + std::to_string(idx);

        emit("setp.ge.u32 " + pg + ", " + lin + ", " + kimm + ";", pg,
             {lin}, true);
        emit("@" + pg + " bra " + l_else + ";", "", {pg}, true);

        struct Phi
        {
            Cls cls;
            std::string reg;
        };
        std::vector<Phi> phis;
        static const Cls phi_cls[] = {CU32, CS32, CU64, CS64, CF32};
        const unsigned nphi = 1 + unsigned(rng.below(2));
        for (unsigned i = 0; i < nphi; i++) {
            const Cls c = phi_cls[rng.below(5)];
            phis.push_back({c, newReg(c)});
        }

        auto arm = [&]() {
            size_t snap[NCLS];
            for (unsigned c = 0; c < NCLS; c++)
                snap[c] = pool[c].size();
            const unsigned nops = unsigned(rng.below(4));
            for (unsigned i = 0; i < nops; i++)
                menuOp();
            for (const auto &phi : phis) {
                // Unconditional write in *both* arms: the phi is
                // must-defined at the join point.
                if (phi.cls == CF32 || !rng.below(3)) {
                    const std::string a = pick(phi.cls);
                    defNoPool(phi.cls,
                              "mov." + std::string(clsTok(phi.cls)) + " " +
                                  phi.reg + ", " + a + ";",
                              phi.reg, {a});
                } else {
                    const std::string a = pick(phi.cls), b = pick(phi.cls);
                    defNoPool(phi.cls,
                              "add." + std::string(clsTok(phi.cls)) + " " +
                                  phi.reg + ", " + a + ", " + b + ";",
                              phi.reg, {a, b});
                }
            }
            for (unsigned c = 0; c < NCLS; c++)
                pool[c].resize(snap[c]); // arm-local temps do not escape
        };

        arm(); // then-arm
        emit("bra " + l_join + ";", "", {}, true);
        label(l_else);
        arm(); // else-arm
        label(l_join);

        for (const auto &phi : phis) {
            pool[phi.cls].push_back(phi.reg);
            redef[phi.cls].push_back(phi.reg);
        }
    }

    // ---- shared-memory tile with bar.sync ---------------------------------

    void
    sharedTile()
    {
        const unsigned nt = nthreads();
        const unsigned n = 1u << rng.below(3); // u32 words per thread
        const std::string vn = n > 1 ? ".v" + std::to_string(n) : "";
        k.decl_lines.push_back(".shared .align 16 .b8 tile[" +
                               std::to_string(4 * n * nt) + "];");

        const std::string off = newReg(CU32);
        emit("mul.lo.u32 " + off + ", " + lin + ", " + std::to_string(4 * n) +
                 ";",
             off, {lin}, true);
        const std::string off64 = newAddr();
        emit("cvt.u64.u32 " + off64 + ", " + off + ";", off64, {off}, true);
        const std::string base = newAddr();
        emit("mov.u64 " + base + ", tile;", base, {}, true);
        const std::string waddr = newAddr();
        emit("add.u64 " + waddr + ", " + base + ", " + off64 + ";", waddr,
             {base, off64}, true);
        std::vector<std::string> vals;
        for (unsigned i = 0; i < n; i++)
            vals.push_back(pick(CU32));
        std::vector<std::string> uses = {waddr};
        uses.insert(uses.end(), vals.begin(), vals.end());
        emit("st.shared" + vn + ".u32 [" + waddr + "], " +
                 (n > 1 ? "{" + join(vals, ", ") + "}" : vals[0]) + ";",
             "", uses, true);
        emit("bar.sync 0;", "", {}, true);

        const std::string nb = newReg(CU32);
        emit("add.u32 " + nb + ", " + lin + ", 1;", nb, {lin}, true);
        const std::string nbw = newReg(CU32);
        emit("rem.u32 " + nbw + ", " + nb + ", " + std::to_string(nt) + ";",
             nbw, {nb}, true);
        const std::string noff = newReg(CU32);
        emit("mul.lo.u32 " + noff + ", " + nbw + ", " +
                 std::to_string(4 * n) + ";",
             noff, {nbw}, true);
        const std::string noff64 = newAddr();
        emit("cvt.u64.u32 " + noff64 + ", " + noff + ";", noff64, {noff},
             true);
        const std::string raddr = newAddr();
        emit("add.u64 " + raddr + ", " + base + ", " + noff64 + ";", raddr,
             {base, noff64}, true);
        std::vector<std::string> got;
        for (unsigned i = 0; i < n; i++)
            got.push_back(newReg(CU32));
        emit("ld.shared" + vn + ".u32 " +
                 (n > 1 ? "{" + join(got, ", ") + "}" : got[0]) + ", [" +
                 raddr + "];",
             n > 1 ? "" : got[0], {raddr}, true);
        pool[CU32].insert(pool[CU32].end(), got.begin(), got.end());
    }

    // ---- injected-bug detectability probes --------------------------------

    void
    bugProbes()
    {
        // rem probe: -7 rem.s32 3 is -1; the legacy untyped u64 rem gives 0.
        std::string a = newReg(CS32);
        defNoPool(CS32, "mov.s32 " + a + ", -7;", a, {});
        std::string b = newReg(CS32);
        defNoPool(CS32, "mov.s32 " + b + ", 3;", b, {});
        std::string r = newReg(CS32);
        def(CS32, "rem.s32 " + r + ", " + a + ", " + b + ";", r, {a, b});
        emit("st.global.s32 [" + outp + "+48], " + r + ";", "", {outp, r},
             false, true);

        // bfe probe: signed extract of -1 at pos 4 len 8 is -1; the legacy
        // unsign-extended bfe gives 255.
        a = newReg(CS32);
        defNoPool(CS32, "mov.s32 " + a + ", -1;", a, {});
        r = newReg(CS32);
        def(CS32, "bfe.s32 " + r + ", " + a + ", 4, 8;", r, {a});
        emit("st.global.s32 [" + outp + "+52], " + r + ";", "", {outp, r},
             false, true);

        // fma probe: a = 1 + 2^-12, c = 2^-24. fma(a, a, c) keeps the sticky
        // low bit (0x3F801001); round(a*a)+c double-rounds to 0x3F801000.
        a = newReg(CF32);
        defNoPool(CF32, "mov.f32 " + a + ", 0f3F800800;", a, {});
        b = newReg(CF32);
        defNoPool(CF32, "mov.f32 " + b + ", 0f33800000;", b, {});
        r = newReg(CF32);
        def(CF32, "fma.rn.f32 " + r + ", " + a + ", " + a + ", " + b + ";",
            r, {a, b});
        emit("st.global.f32 [" + outp + "+56], " + r + ";", "", {outp, r},
             false, true);
    }

    // ---- epilogue ---------------------------------------------------------

    void
    epilogue()
    {
        auto st = [&](const char *ty, unsigned off, const std::string &v) {
            emit("st.global." + std::string(ty) + " [" + outp + "+" +
                     std::to_string(off) + "], " + v + ";",
                 "", {outp, v}, false, true);
        };
        st("u32", 0, pick(CU32));
        st("s32", 8, pick(CS32));
        st("u64", 16, pick(CU64));
        st("s64", 24, pick(CS64));
        st("f32", 32, pick(CF32));
        st("f16", 36, pick(CF16));
        const std::string pz = pick(CPRED), uz = newReg(CU32);
        emit("selp.u32 " + uz + ", 1, 0, " + pz + ";", uz, {pz}, false,
             false, fallbackFor(CU32, uz));
        st("u32", 40, uz);
        emit("ret;", "", {}, true);
    }

    // ---- seeded defects ----------------------------------------------------

    void
    defectSharedRace()
    {
        const unsigned nt = nthreads();
        k.decl_lines.push_back(".shared .align 4 .b8 tile[" +
                               std::to_string(4 * (nt + 1)) + "];");
        // Index by %tid.x directly (not the mad-computed linear id): the
        // static race detector's affine abstraction only tracks tid-linear
        // addresses, and a seeded defect must live inside the address
        // language the detector supports to test the static/dynamic
        // cross-check rather than the abstraction's precision limits.
        const std::string tid = newReg(CU32);
        emit("mov.u32 " + tid + ", %tid.x;", tid, {}, true);
        const std::string off = newReg(CU32);
        emit("mul.lo.u32 " + off + ", " + tid + ", 4;", off, {tid}, true);
        const std::string off64 = newAddr();
        emit("cvt.u64.u32 " + off64 + ", " + off + ";", off64, {off}, true);
        const std::string base = newAddr();
        emit("mov.u64 " + base + ", tile;", base, {}, true);
        const std::string addr = newAddr();
        emit("add.u64 " + addr + ", " + base + ", " + off64 + ";", addr,
             {base, off64}, true);
        // Same-phase neighbour read: no bar.sync between store and load.
        emit("st.shared.u32 [" + addr + "], " + lin + ";", "", {addr, lin},
             true);
        const std::string got = newReg(CU32);
        emit("ld.shared.u32 " + got + ", [" + addr + "+4];", got, {addr},
             true);
        emit("st.global.u32 [" + outp + "+0], " + got + ";", "",
             {outp, got}, true);
        emit("ret;", "", {}, true);
    }

    void
    defectWideRemRead()
    {
        const std::string u = newReg(CU32);
        emit("ld.global.u32 " + u + ", [" + in0p + "+0];", u, {in0p}, true);
        const std::string w = newReg(CU64);
        emit("ld.global.u64 " + w + ", [" + in0p + "+16];", w, {in0p}, true);
        const std::string d = newReg(CU64);
        // The paper's rem bug class: a 64-bit rem reading a 32-bit register.
        emit("rem.u64 " + d + ", " + w + ", " + u + ";", d, {w, u}, true);
        emit("st.global.u64 [" + outp + "+0], " + d + ";", "", {outp, d},
             true);
        emit("ret;", "", {}, true);
    }

    // ---- assembly ----------------------------------------------------------

    GenKernel
    build(Defect defect, StrideSeed stride)
    {
        k.defect = defect;
        k.stride_seed = stride;
        pickShape();
        if (stride != StrideSeed::None) {
            // One full warp, one CTA: the probe's per-lane offsets cover
            // exactly the warp the classifier reasons about, and in_words
            // is grown so the widest stride stays inside the in0 buffer.
            k.spec.block = Dim3{32, 1, 1};
            k.spec.grid = Dim3{1, 1, 1};
            k.spec.in_words = 32;
        }
        prologue();
        if (stride != StrideSeed::None) {
            const unsigned words = stride == StrideSeed::Coalesced ? 1
                                   : stride == StrideSeed::Stride2 ? 2
                                                                   : 32;
            strideProbe(words);
        }

        switch (defect) {
          case Defect::SharedRace:
            defectSharedRace();
            break;
          case Defect::WideRemRead:
            defectWideRemRead();
            break;
          case Defect::None: {
            k.decl_lines.push_back(".local .align 16 .b8 lbuf[" +
                                   std::to_string(kLocalBytes) + "];");
            lptr = newAddr();
            emit("mov.u64 " + lptr + ", lbuf;", lptr, {}, true);
            seedValues();
            const unsigned n1 = 4 + unsigned(rng.below(8));
            for (unsigned i = 0; i < n1; i++)
                menuOp();
            unsigned diamonds = 0;
            if (rng.below(10) < 7)
                diamond(diamonds++);
            const unsigned n2 = 2 + unsigned(rng.below(6));
            for (unsigned i = 0; i < n2; i++)
                menuOp();
            if (rng.below(10) < 6)
                sharedTile();
            if (rng.below(10) < 3)
                diamond(diamonds++);
            const unsigned n3 = 2 + unsigned(rng.below(6));
            for (unsigned i = 0; i < n3; i++)
                menuOp();
            bugProbes();
            epilogue();
            break;
          }
        }

        // Register declarations, now that per-class counts are final.
        std::vector<std::string> decls;
        if (na)
            decls.push_back(".reg .u64 %a<" + std::to_string(na) + ">;");
        for (unsigned c = 0; c < NCLS; c++) {
            if (count[c])
                decls.push_back(".reg " + std::string(kCls[c].regty) + " " +
                                kCls[c].prefix + "<" +
                                std::to_string(count[c]) + ">;");
        }
        decls.insert(decls.end(), k.decl_lines.begin(), k.decl_lines.end());
        k.decl_lines = std::move(decls);
        k.state.assign(k.body.size(), 0);
        return std::move(k);
    }
};

} // namespace

std::string
GenKernel::ptx() const
{
    std::string out;
    out += "// MLGPUSim difftest kernel (seed " + std::to_string(seed) + ")\n";
    out += ".version 6.0\n.target sm_70\n.address_size 64\n\n";
    out += ".visible .entry " + spec.kernel + "(\n";
    out += "    .param .u64 in0,\n";
    out += "    .param .u64 in1,\n";
    out += "    .param .u64 out,\n";
    out += "    .param .u32 total\n";
    out += ")\n{\n";
    for (const auto &d : decl_lines)
        out += "    " + d + "\n";
    out += "\n";
    for (size_t i = 0; i < body.size(); i++) {
        const uint8_t st = i < state.size() ? state[i] : 0;
        if (st == 2)
            continue;
        const GenStmt &s = body[i];
        if (s.is_label) {
            out += s.text + "\n";
            continue;
        }
        out += "    " + (st == 1 ? s.fallback : s.text) + "\n";
    }
    out += "}\n";
    return out;
}

unsigned
GenKernel::liveCount() const
{
    unsigned n = 0;
    for (size_t i = 0; i < body.size(); i++) {
        const uint8_t st = i < state.size() ? state[i] : 0;
        if (st != 2 && !body[i].is_label)
            n++;
    }
    return n;
}

GenKernel
KernelGen::generate(Defect defect, StrideSeed stride)
{
    Builder b(seed_);
    return b.build(defect, stride);
}

} // namespace mlgs::difftest
