/**
 * @file
 * The two SIMT-semantic checks.
 *
 * Barrier divergence: for every branch guarded by a divergent predicate, the
 * region between the branch and its reconvergence block is executed by each
 * side of the warp split serially (SIMT-stack semantics). A bar.sync inside
 * that region whose reconvergence point post-dominates it can never be
 * reached by the whole CTA at once — the executor would trip its
 * "divergent warp at barrier" requirement at run time; here it is an error
 * before anything runs.
 *
 * Static shared-memory races: shared accesses are partitioned into
 * barrier-delimited phases (warp-epoch analysis). Two accesses are in the
 * same phase when a barrier-free CFG path connects them in either direction
 * (or they are the same instruction, which distinct threads execute
 * concurrently by definition). For same-phase pairs on the same shared
 * variable with at least one write, the affine address forms decide whether
 * distinct threads can touch overlapping bytes:
 *   - a write whose address is warp-uniform (zero tid part, no divergent
 *     unknown) and whose guard is not thread-selecting races against itself;
 *   - equal tid-coefficient vectors with fully known offsets race when the
 *     constant delta maps two distinct threads onto overlapping bytes;
 *   - equal tid parts with unknown remainders are assumed partition-local
 *     (each thread stays inside its own tid-indexed slice — the row-private
 *     FFT tile pattern);
 *   - differing known tid parts race when the gcd lattice of coefficients
 *     reaches an overlapping delta.
 */
#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <sstream>

#include "ptx/verifier/internal.h"

namespace mlgs::ptx::verifier::detail
{

namespace
{

// ---------------------------------------------------------------------------
// Affine value arithmetic
// ---------------------------------------------------------------------------

Affine
unknownVal(bool divergent)
{
    Affine a;
    a.valid = true;
    a.unk_uniform = !divergent;
    a.unk_divergent = divergent;
    return a;
}

Affine
constVal(int64_t c)
{
    Affine a;
    a.valid = true;
    a.c0 = c;
    return a;
}

/** Canonical form: unknown flags zero out the fields they subsume. */
void
normalize(Affine &a)
{
    if (a.unk_uniform)
        a.c0 = 0;
}

bool
sameShape(const Affine &a, const Affine &b)
{
    return a.valid == b.valid && a.var == b.var && a.c0 == b.c0 &&
           a.ct[0] == b.ct[0] && a.ct[1] == b.ct[1] && a.ct[2] == b.ct[2] &&
           a.unk_uniform == b.unk_uniform &&
           a.unk_divergent == b.unk_divergent;
}

Affine
addVals(const Affine &x, const Affine &y)
{
    if (!x.valid || !y.valid)
        return Affine{};
    Affine r;
    r.valid = true;
    if (x.var >= 0 && y.var >= 0) {
        // Adding two base pointers is meaningless; collapse.
        return unknownVal(x.unk_divergent || y.unk_divergent);
    }
    r.var = x.var >= 0 ? x.var : y.var;
    r.c0 = x.c0 + y.c0;
    for (int i = 0; i < 3; i++)
        r.ct[i] = x.ct[i] + y.ct[i];
    r.unk_uniform = x.unk_uniform || y.unk_uniform;
    r.unk_divergent = x.unk_divergent || y.unk_divergent;
    normalize(r);
    return r;
}

Affine
scaleVal(const Affine &x, int64_t c)
{
    if (!x.valid)
        return Affine{};
    if (x.var >= 0 && c != 1)
        return unknownVal(x.unk_divergent);
    Affine r = x;
    r.c0 *= c;
    for (int i = 0; i < 3; i++)
        r.ct[i] *= c;
    normalize(r);
    return r;
}

/**
 * Join at a register with multiple reaching definitions. Componentwise and
 * strictly degrading — each field can only move exact -> unknown and the
 * unknown flags only accumulate, so the fixpoint terminates.
 */
bool
joinInto(Affine &dst, const Affine &v)
{
    if (!v.valid)
        return false;
    if (!dst.valid) {
        dst = v;
        return true;
    }
    Affine m;
    m.valid = true;
    m.unk_uniform = dst.unk_uniform || v.unk_uniform;
    m.unk_divergent = dst.unk_divergent || v.unk_divergent;
    if (dst.var == v.var) {
        m.var = dst.var;
    } else {
        // Differing (CTA-uniform) base addresses.
        m.var = -1;
        m.unk_uniform = true;
    }
    for (int i = 0; i < 3; i++) {
        if (dst.ct[i] == v.ct[i]) {
            m.ct[i] = dst.ct[i];
        } else {
            m.ct[i] = 0;
            m.unk_divergent = true; // tid dependence differs per definition
        }
    }
    if (dst.c0 == v.c0) {
        m.c0 = dst.c0;
    } else {
        m.c0 = 0;
        m.unk_uniform = true;
    }
    normalize(m);
    if (sameShape(m, dst))
        return false;
    dst = m;
    return true;
}

Affine
operandAffine(const Operand &op, const KernelDef &k,
              const std::vector<Affine> &regs)
{
    switch (op.kind) {
      case Operand::Kind::Imm:
        return constVal(op.imm);
      case Operand::Kind::Reg:
        if (op.reg >= 0 && size_t(op.reg) < regs.size())
            return regs[size_t(op.reg)];
        return Affine{};
      case Operand::Kind::Special:
        switch (op.sreg) {
          case SReg::TidX:
          case SReg::TidY:
          case SReg::TidZ: {
            const int d = int(op.sreg) - int(SReg::TidX);
            if (k.tidDimTrivial(d))
                return constVal(0); // launch bounds pin this extent to 1
            Affine a;
            a.valid = true;
            a.ct[d] = 1;
            return a;
          }
          case SReg::NTidX:
          case SReg::NTidY:
          case SReg::NTidZ: {
            // .reqntid pins the block extent, making %ntid a constant. This
            // is what keeps tid.y*ntid.x+tid.x linear ids inside the affine
            // language (tile index arithmetic in launch-bounded kernels).
            const int d = int(op.sreg) - int(SReg::NTidX);
            if (k.reqntid[d] > 0)
                return constVal(int64_t(k.reqntid[d]));
            return unknownVal(false);
          }
          case SReg::CtaIdX:
          case SReg::CtaIdY:
          case SReg::CtaIdZ:
          case SReg::NCtaIdX:
          case SReg::NCtaIdY:
          case SReg::NCtaIdZ:
            return unknownVal(false);
          default:
            return unknownVal(true); // laneid / warpid / clock
        }
      case Operand::Kind::Sym: {
        for (size_t i = 0; i < k.shared_vars.size(); i++) {
            if (k.shared_vars[i].name == op.sym) {
                Affine a;
                a.valid = true;
                a.var = int(i);
                return a;
            }
        }
        return unknownVal(false); // param/global/local symbol base
      }
      default:
        return Affine{};
    }
}

/** Abstract transfer of an instruction whose only destination is `dst`. */
Affine
evalAffine(const Instr &ins, uint32_t dst, const KernelDef &k,
           const std::vector<Affine> &regs, const Uniformity &uni)
{
    auto src = [&](size_t i) -> Affine {
        return i < ins.ops.size() ? operandAffine(ins.ops[i], k, regs)
                                  : Affine{};
    };
    const auto fallback = [&]() {
        return unknownVal(uni.isDivergent(int(dst)));
    };

    switch (ins.op) {
      case Op::Mov:
      case Op::Cvt:
      case Op::Cvta:
        return src(1);
      case Op::Add:
        return addVals(src(1), src(2));
      case Op::Sub:
        return addVals(src(1), scaleVal(src(2), -1));
      case Op::Mul:
      case Op::Mad: {
        if (ins.mul_mode == MulMode::Hi || isFloat(ins.type))
            return fallback();
        const Affine a = src(1), b = src(2);
        Affine prod;
        const bool a_const =
            a.valid && a.var < 0 && !a.ct[0] && !a.ct[1] && !a.ct[2] &&
            !a.unk_uniform && !a.unk_divergent;
        const bool b_const =
            b.valid && b.var < 0 && !b.ct[0] && !b.ct[1] && !b.ct[2] &&
            !b.unk_uniform && !b.unk_divergent;
        if (b_const)
            prod = scaleVal(a, b.c0);
        else if (a_const)
            prod = scaleVal(b, a.c0);
        else if (a.valid && b.valid)
            prod = unknownVal(a.unk_divergent || b.unk_divergent ||
                              a.ct[0] || a.ct[1] || a.ct[2] || b.ct[0] ||
                              b.ct[1] || b.ct[2]);
        else
            return Affine{};
        if (ins.op == Op::Mad)
            return addVals(prod, src(3));
        return prod;
      }
      case Op::Shl: {
        const Affine s = src(2);
        if (s.valid && s.var < 0 && !s.ct[0] && !s.ct[1] && !s.ct[2] &&
            !s.unk_uniform && !s.unk_divergent && s.c0 >= 0 && s.c0 < 32)
            return scaleVal(src(1), int64_t(1) << s.c0);
        return fallback();
      }
      default:
        return fallback();
    }
}

// ---------------------------------------------------------------------------
// Barrier phases
// ---------------------------------------------------------------------------

/** Unpredicated bar.sync pcs per block, sorted (phase delimiters). */
std::vector<std::vector<uint32_t>>
collectBars(const KernelDef &k, const Cfg &cfg)
{
    std::vector<std::vector<uint32_t>> bars(cfg.numBlocks());
    for (uint32_t b = 0; b < cfg.numBlocks(); b++)
        for (uint32_t pc = cfg.blocks()[b].first; pc <= cfg.blocks()[b].last;
             pc++)
            if (k.instrs[pc].op == Op::Bar && k.instrs[pc].pred < 0)
                bars[b].push_back(pc);
    return bars;
}

/** Is there a CFG path from p to q that crosses no phase delimiter? */
bool
barFreePath(const Cfg &cfg, const std::vector<std::vector<uint32_t>> &bars,
            uint32_t p, uint32_t q)
{
    const uint32_t bp = cfg.blockOf(p), bq = cfg.blockOf(q);
    if (bp == bq && p < q) {
        bool blocked = false;
        for (const uint32_t bar : bars[bp])
            blocked |= (bar > p && bar < q);
        if (!blocked)
            return true;
        // fall through: the pair may still connect around a loop
    }
    // Leaving block(p): no delimiter after p.
    for (const uint32_t bar : bars[bp])
        if (bar > p)
            return false;
    std::vector<bool> seen(cfg.numBlocks(), false);
    std::vector<uint32_t> work(cfg.blocks()[bp].succs.begin(),
                               cfg.blocks()[bp].succs.end());
    while (!work.empty()) {
        const uint32_t b = work.back();
        work.pop_back();
        if (b >= cfg.numBlocks() || seen[b])
            continue; // virtual exit or already visited
        seen[b] = true;
        if (b == bq) {
            bool blocked = false;
            for (const uint32_t bar : bars[b])
                blocked |= (bar < q);
            if (!blocked)
                return true;
            // Entering deeper than q needs the whole block bar-free anyway.
        }
        if (bars[b].empty())
            for (const uint32_t s : cfg.blocks()[b].succs)
                work.push_back(s);
    }
    return false;
}

// ---------------------------------------------------------------------------
// Shared accesses
// ---------------------------------------------------------------------------

struct SharedAccess
{
    uint32_t pc = 0;
    bool is_write = false;
    unsigned width = 0;
    Affine addr;
    bool divergent_guard = false;
};

std::vector<SharedAccess>
collectSharedAccesses(const KernelDef &k, const Cfg &cfg,
                      const std::vector<Affine> &regs, const Uniformity &uni)
{
    std::vector<SharedAccess> out;
    for (uint32_t pc = 0; pc < k.instrs.size(); pc++) {
        const Instr &ins = k.instrs[pc];
        if (ins.op != Op::Ld && ins.op != Op::St)
            continue;
        const Affine addr = memAddressAffine(k, ins, regs);
        // Shared when the space says so, or when the (generic) address is
        // provably derived from a shared variable's base.
        if (ins.space != Space::Shared && !(addr.valid && addr.var >= 0))
            continue;

        SharedAccess a;
        a.pc = pc;
        a.is_write = ins.op == Op::St;
        a.width = typeSize(ins.type) * std::max(1u, ins.vec_width);
        a.addr = addr.valid ? addr : unknownVal(true);
        a.divergent_guard = guardDivergent(k, cfg, uni, pc);
        out.push_back(std::move(a));
    }
    return out;
}

bool
uniformAddr(const Affine &a)
{
    return a.valid && !a.ct[0] && !a.ct[1] && !a.ct[2] && !a.unk_divergent;
}

bool
fullyKnown(const Affine &a)
{
    return a.valid && !a.unk_uniform && !a.unk_divergent;
}

/**
 * Can distinct threads produce overlapping byte ranges for addresses
 * delta + sum(coeffs)*Z? `exclude_delta` removes the same-thread solution
 * (valid only when both coefficient vectors are equal, where k=0 <=> the
 * same thread).
 */
bool
gcdOverlap(int64_t delta, const std::vector<int64_t> &coeffs, unsigned wa,
           unsigned wb, bool exclude_delta)
{
    int64_t g = 0;
    for (const int64_t c : coeffs)
        g = std::gcd(g, std::abs(c));
    if (g == 0)
        return delta > -int64_t(wb) && delta < int64_t(wa) && !exclude_delta;
    for (int64_t d = -int64_t(wb) + 1; d < int64_t(wa); d++) {
        if (exclude_delta && d == delta)
            continue;
        const int64_t diff = d - delta;
        if (diff % g == 0)
            return true;
    }
    return false;
}

std::string
describeAccess(const KernelDef &k, const SharedAccess &a)
{
    std::ostringstream os;
    os << (a.is_write ? "store" : "load") << " at line "
       << k.instrs[a.pc].line;
    if (a.addr.var >= 0 && size_t(a.addr.var) < k.shared_vars.size())
        os << " to '" << k.shared_vars[size_t(a.addr.var)].name << "'";
    return os.str();
}

} // namespace

Affine
memAddressAffine(const KernelDef &k, const Instr &ins,
                 const std::vector<Affine> &regs)
{
    const Operand *mem = nullptr;
    for (const Operand &op : ins.ops)
        if (op.kind == Operand::Kind::Mem)
            mem = &op;
    if (!mem)
        return Affine{};
    if (!mem->sym.empty()) {
        Operand symop;
        symop.kind = Operand::Kind::Sym;
        symop.sym = mem->sym;
        return addVals(operandAffine(symop, k, regs), constVal(mem->imm));
    }
    if (mem->reg >= 0) {
        Operand regop;
        regop.kind = Operand::Kind::Reg;
        regop.reg = mem->reg;
        return addVals(operandAffine(regop, k, regs), constVal(mem->imm));
    }
    return Affine{};
}

std::vector<Affine>
computeAffine(const KernelDef &k, const Uniformity &uni)
{
    std::vector<Affine> regs(k.reg_types.size());
    const auto &tt = timingTable(k);
    bool changed = true;
    while (changed) {
        changed = false;
        for (uint32_t pc = 0; pc < k.instrs.size(); pc++) {
            if (tt[pc].n_writes != 1 || tt[pc].writes[0] >= regs.size())
                continue;
            const uint32_t dst = tt[pc].writes[0];
            const Affine v = evalAffine(k.instrs[pc], dst, k, regs, uni);
            changed |= joinInto(regs[dst], v);
        }
    }
    return regs;
}

namespace
{

/**
 * Abstract-execute one instruction against a register state. A predicated
 * write may not retire on every lane, so its result joins the incoming
 * value instead of replacing it; a divergent predicate additionally mixes
 * old and new values per lane, which no single affine form represents.
 */
void
stepAffine(const KernelDef &k, uint32_t pc, const Uniformity &uni,
           std::vector<Affine> &state)
{
    const Instr &ins = k.instrs[pc];
    const InstrTiming &t = timingTable(k)[pc];
    if (t.n_writes == 1) {
        const uint32_t dst = t.writes[0];
        if (dst >= state.size())
            return;
        const Affine v = evalAffine(ins, dst, k, state, uni);
        if (ins.pred < 0) {
            state[dst] = v;
        } else {
            if (uni.isDivergent(ins.pred))
                joinInto(state[dst], unknownVal(true));
            joinInto(state[dst], v);
        }
        return;
    }
    for (const uint32_t dst : t.writeSet())
        if (dst < state.size())
            state[dst] = unknownVal(uni.isDivergent(int(dst)));
}

bool
isMemSite(const Instr &ins)
{
    return ins.op == Op::Ld || ins.op == Op::St || ins.op == Op::Atom ||
           ins.op == Op::Red;
}

} // namespace

std::unordered_map<uint32_t, std::vector<Affine>>
computeAffineAtSites(const KernelDef &k, const Cfg &cfg, const Uniformity &uni)
{
    const size_t nr = k.reg_types.size();
    const uint32_t nb = cfg.numBlocks();
    // entry[b]: joined affine state on entry to block b (invalid = no
    // reaching definition yet — also the state of unreachable blocks).
    std::vector<std::vector<Affine>> entry(nb, std::vector<Affine>(nr));

    std::vector<bool> queued(nb, false);
    std::vector<uint32_t> work;
    if (nb > 0) {
        work.push_back(0);
        queued[0] = true;
    }
    while (!work.empty()) {
        const uint32_t b = work.back();
        work.pop_back();
        queued[b] = false;
        std::vector<Affine> state = entry[b];
        for (uint32_t pc = cfg.blocks()[b].first; pc <= cfg.blocks()[b].last;
             pc++)
            stepAffine(k, pc, uni, state);
        for (const uint32_t s : cfg.blocks()[b].succs) {
            if (s >= nb)
                continue; // virtual exit
            bool changed = false;
            for (size_t i = 0; i < nr; i++)
                changed |= joinInto(entry[s][i], state[i]);
            if (changed && !queued[s]) {
                work.push_back(s);
                queued[s] = true;
            }
        }
    }

    // Replay each block once more, snapshotting the state at memory sites.
    std::unordered_map<uint32_t, std::vector<Affine>> sites;
    for (uint32_t b = 0; b < nb; b++) {
        std::vector<Affine> state = entry[b];
        for (uint32_t pc = cfg.blocks()[b].first; pc <= cfg.blocks()[b].last;
             pc++) {
            if (isMemSite(k.instrs[pc]))
                sites.emplace(pc, state);
            stepAffine(k, pc, uni, state);
        }
    }
    return sites;
}

void
checkBarrierDivergence(const KernelDef &k, const Cfg &cfg,
                       const Uniformity &uni, std::vector<Diagnostic> &out)
{
    for (uint32_t pc = 0; pc < k.instrs.size(); pc++) {
        const Instr &ins = k.instrs[pc];

        if (ins.op == Op::Bar && ins.pred >= 0 &&
            guardDivergent(k, cfg, uni, pc)) {
            out.push_back(makeDiag(
                Severity::Error, Check::DivergentBarrier, k, pc,
                "bar.sync is guarded by divergent predicate '" +
                    k.reg_names[size_t(ins.pred)] +
                    "'; threads that skip it will deadlock the CTA"));
            continue;
        }

        if (!ins.isBranch() || ins.pred < 0 ||
            !guardDivergent(k, cfg, uni, pc))
            continue;

        const uint32_t bb = cfg.blockOf(pc);
        const uint32_t rblock = (ins.reconv_pc == kReconvExit)
                                    ? cfg.exitNode()
                                    : cfg.blockOf(ins.reconv_pc);

        // BFS over the divergent region: blocks reachable from the branch
        // without passing through the reconvergence block.
        std::vector<bool> seen(cfg.numBlocks(), false);
        std::vector<uint32_t> work(cfg.blocks()[bb].succs.begin(),
                                   cfg.blocks()[bb].succs.end());
        while (!work.empty()) {
            const uint32_t b = work.back();
            work.pop_back();
            if (b >= cfg.numBlocks() || b == rblock || seen[b])
                continue;
            seen[b] = true;
            for (uint32_t bpc = cfg.blocks()[b].first;
                 bpc <= cfg.blocks()[b].last; bpc++) {
                if (k.instrs[bpc].op != Op::Bar)
                    continue;
                // The issue condition: the reconvergence point
                // post-dominates the barrier, so the warp cannot rejoin
                // before it and each split side reaches it alone.
                if (rblock != cfg.exitNode() &&
                    !cfg.postDominates(rblock, b))
                    continue;
                std::ostringstream os;
                os << "bar.sync inside the divergent region of the branch "
                      "at line "
                   << ins.line << " (guard '"
                   << k.reg_names[size_t(ins.pred)]
                   << "' is thread-dependent); the reconvergence point "
                      "post-dominates the barrier, so the full CTA can "
                      "never arrive together";
                out.push_back(makeDiag(Severity::Error,
                                       Check::DivergentBarrier, k, bpc,
                                       os.str()));
            }
            for (const uint32_t s : cfg.blocks()[b].succs)
                work.push_back(s);
        }
    }
}

void
checkSharedRaces(const KernelDef &k, const Cfg &cfg, const Uniformity &uni,
                 std::vector<Diagnostic> &out)
{
    if (k.shared_vars.empty() && k.shared_bytes == 0)
        return;
    const std::vector<Affine> regs = computeAffine(k, uni);
    const std::vector<SharedAccess> accesses =
        collectSharedAccesses(k, cfg, regs, uni);
    if (accesses.empty())
        return;
    const auto bars = collectBars(k, cfg);

    auto samePhase = [&](const SharedAccess &a, const SharedAccess &b) {
        return a.pc == b.pc || barFreePath(cfg, bars, a.pc, b.pc) ||
               barFreePath(cfg, bars, b.pc, a.pc);
    };

    // Standalone rule: an unguarded (or uniformly guarded) store to a
    // warp-uniform address is executed by every active thread at once.
    for (const SharedAccess &a : accesses) {
        if (!a.is_write || a.divergent_guard || !uniformAddr(a.addr))
            continue;
        out.push_back(makeDiag(
            Severity::Warning, Check::SharedRace, k, a.pc,
            "every active thread stores to the same shared address (" +
                describeAccess(k, a) +
                " has a warp-uniform address and no thread-selecting "
                "guard)"));
    }

    for (size_t i = 0; i < accesses.size(); i++) {
        for (size_t j = i + 1; j < accesses.size(); j++) {
            const SharedAccess &a = accesses[i];
            const SharedAccess &b = accesses[j];
            if (!a.is_write && !b.is_write)
                continue;
            // Distinct shared variables never alias; an unknown base is
            // only compared against another unknown base.
            if (a.addr.var != b.addr.var)
                continue;
            // Both-uniform pairs are covered by the standalone rule.
            if (uniformAddr(a.addr) && uniformAddr(b.addr))
                continue;
            if (!samePhase(a, b))
                continue;

            const bool same_ct = a.addr.ct[0] == b.addr.ct[0] &&
                                 a.addr.ct[1] == b.addr.ct[1] &&
                                 a.addr.ct[2] == b.addr.ct[2];
            if (same_ct) {
                // Equal tid parts: unknown remainders are assumed to stay
                // inside one thread's partition (row-private tiles).
                if (!fullyKnown(a.addr) || !fullyKnown(b.addr))
                    continue;
                const std::vector<int64_t> coeffs = {
                    a.addr.ct[0], a.addr.ct[1], a.addr.ct[2]};
                if (!gcdOverlap(a.addr.c0 - b.addr.c0, coeffs, a.width,
                                b.width, /*exclude_delta=*/true))
                    continue;
            } else {
                if (!fullyKnown(a.addr) || !fullyKnown(b.addr))
                    continue;
                const std::vector<int64_t> coeffs = {
                    a.addr.ct[0], a.addr.ct[1], a.addr.ct[2],
                    b.addr.ct[0], b.addr.ct[1], b.addr.ct[2]};
                if (!gcdOverlap(a.addr.c0 - b.addr.c0, coeffs, a.width,
                                b.width, /*exclude_delta=*/false))
                    continue;
            }

            std::ostringstream os;
            os << "shared-memory may-race: " << describeAccess(k, a)
               << " and " << describeAccess(k, b)
               << " can touch overlapping bytes from distinct threads in "
                  "the same barrier phase";
            out.push_back(makeDiag(Severity::Warning, Check::SharedRace, k,
                                   a.pc, os.str()));
        }
    }
}

} // namespace mlgs::ptx::verifier::detail
