/**
 * @file
 * Register dataflow analyses: flow-insensitive uniformity (feeds the
 * barrier-divergence and race checks in phases.cc) and the def-before-use
 * check, a forward dataflow over the block graph run at two strengths —
 * a may-analysis (union over predecessors: no reaching definition at all
 * means the read is uninitialized on every path, an error) and a
 * must-analysis (intersection over predecessors, counting only unpredicated
 * definitions: a missing definite definition means some path reaches the
 * read without initializing, a warning).
 */
#include <algorithm>
#include <cstring>

#include "ptx/verifier/internal.h"

namespace mlgs::ptx::verifier::detail
{

namespace
{

bool
sregDivergent(SReg s, const Uniformity &u)
{
    switch (s) {
      case SReg::TidX:
      case SReg::TidY:
      case SReg::TidZ:
        // A tid component whose block extent is pinned to 1 by launch
        // bounds is the constant 0, hence uniform.
        return !u.tid_uniform[int(s) - int(SReg::TidX)];
      case SReg::LaneId:
      case SReg::WarpId:
      case SReg::Clock:
        return true;
      default:
        // ntid/ctaid/nctaid are CTA-wide constants.
        return false;
    }
}

bool
operandDivergent(const Operand &op, const Uniformity &u)
{
    switch (op.kind) {
      case Operand::Kind::Reg:
        return u.isDivergent(op.reg);
      case Operand::Kind::Vec:
        for (const int r : op.vec)
            if (u.isDivergent(r))
                return true;
        return false;
      case Operand::Kind::Mem: {
        if (op.reg >= 0 && u.isDivergent(op.reg))
            return true;
        for (const int r : op.vec)
            if (u.isDivergent(r))
                return true;
        return false;
      }
      case Operand::Kind::Special:
        return sregDivergent(op.sreg, u);
      default:
        // Imm / FImm / Sym / Label are the same for every thread.
        return false;
    }
}

} // namespace

bool
instrValueDivergent(const Instr &ins, const Uniformity &u)
{
    // A guarded write is control-dependent on the guard.
    if (ins.pred >= 0 && u.isDivergent(ins.pred))
        return true;
    switch (ins.op) {
      case Op::Ld:
        // Only param/const space contents are CTA-uniform; any other load
        // may observe thread-dependent data.
        if (ins.space != Space::Param && ins.space != Space::Const)
            return true;
        break;
      case Op::Tex:
      case Op::Atom:
        return true;
      default:
        break;
    }
    // ops[0] is the destination for every dst-producing opcode.
    for (size_t i = 1; i < ins.ops.size(); i++)
        if (operandDivergent(ins.ops[i], u))
            return true;
    return false;
}

bool
guardDivergent(const KernelDef &k, const Cfg &cfg, const Uniformity &uni,
               uint32_t pc)
{
    const Instr &use = k.instrs[pc];
    if (use.pred < 0)
        return false;
    const uint32_t first = cfg.blocks()[cfg.blockOf(pc)].first;
    for (uint32_t p = pc; p-- > first;) {
        const Instr &def = k.instrs[p];
        const auto writes = timingTable(k)[p].writeSet();
        if (std::find(writes.begin(), writes.end(), uint32_t(use.pred)) ==
            writes.end())
            continue;
        // A predicated definition merges with the inflowing value; only an
        // unconditional in-block definition fully decides the guard here.
        if (def.pred >= 0)
            break;
        return instrValueDivergent(def, uni);
    }
    return uni.isDivergent(use.pred);
}

Uniformity
computeUniformity(const KernelDef &k)
{
    Uniformity u;
    u.divergent.assign(k.reg_types.size(), false);
    for (int d = 0; d < 3; d++)
        u.tid_uniform[d] = k.tidDimTrivial(d);

    bool changed = true;
    while (changed) {
        changed = false;
        for (uint32_t pc = 0; pc < k.instrs.size(); pc++) {
            const auto writes = timingTable(k)[pc].writeSet();
            if (writes.empty() || !instrValueDivergent(k.instrs[pc], u))
                continue;
            for (const uint32_t r : writes) {
                if (r < u.divergent.size() && !u.divergent[r]) {
                    u.divergent[r] = true;
                    changed = true;
                }
            }
        }
    }
    return u;
}

namespace
{

struct BitSet
{
    std::vector<uint64_t> w;

    void init(size_t bits, bool ones)
    {
        w.assign((bits + 63) / 64, ones ? ~uint64_t(0) : 0);
    }
    bool test(int i) const { return (w[size_t(i) >> 6] >> (i & 63)) & 1; }
    void set(int i) { w[size_t(i) >> 6] |= uint64_t(1) << (i & 63); }
    bool
    intersectWith(const BitSet &o) // returns true when changed
    {
        bool changed = false;
        for (size_t i = 0; i < w.size(); i++) {
            const uint64_t n = w[i] & o.w[i];
            changed |= (n != w[i]);
            w[i] = n;
        }
        return changed;
    }
    bool
    unionWith(const BitSet &o)
    {
        bool changed = false;
        for (size_t i = 0; i < w.size(); i++) {
            const uint64_t n = w[i] | o.w[i];
            changed |= (n != w[i]);
            w[i] = n;
        }
        return changed;
    }
};

} // namespace

void
checkUninit(const KernelDef &k, const Cfg &cfg, std::vector<Diagnostic> &out)
{
    const size_t nr = k.reg_types.size();
    if (nr == 0 || k.instrs.empty())
        return;
    const uint32_t nb = cfg.numBlocks();

    // OUT sets per block for both strengths. Must-analysis lattice starts at
    // "everything defined" (top) except the entry; may-analysis starts empty.
    std::vector<BitSet> may_out(nb), must_out(nb);
    std::vector<BitSet> may_gen(nb), must_gen(nb);
    for (uint32_t b = 0; b < nb; b++) {
        may_gen[b].init(nr, false);
        must_gen[b].init(nr, false);
        for (uint32_t pc = cfg.blocks()[b].first; pc <= cfg.blocks()[b].last;
             pc++) {
            for (const uint32_t r : timingTable(k)[pc].writeSet()) {
                if (r >= nr)
                    continue;
                may_gen[b].set(int(r));
                if (k.instrs[pc].pred < 0)
                    must_gen[b].set(int(r));
            }
        }
        may_out[b] = may_gen[b];
        must_out[b].init(nr, b != 0);
        must_out[b].unionWith(must_gen[b]);
    }

    BitSet may_in, must_in, empty, full;
    empty.init(nr, false);
    full.init(nr, true);

    bool changed = true;
    while (changed) {
        changed = false;
        for (uint32_t b = 0; b < nb; b++) {
            const auto &preds = cfg.blocks()[b].preds;
            may_in = empty;
            // Entry starts with nothing defined (even when a loop back-edge
            // targets it, the function-start path defines nothing, and
            // intersection only shrinks). Pred-less non-entry blocks are
            // unreachable; top keeps them silent.
            must_in = (b == 0) ? empty : full;
            for (const uint32_t p : preds) {
                may_in.unionWith(may_out[p]);
                must_in.intersectWith(must_out[p]);
            }
            BitSet may_new = may_in;
            may_new.unionWith(may_gen[b]);
            BitSet must_new = must_in;
            must_new.unionWith(must_gen[b]);
            changed |= may_out[b].unionWith(may_new);
            changed |= must_out[b].intersectWith(must_new);
        }
    }

    // Walk each block with running sets; report each register once.
    std::vector<bool> reported(nr, false);
    for (uint32_t b = 0; b < nb; b++) {
        const auto &preds = cfg.blocks()[b].preds;
        may_in = empty;
        must_in = (b == 0) ? empty : full;
        for (const uint32_t p : preds) {
            may_in.unionWith(may_out[p]);
            must_in.intersectWith(must_out[p]);
        }
        for (uint32_t pc = cfg.blocks()[b].first; pc <= cfg.blocks()[b].last;
             pc++) {
            const InstrTiming &t = timingTable(k)[pc];
            for (const uint32_t r : t.readSet()) {
                if (r >= nr || reported[r])
                    continue;
                if (!may_in.test(int(r))) {
                    reported[r] = true;
                    out.push_back(makeDiag(
                        Severity::Error, Check::UninitRead, k, pc,
                        "register '" + k.reg_names[r] +
                            "' is read but never written on any path to "
                            "this point"));
                } else if (!must_in.test(int(r))) {
                    reported[r] = true;
                    out.push_back(makeDiag(
                        Severity::Warning, Check::UninitRead, k, pc,
                        "register '" + k.reg_names[r] +
                            "' may be read uninitialized: no unconditional "
                            "definition reaches this point on every path"));
                }
            }
            for (const uint32_t r : t.writeSet()) {
                if (r >= nr)
                    continue;
                may_in.set(int(r));
                if (k.instrs[pc].pred < 0)
                    must_in.set(int(r));
            }
        }
    }
}

} // namespace mlgs::ptx::verifier::detail
