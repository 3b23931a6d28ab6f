#include "debug/instrument.h"

#include "common/log.h"
#include "ptx/uop.h"

namespace mlgs::debug
{

using ptx::Instr;
using ptx::KernelDef;
using ptx::Op;
using ptx::Operand;
using ptx::Space;
using ptx::Type;

namespace
{

Operand
regOp(int id)
{
    Operand o;
    o.kind = Operand::Kind::Reg;
    o.reg = id;
    return o;
}

Operand
immOp(int64_t v)
{
    Operand o;
    o.kind = Operand::Kind::Imm;
    o.imm = v;
    return o;
}

Operand
memOp(int base_reg, int64_t off)
{
    Operand o;
    o.kind = Operand::Kind::Mem;
    o.reg = base_reg;
    o.imm = off;
    return o;
}

Operand
memSymOp(const std::string &sym)
{
    Operand o;
    o.kind = Operand::Kind::Mem;
    o.sym = sym;
    return o;
}

Instr
mk(Op op, Type t, std::vector<Operand> ops, const char *text)
{
    Instr i;
    i.op = op;
    i.type = t;
    i.ops = std::move(ops);
    i.text = text;
    return i;
}

} // namespace

KernelDef
instrumentKernel(const KernelDef &in)
{
    KernelDef out = in;
    out.analyzed = false;
    out.name = in.name + "__instrumented";

    // Extra parameter: the log-buffer base pointer.
    ptx::Param log_param;
    log_param.name = "__log";
    log_param.type = Type::U64;
    log_param.size = 8;
    log_param.offset = (in.param_bytes + 7) / 8 * 8;
    out.params.push_back(log_param);
    out.param_bytes = log_param.offset + 8;

    // Scratch registers for the injected sequence.
    auto addReg = [&](const std::string &name, Type t) {
        const int id = int(out.reg_types.size());
        out.reg_types.push_back(t);
        out.reg_names.push_back(name);
        out.reg_ids.emplace(name, id);
        return id;
    };
    const int r_logp = addReg("%__logp", Type::U64);
    const int r_slot = addReg("%__slot", Type::U64);
    const int r_addr = addReg("%__raddr", Type::U64);
    const int r_tag = addReg("%__tag", Type::U64);

    std::vector<Instr> body;
    std::vector<uint32_t> pc_map(in.instrs.size() + 1, 0);

    // Prologue.
    {
        Instr ld = mk(Op::Ld, Type::U64, {regOp(r_logp), memSymOp("__log")},
                      "ld.param.u64");
        ld.space = Space::Param;
        body.push_back(std::move(ld));
    }

    for (uint32_t pc = 0; pc < in.instrs.size(); pc++) {
        pc_map[pc] = uint32_t(body.size());
        const Instr &ins = in.instrs[pc];
        body.push_back(ins);

        for (const uint32_t dst : ptx::timingTable(in)[pc].writeSet()) {
            if (out.reg_types[dst] == Type::Pred)
                continue;

            // %__slot = atom.add(log, 1)
            Instr a = mk(Op::Atom, Type::U64,
                         {regOp(r_slot), memOp(r_logp, 0), immOp(1)},
                         "atom.global.add.u64");
            a.space = Space::Global;
            a.atom_op = ptx::AtomOp::Add;
            a.pred = ins.pred;      // log only when the original executed
            a.pred_neg = ins.pred_neg;
            body.push_back(std::move(a));

            // %__raddr = log + header + slot*16
            Instr sh = mk(Op::Shl, Type::B64,
                          {regOp(r_addr), regOp(r_slot), immOp(4)}, "shl.b64");
            sh.pred = ins.pred;
            sh.pred_neg = ins.pred_neg;
            body.push_back(std::move(sh));
            Instr ad = mk(Op::Add, Type::U64,
                          {regOp(r_addr), regOp(r_addr), regOp(r_logp)},
                          "add.u64");
            ad.pred = ins.pred;
            ad.pred_neg = ins.pred_neg;
            body.push_back(std::move(ad));

            // tag + value stores.
            Instr mt = mk(Op::Mov, Type::U64,
                          {regOp(r_tag), immOp(int64_t(makeTag(pc, dst)))},
                          "mov.u64");
            mt.pred = ins.pred;
            mt.pred_neg = ins.pred_neg;
            body.push_back(std::move(mt));
            Instr st = mk(Op::St, Type::U64,
                          {memOp(r_addr, kLogHeaderBytes), regOp(r_tag)},
                          "st.global.u64");
            st.space = Space::Global;
            st.pred = ins.pred;
            st.pred_neg = ins.pred_neg;
            body.push_back(std::move(st));

            const bool wide = ptx::typeSize(out.reg_types[dst]) == 8;
            Instr sv = mk(Op::St, wide ? Type::B64 : Type::B32,
                          {memOp(r_addr, kLogHeaderBytes + 8), regOp(dst)},
                          wide ? "st.global.b64" : "st.global.b32");
            sv.space = Space::Global;
            sv.pred = ins.pred;
            sv.pred_neg = ins.pred_neg;
            body.push_back(std::move(sv));
        }
    }
    pc_map[in.instrs.size()] = uint32_t(body.size());

    // Remap branch targets and labels; reconvergence is recomputed.
    for (auto &ins : body) {
        if (ins.op == Op::Bra)
            ins.target_pc = pc_map[ins.target_pc];
    }
    for (auto &[name, pc] : out.labels)
        pc = pc_map[pc];

    out.instrs = std::move(body);
    ptx::analyzeKernel(out);
    return out;
}

} // namespace mlgs::debug
