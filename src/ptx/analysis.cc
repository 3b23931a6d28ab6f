/**
 * @file
 * Control-flow analysis: computes the reconvergence PC of every potentially
 * divergent branch as the first instruction of the branch block's immediate
 * post-dominator, matching GPGPU-Sim's SIMT-stack reconvergence policy.
 * Block construction and post-dominators live in ptx/cfg.h, shared with the
 * static verifier.
 */
#include <algorithm>
#include <deque>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "ptx/cfg.h"
#include "ptx/ir.h"
#include "ptx/uop.h"

namespace mlgs::ptx
{

namespace
{

/** Process-wide mnemonic intern table (kernel parse/analysis time only). */
struct VariantRegistry
{
    std::mutex mu;
    std::unordered_map<std::string, uint32_t> ids;
    std::deque<std::string> names; ///< deque: references stay valid as it grows

    static VariantRegistry &
    instance()
    {
        static VariantRegistry r;
        return r;
    }
};

} // namespace

uint32_t
internVariant(const std::string &text)
{
    VariantRegistry &r = VariantRegistry::instance();
    std::lock_guard<std::mutex> lk(r.mu);
    const auto it = r.ids.find(text);
    if (it != r.ids.end())
        return it->second;
    const auto id = uint32_t(r.names.size());
    r.names.push_back(text);
    r.ids.emplace(text, id);
    return id;
}

const std::string &
variantName(uint32_t id)
{
    VariantRegistry &r = VariantRegistry::instance();
    std::lock_guard<std::mutex> lk(r.mu);
    MLGS_ASSERT(id < r.names.size(), "variantName: unknown id ", id);
    return r.names[id];
}

uint32_t
variantCount()
{
    VariantRegistry &r = VariantRegistry::instance();
    std::lock_guard<std::mutex> lk(r.mu);
    return uint32_t(r.names.size());
}

bool
usesGlobalAtomics(const KernelDef &kernel)
{
    MLGS_ASSERT(kernel.analyzed,
                "usesGlobalAtomics before analyzeKernel on ", kernel.name);
    return kernel.global_atomics;
}

void
analyzeKernel(KernelDef &kernel)
{
    if (kernel.analyzed)
        return;
    kernel.analyzed = true;

    kernel.global_atomics = false;
    for (auto &ins : kernel.instrs) {
        ins.variant_id = internVariant(ins.text);
        // Generic-space atomics (Space::None) may resolve to shared or
        // global at runtime; count them as global to stay conservative.
        if ((ins.op == Op::Atom || ins.op == Op::Red) &&
            ins.space != Space::Shared)
            kernel.global_atomics = true;
    }

    const Cfg cfg(kernel);
    for (uint32_t bi = 0; bi < cfg.numBlocks(); bi++) {
        const CfgBlock &b = cfg.blocks()[bi];
        Instr &last = kernel.instrs[b.last];
        if (!last.isBranch())
            continue;
        if (last.pred < 0) {
            last.reconv_pc = kReconvExit; // uniform jump: never diverges
            continue;
        }
        const uint32_t ip = cfg.ipdom(bi);
        last.reconv_pc =
            (ip == cfg.exitNode()) ? kReconvExit : cfg.blocks()[ip].first;
    }

    // Lower to the micro-op IR now that reconvergence PCs and variant ids
    // are final — once per module load, not per launch (ptx/uop.h).
    initUopCache(kernel);
}

std::string
formatInstr(const KernelDef &kernel, const Instr &ins)
{
    std::ostringstream os;
    if (ins.pred >= 0)
        os << "@" << (ins.pred_neg ? "!" : "") << kernel.reg_names[size_t(ins.pred)]
           << " ";
    os << ins.text;
    bool first = true;
    for (const auto &op : ins.ops) {
        os << (first ? " " : ", ");
        first = false;
        switch (op.kind) {
          case Operand::Kind::Reg:
            os << kernel.reg_names[size_t(op.reg)];
            break;
          case Operand::Kind::Imm:
            os << op.imm;
            break;
          case Operand::Kind::FImm:
            os << op.fimm;
            break;
          case Operand::Kind::Mem:
            os << "[";
            if (op.reg >= 0)
                os << kernel.reg_names[size_t(op.reg)];
            else
                os << op.sym;
            if (!op.vec.empty()) {
                os << ", {";
                for (size_t i = 0; i < op.vec.size(); i++)
                    os << (i ? "," : "") << kernel.reg_names[size_t(op.vec[i])];
                os << "}";
            } else if (op.imm) {
                os << "+" << op.imm;
            }
            os << "]";
            break;
          case Operand::Kind::Vec:
            os << "{";
            for (size_t i = 0; i < op.vec.size(); i++)
                os << (i ? "," : "") << kernel.reg_names[size_t(op.vec[i])];
            os << "}";
            break;
          case Operand::Kind::Sym:
            os << op.sym;
            break;
          case Operand::Kind::Special:
            os << "%sreg" << int(op.sreg);
            break;
          case Operand::Kind::Label:
            os << op.label;
            break;
          default:
            os << "?";
        }
    }
    os << ";";
    return os.str();
}

} // namespace mlgs::ptx
