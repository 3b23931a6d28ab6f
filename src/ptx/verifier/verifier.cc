/**
 * @file
 * Verifier driver and the type/width consistency check.
 *
 * The type check exploits a property of the executor's register file:
 * RegVal is a 64-bit union and writeTyped touches only the field selected by
 * the instruction's type specifier. A register declared wider than an
 * instruction writing it therefore keeps stale upper bytes (the paper's
 * "rem" bug class), and a register declared narrower than an instruction
 * reading it picks up bytes that were never part of the declared value.
 * Both inconsistencies are visible statically by comparing each register
 * operand's declared type against the type the instruction accesses it at.
 */
#include <algorithm>
#include <sstream>

#include "ptx/verifier/internal.h"
#include "ptx/verifier/verifier.h"

namespace mlgs::ptx::verifier
{

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Note:
        return "note";
      case Severity::Warning:
        return "warning";
      case Severity::Error:
        return "error";
    }
    return "?";
}

const char *
checkName(Check c)
{
    switch (c) {
      case Check::TypeMismatch:
        return "type-mismatch";
      case Check::UninitRead:
        return "uninit-read";
      case Check::DivergentBarrier:
        return "divergent-barrier";
      case Check::SharedRace:
        return "shared-race";
      case Check::PerfCoalescing:
        return "perf-coalescing";
      case Check::PerfBankConflict:
        return "perf-bank-conflict";
      case Check::PerfOccupancy:
        return "perf-occupancy";
      case Check::PerfDivergence:
        return "perf-divergence";
    }
    return "?";
}

std::string
formatDiagnostic(const std::string &source_name, const Diagnostic &d)
{
    std::ostringstream os;
    os << (source_name.empty() ? "<ptx>" : source_name);
    if (d.line > 0) {
        os << ":" << d.line;
        if (d.col > 0)
            os << ":" << d.col;
    }
    os << ": " << severityName(d.severity) << ": [" << checkName(d.check)
       << "] " << d.message << " (kernel '" << d.kernel << "', pc " << d.pc
       << ")";
    return os.str();
}

Severity
maxSeverity(const std::vector<Diagnostic> &diags)
{
    Severity m = Severity::Note;
    for (const auto &d : diags)
        if (d.severity > m)
            m = d.severity;
    return m;
}

namespace detail
{

Diagnostic
makeDiag(Severity sev, Check check, const KernelDef &kernel, uint32_t pc,
         std::string message)
{
    Diagnostic d;
    d.severity = sev;
    d.check = check;
    d.kernel = kernel.name;
    d.pc = pc;
    if (pc < kernel.instrs.size()) {
        d.line = kernel.instrs[pc].line;
        d.col = kernel.instrs[pc].col;
    }
    d.message = std::move(message);
    return d;
}

namespace
{

bool
isBits(Type t)
{
    return t == Type::B8 || t == Type::B16 || t == Type::B32 || t == Type::B64;
}

/** Widened result type of mul.wide / mad.wide. */
Type
widened(Type t)
{
    switch (t) {
      case Type::U16:
        return Type::U32;
      case Type::S16:
        return Type::S32;
      case Type::U32:
        return Type::U64;
      case Type::S32:
        return Type::S64;
      default:
        return t;
    }
}

/** Is the operand's sign class meaningful to this instruction? */
bool
signSensitive(const Instr &ins)
{
    switch (ins.op) {
      case Op::Div:
      case Op::Rem:
      case Op::Shr:
      case Op::Max:
      case Op::Min:
      case Op::Abs:
      case Op::Neg:
      case Op::Bfe:
        return true;
      case Op::Mul:
      case Op::Mad:
        return ins.mul_mode == MulMode::Hi || ins.mul_mode == MulMode::Wide;
      case Op::Setp:
        return ins.cmp == CmpOp::Lt || ins.cmp == CmpOp::Le ||
               ins.cmp == CmpOp::Gt || ins.cmp == CmpOp::Ge;
      default:
        return false;
    }
}

/**
 * Type at which instruction `ins` accesses operand index `i`, or Type::None
 * when the operand position is not a typed register slot.
 */
Type
expectedType(const Instr &ins, size_t i)
{
    switch (ins.op) {
      case Op::Setp:
        return i == 0 ? Type::Pred : ins.type;
      case Op::Selp:
        return i == 3 ? Type::Pred : ins.type;
      case Op::Cvt:
        return i == 0 ? ins.type : ins.stype;
      case Op::Popc:
      case Op::Clz:
        // Result is a bit count, always 32-bit regardless of ins.type.
        return i == 0 ? Type::U32 : ins.type;
      case Op::Shl:
      case Op::Shr:
        // Shift amount is u32.
        return i == 2 ? Type::U32 : ins.type;
      case Op::Bfe:
        // bfe d, a, pos, len: pos/len are u32.
        return i >= 2 ? Type::U32 : ins.type;
      case Op::Bfi:
        // bfi f, a, b, pos, len.
        return i >= 3 ? Type::U32 : ins.type;
      case Op::Mul:
      case Op::Mad:
        if (ins.mul_mode == MulMode::Wide &&
            (i == 0 || (ins.op == Op::Mad && i == 3)))
            return widened(ins.type);
        return ins.type;
      default:
        return ins.type;
    }
}

void
checkRegUse(const KernelDef &k, const Instr &ins, uint32_t pc, int reg,
            Type expected, bool is_dst, std::vector<Diagnostic> &out)
{
    if (reg < 0 || size_t(reg) >= k.reg_types.size())
        return;
    const Type decl = k.reg_types[size_t(reg)];
    if (decl == expected)
        return;

    const std::string &rn = k.reg_names[size_t(reg)];
    auto text = [&](const char *what) {
        std::ostringstream os;
        os << "register '" << rn << "' declared " << typeName(decl) << " but "
           << (is_dst ? "written" : "read") << " as " << typeName(expected)
           << " by '" << ins.text << "': " << what;
        return os.str();
    };

    if ((decl == Type::Pred) != (expected == Type::Pred)) {
        out.push_back(makeDiag(Severity::Error, Check::TypeMismatch, k, pc,
                               text("predicate/data register confusion")));
        return;
    }
    const unsigned dw = typeSize(decl);
    const unsigned ew = typeSize(expected);
    if (dw < ew) {
        out.push_back(makeDiag(
            Severity::Error, Check::TypeMismatch, k, pc,
            text(is_dst ? "the write spills past the declared width"
                        : "the read picks up bytes beyond the declared "
                          "value (stale union contents)")));
        return;
    }
    if (dw > ew) {
        out.push_back(makeDiag(
            Severity::Warning, Check::TypeMismatch, k, pc,
            text(is_dst
                     ? "only the low bytes are written; the upper bytes keep "
                       "their previous (stale) value"
                     : "only the low bytes are read; a prior full-width "
                       "value is silently truncated")));
        return;
    }
    // Same width. Bit-typed registers or operand slots accept any class.
    if (isBits(decl) || isBits(expected))
        return;
    if (isFloat(decl) != isFloat(expected)) {
        out.push_back(makeDiag(
            Severity::Warning, Check::TypeMismatch, k, pc,
            text("float/integer bit reinterpretation without cvt")));
        return;
    }
    if (isSigned(decl) != isSigned(expected) && signSensitive(ins))
        out.push_back(makeDiag(
            Severity::Warning, Check::TypeMismatch, k, pc,
            text("signedness differs on a sign-sensitive operation")));
}

} // namespace

void
checkTypes(const KernelDef &k, std::vector<Diagnostic> &out)
{
    for (uint32_t pc = 0; pc < k.instrs.size(); pc++) {
        const Instr &ins = k.instrs[pc];

        if (ins.pred >= 0 && size_t(ins.pred) < k.reg_types.size() &&
            k.reg_types[size_t(ins.pred)] != Type::Pred)
            out.push_back(makeDiag(
                Severity::Error, Check::TypeMismatch, k, pc,
                "guard register '" + k.reg_names[size_t(ins.pred)] +
                    "' is not declared .pred"));

        // Address base registers must hold full 64-bit device addresses.
        if (ins.op == Op::Ld || ins.op == Op::St || ins.op == Op::Atom ||
            ins.op == Op::Red) {
            for (const Operand &op : ins.ops) {
                if (op.kind != Operand::Kind::Mem || op.reg < 0)
                    continue;
                if (size_t(op.reg) < k.reg_types.size() &&
                    typeSize(k.reg_types[size_t(op.reg)]) < 8)
                    out.push_back(makeDiag(
                        Severity::Warning, Check::TypeMismatch, k, pc,
                        "address register '" +
                            k.reg_names[size_t(op.reg)] + "' declared " +
                            typeName(k.reg_types[size_t(op.reg)]) +
                            " is narrower than a 64-bit device address"));
            }
        }

        if (ins.type == Type::None || ins.op == Op::Tex)
            continue;

        // Leading operands are destinations (same convention as
        // computeRegLists in analysis.cc).
        size_t first_src = 1;
        if (ins.op == Op::St || ins.op == Op::Bra || ins.op == Op::Bar ||
            ins.op == Op::Red || ins.op == Op::Ret || ins.op == Op::Exit ||
            ins.op == Op::Membar)
            first_src = 0;

        for (size_t i = 0; i < ins.ops.size(); i++) {
            const Operand &op = ins.ops[i];
            const Type want = expectedType(ins, i);
            if (want == Type::None)
                continue;
            const bool is_dst = i < first_src;
            switch (op.kind) {
              case Operand::Kind::Reg:
                checkRegUse(k, ins, pc, op.reg, want, is_dst, out);
                break;
              case Operand::Kind::Vec:
                for (const int r : op.vec)
                    checkRegUse(k, ins, pc, r, want, is_dst, out);
                break;
              default:
                break; // immediates/symbols/mem bases handled elsewhere
            }
        }
    }
}

} // namespace detail

std::vector<Diagnostic>
verifyKernel(const KernelDef &kernel)
{
    MLGS_REQUIRE(kernel.analyzed, "verifyKernel before analyzeKernel on '",
                 kernel.name, "'");
    std::vector<Diagnostic> out;
    detail::checkTypes(kernel, out);
    if (!kernel.instrs.empty()) {
        const Cfg cfg(kernel);
        const detail::Uniformity uni = detail::computeUniformity(kernel);
        detail::checkUninit(kernel, cfg, out);
        detail::checkBarrierDivergence(kernel, cfg, uni, out);
        detail::checkSharedRaces(kernel, cfg, uni, out);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Diagnostic &a, const Diagnostic &b) {
                         return a.pc < b.pc;
                     });
    return out;
}

std::vector<Diagnostic>
verifyModule(const Module &mod)
{
    std::vector<Diagnostic> out;
    for (const KernelDef &k : mod.kernels) {
        auto diags = verifyKernel(k);
        out.insert(out.end(), std::make_move_iterator(diags.begin()),
                   std::make_move_iterator(diags.end()));
    }
    return out;
}

} // namespace mlgs::ptx::verifier
