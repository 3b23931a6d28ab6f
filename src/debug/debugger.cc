#include "debug/debugger.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "func/engine.h"
#include "ptx/parser.h"

namespace mlgs::debug
{

Replayer::Replayer(std::vector<ModuleSrc> modules, func::BugModel golden,
                   func::BugModel suspect)
    : golden_(golden), suspect_(suspect)
{
    for (const auto &m : modules)
        modules_.push_back(ptx::parseModule(m.source, m.name));
}

std::vector<ptx::verifier::Diagnostic>
Replayer::lintModules() const
{
    std::vector<ptx::verifier::Diagnostic> all;
    for (const auto &m : modules_) {
        auto diags = ptx::verifier::verifyModule(m);
        all.insert(all.end(), std::make_move_iterator(diags.begin()),
                   std::make_move_iterator(diags.end()));
    }
    return all;
}

const ptx::KernelDef *
Replayer::findKernel(const std::string &name) const
{
    for (const auto &m : modules_)
        if (const auto *k = m.findKernel(name))
            return k;
    fatal("replayer: kernel not found in supplied modules: ", name);
}

void
Replayer::replayOn(GpuMemory &mem, const cuda::CapturedLaunch &launch,
                   const func::BugModel &bugs, const ptx::KernelDef *kernel,
                   const std::vector<uint8_t> &params) const
{
    for (const auto &ins : kernel->instrs)
        MLGS_REQUIRE(ins.op != ptx::Op::Tex,
                     "replayer does not capture texture bindings (kernel ",
                     kernel->name, ")");

    for (const auto &buf : launch.buffers)
        mem.write(buf.addr, buf.data.data(), buf.data.size());

    func::Executor exec(mem, bugs);
    func::FunctionalEngine engine(exec);
    func::LaunchEnv env;
    env.kernel = kernel;
    env.params = params;
    engine.launch(env, launch.record.grid, launch.record.block);
}

KernelSearchResult
Replayer::findFirstBadKernel(const std::vector<cuda::CapturedLaunch> &launches)
{
    KernelSearchResult res;
    for (size_t i = 0; i < launches.size(); i++) {
        const auto &cap = launches[i];
        const auto *k = findKernel(cap.record.kernel_name);

        GpuMemory gold_mem, susp_mem;
        replayOn(gold_mem, cap, golden_, k, cap.record.params);
        replayOn(susp_mem, cap, suspect_, k, cap.record.params);

        // Compare every buffer a parameter pointed at (outputs included).
        for (const auto &buf : cap.buffers) {
            std::vector<uint8_t> a(buf.data.size()), b(buf.data.size());
            gold_mem.read(buf.addr, a.data(), a.size());
            susp_mem.read(buf.addr, b.data(), b.size());
            for (size_t off = 0; off < a.size(); off++) {
                if (a[off] != b[off]) {
                    res.diverged = true;
                    res.launch_index = i;
                    res.kernel_name = cap.record.kernel_name;
                    res.buffer_addr = buf.addr;
                    res.byte_offset = off;
                    return res;
                }
            }
        }
    }
    return res;
}

InstrSearchResult
Replayer::localizeInstruction(const cuda::CapturedLaunch &launch)
{
    const auto *orig = findKernel(launch.record.kernel_name);
    const ptx::KernelDef instrumented = instrumentKernel(*orig);

    // Place the log above every captured buffer.
    addr_t log_base = kGlobalBase + (64u << 20);
    for (const auto &buf : launch.buffers)
        log_base = std::max(log_base, (buf.addr + buf.data.size() + 4095) &
                                          ~addr_t(4095));

    // Parameter block: original bytes padded to the __log slot + pointer.
    std::vector<uint8_t> params = launch.record.params;
    params.resize(instrumented.params.back().offset, 0);
    const uint64_t lb = log_base;
    const auto *p = reinterpret_cast<const uint8_t *>(&lb);
    params.insert(params.end(), p, p + 8);

    GpuMemory gold_mem, susp_mem;
    replayOn(gold_mem, launch, golden_, &instrumented, params);
    replayOn(susp_mem, launch, suspect_, &instrumented, params);

    InstrSearchResult res;
    const uint64_t n_gold = gold_mem.load<uint64_t>(log_base);
    const uint64_t n_susp = susp_mem.load<uint64_t>(log_base);
    const uint64_t n = std::min(n_gold, n_susp);

    for (uint64_t i = 0; i < n; i++) {
        const addr_t rec = log_base + kLogHeaderBytes + i * kLogRecordBytes;
        const uint64_t tag_g = gold_mem.load<uint64_t>(rec);
        const uint64_t tag_s = susp_mem.load<uint64_t>(rec);
        const uint64_t val_g = gold_mem.load<uint64_t>(rec + 8);
        const uint64_t val_s = susp_mem.load<uint64_t>(rec + 8);
        if (tag_g != tag_s) {
            res.diverged = true;
            res.control_diverged = true;
            res.record_index = i;
            res.pc = tagPc(tag_g);
            res.reg = tagReg(tag_g);
            res.reg_name = orig->reg_names[size_t(res.reg)];
            res.instr_text = ptx::formatInstr(*orig, orig->instrs[res.pc]);
            res.golden_value = val_g;
            res.suspect_value = val_s;
            return res;
        }
        if (val_g != val_s) {
            res.diverged = true;
            res.record_index = i;
            res.pc = tagPc(tag_g);
            res.reg = tagReg(tag_g);
            res.reg_name = orig->reg_names[size_t(res.reg)];
            res.instr_text = ptx::formatInstr(*orig, orig->instrs[res.pc]);
            res.golden_value = val_g;
            res.suspect_value = val_s;
            return res;
        }
    }
    if (n_gold != n_susp) {
        res.diverged = true;
        res.control_diverged = true;
        res.record_index = n;
    }
    return res;
}

} // namespace mlgs::debug
