#include "debug/debugger.h"

#include <algorithm>
#include <iterator>

#include "func/engine.h"
#include "ptx/parser.h"

namespace mlgs::debug
{

namespace
{

/** Thrown from the launch hook to end a replay once its search is done. */
struct StopReplay
{
};

/**
 * Run one launch under `bugs` on scratch memory `mem`, seeded with every
 * live allocation of the context — the launch's pre-state.
 */
void
runFromPreState(GpuMemory &mem, cuda::Context &ctx, const func::BugModel &bugs,
                const func::LaunchEnv &env, const cuda::LaunchRecord &rec)
{
    std::vector<uint8_t> bytes;
    for (const auto &[addr, size] : ctx.allocator().liveAllocations()) {
        bytes.resize(size);
        ctx.memory().read(addr, bytes.data(), size);
        mem.write(addr, bytes.data(), size);
    }
    func::Executor exec(mem, bugs);
    func::FunctionalEngine engine(exec);
    engine.launch(env, rec.grid, rec.block);
}

} // namespace

Replayer::Replayer(trace::TraceFile trace, func::BugModel golden,
                   func::BugModel suspect)
    : trace_(std::move(trace)), golden_(golden), suspect_(suspect)
{
}

std::vector<ptx::verifier::Diagnostic>
Replayer::lintModules() const
{
    const trace::TraceFile &t = trace_.trace();
    std::vector<ptx::verifier::Diagnostic> all;
    for (const auto &m : t.modules) {
        if (m.source_blob == trace::kNoBlob)
            continue; // no launch ran from it
        const auto &src = t.blobs.blob(m.source_blob);
        auto diags = ptx::verifier::verifyModule(ptx::parseModule(
            std::string(src.begin(), src.end()), t.strings.str(m.name_sid)));
        all.insert(all.end(), std::make_move_iterator(diags.begin()),
                   std::make_move_iterator(diags.end()));
    }
    return all;
}

void
Replayer::replayLaunches(const LaunchVisit &visit) const
{
    // The context keeps the recorded bug model, so the replay's own D2H
    // verification still holds; the two bug models under test run only on
    // scratch memories.
    cuda::ContextOptions opts = trace_.options();
    opts.mode = cuda::SimMode::Functional;
    cuda::Context ctx(opts);
    ctx.setLaunchHook(
        [&](cuda::LaunchRecord &rec, const func::LaunchEnv &env) {
            if (visit(rec, env, ctx))
                throw StopReplay{};
            return false;
        });
    try {
        trace_.replay(ctx);
    } catch (const StopReplay &) {
    }
}

KernelSearchResult
Replayer::findFirstBadKernel() const
{
    KernelSearchResult res;
    replayLaunches([&](const cuda::LaunchRecord &rec,
                       const func::LaunchEnv &env, cuda::Context &ctx) {
        GpuMemory gold_mem, susp_mem;
        runFromPreState(gold_mem, ctx, golden_, env, rec);
        runFromPreState(susp_mem, ctx, suspect_, env, rec);

        // Compare every live allocation (outputs included).
        std::vector<uint8_t> a, b;
        for (const auto &[addr, size] : ctx.allocator().liveAllocations()) {
            a.resize(size);
            b.resize(size);
            gold_mem.read(addr, a.data(), size);
            susp_mem.read(addr, b.data(), size);
            const auto diff = std::mismatch(a.begin(), a.end(), b.begin());
            if (diff.first != a.end()) {
                res.diverged = true;
                res.launch_index = rec.launch_id;
                res.kernel_name = rec.kernel_name;
                res.buffer_addr = addr;
                res.byte_offset = size_t(diff.first - a.begin());
                return true;
            }
        }
        return false;
    });
    return res;
}

InstrSearchResult
Replayer::localizeInstruction(size_t launch_index) const
{
    InstrSearchResult res;
    bool found = false;
    replayLaunches([&](const cuda::LaunchRecord &rec,
                       const func::LaunchEnv &env, cuda::Context &ctx) {
        if (rec.launch_id != launch_index)
            return false;
        found = true;
        const ptx::KernelDef &orig = *rec.kernel;
        const ptx::KernelDef instrumented = instrumentKernel(orig);

        // Place the log above every live allocation.
        addr_t log_base = kGlobalBase + (64u << 20);
        const auto &live = ctx.allocator().liveAllocations();
        if (!live.empty()) {
            const auto &[addr, size] = *live.rbegin();
            log_base = std::max(log_base, (addr + size + 4095) & ~addr_t(4095));
        }

        // Parameter block: original bytes padded to the __log slot + pointer.
        func::LaunchEnv ienv = env;
        ienv.kernel = &instrumented;
        ienv.params.resize(instrumented.params.back().offset, 0);
        const uint64_t lb = log_base;
        const auto *p = reinterpret_cast<const uint8_t *>(&lb);
        ienv.params.insert(ienv.params.end(), p, p + 8);

        GpuMemory gold_mem, susp_mem;
        runFromPreState(gold_mem, ctx, golden_, ienv, rec);
        runFromPreState(susp_mem, ctx, suspect_, ienv, rec);

        const uint64_t n_gold = gold_mem.load<uint64_t>(log_base);
        const uint64_t n_susp = susp_mem.load<uint64_t>(log_base);
        const uint64_t n = std::min(n_gold, n_susp);
        for (uint64_t i = 0; i < n; i++) {
            const addr_t at = log_base + kLogHeaderBytes + i * kLogRecordBytes;
            const uint64_t tag_g = gold_mem.load<uint64_t>(at);
            const uint64_t tag_s = susp_mem.load<uint64_t>(at);
            const uint64_t val_g = gold_mem.load<uint64_t>(at + 8);
            const uint64_t val_s = susp_mem.load<uint64_t>(at + 8);
            if (tag_g == tag_s && val_g == val_s)
                continue;
            res.diverged = true;
            res.control_diverged = tag_g != tag_s;
            res.record_index = i;
            res.pc = tagPc(tag_g);
            res.reg = tagReg(tag_g);
            res.reg_name = orig.reg_names[size_t(res.reg)];
            res.instr_text = ptx::formatInstr(orig, orig.instrs[res.pc]);
            res.golden_value = val_g;
            res.suspect_value = val_s;
            return true;
        }
        if (n_gold != n_susp) {
            res.diverged = true;
            res.control_diverged = true;
            res.record_index = n;
        }
        return true;
    });
    MLGS_REQUIRE(found, "replayer: the trace has no launch ", launch_index);
    return res;
}

} // namespace mlgs::debug
