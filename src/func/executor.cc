#include "func/executor.h"

#include "func/compiled/exec.h"
#include "func/site_profiler.h"

namespace mlgs::func
{

void
Executor::stepWarp(CtaExec &cta, unsigned warp, const LaunchEnv &env,
                   WarpStepResult &res)
{
    if (replay_streams_) {
        replayStep(cta, warp, env, res);
        return;
    }
    if (profiler_)
        profiler_->beginStep();
    compiled::stepWarp(*this, cta, warp, env, res);
    if (profiler_)
        profiler_->finishStep(env.kernel->name, cta.blockDim(), res);
    if (record_streams_)
        record_streams_->append(env.launch_seq, cta, warp, res);
}

void
Executor::replayStep(CtaExec &cta, unsigned warp, const LaunchEnv &env,
                     WarpStepResult &res)
{
    const WarpStream &ws = replay_streams_->stream(env.launch_seq, cta, warp);
    const uint64_t idx = cta.warpInstrCount(warp);
    MLGS_REQUIRE(idx < ws.steps.size(),
                 "warp stream replay: stream exhausted at step ", idx,
                 " in ", env.kernel->name,
                 " (recorded run executed fewer instructions?)");
    const WarpStreamStep &s = ws.steps[idx];
    SimtStack &st = cta.stack(warp);
    MLGS_ASSERT(st.pc() == s.pc, "warp stream replay diverged: at pc ",
                st.pc(), ", recorded pc ", s.pc, " in ", env.kernel->name);

    res.reset(&env.kernel->instrs[s.pc], s.pc, s.active);
    res.shared_accesses = s.shared_accesses;
    res.barrier = s.barrier;
    res.exited = s.exited;
    res.accesses.assign(ws.accesses.begin() + s.first_access,
                        ws.accesses.begin() + s.first_access + s.num_accesses);

    cta.warpInstrCount(warp)++;
    auto &entries = st.entries();
    if (s.exited) {
        entries.clear();
    } else {
        // The scheduler inspects the warp's next pc before issue (scoreboard
        // checks); collapse the stack to one entry holding the recorded
        // successor pc — divergence was already resolved at record time.
        MLGS_REQUIRE(idx + 1 < ws.steps.size(),
                     "warp stream replay: truncated stream in ",
                     env.kernel->name);
        entries.assign(
            1, SimtStack::Entry{ws.steps[idx + 1].pc, ptx::kReconvExit,
                                s.active ? s.active : warp_mask_t(1)});
        if (s.barrier)
            cta.setWarpAtBarrier(warp);
    }
}

} // namespace mlgs::func
