#include "func/executor.h"

#include "func/compiled/exec.h"
#include "func/site_profiler.h"

namespace mlgs::func
{

void
Executor::stepWarp(CtaExec &cta, unsigned warp, const LaunchEnv &env,
                   WarpStepResult &res)
{
    if (profiler_)
        profiler_->beginStep();
    compiled::stepWarp(*this, cta, warp, env, res);
    if (profiler_)
        profiler_->finishStep(env.kernel->name, cta.blockDim(), res);
}

} // namespace mlgs::func
