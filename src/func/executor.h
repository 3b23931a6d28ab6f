/**
 * @file
 * Functional execution of PTX warp instructions. One Executor instance is
 * shared by the pure-functional engine and by the timing model, which runs
 * warps ahead of issue through the batch executor or, where an observable
 * property needs it, calls stepWarp at issue time (GPGPU-Sim style).
 *
 * The Executor owns nothing that executes: it holds global memory, the bug
 * model and the attached observers (coverage, warp streams, race check, site
 * profiler), and dispatches each step to the compiled micro-op executor
 * (src/func/compiled/, threaded dispatch over the lowered uop stream from
 * ptx/uop.h). The warp-stream caches are only held here: the timing model
 * captures into and replays from them.
 */
#ifndef MLGS_FUNC_EXECUTOR_H
#define MLGS_FUNC_EXECUTOR_H

#include "func/bug_model.h"
#include "func/coverage.h"
#include "func/cta_exec.h"
#include "func/launch_env.h"
#include "func/texture.h"
#include "func/warp_step.h"
#include "func/warp_stream.h"
#include "mem/gpu_memory.h"
#include "ptx/ir.h"

namespace mlgs::func
{

class SiteProfiler;

/** Executes warp instructions against a CtaExec and global memory. */
class Executor
{
  public:
    explicit Executor(GpuMemory &mem, BugModel bugs = BugModel{})
        : mem_(&mem), bugs_(bugs)
    {
    }

    /** Optional coverage collection (differential coverage debugging). */
    void setCoverage(CoverageMap *cov) { coverage_ = cov; }
    CoverageMap *coverage() const { return coverage_; }

    /**
     * Capture every warp instruction the timing model issues into `cache`
     * (trace-driven timing replay capture). Pass nullptr to detach.
     */
    void setWarpStreamRecord(WarpStreamCache *cache) { record_streams_ = cache; }
    WarpStreamCache *warpStreamRecord() const { return record_streams_; }

    /**
     * Drive the timing model from previously captured streams instead of
     * executing: issue consumes the recorded records and performs no
     * register or memory work, so device memory is not updated. Pass
     * nullptr to detach. Mutually exclusive with record.
     */
    void
    setWarpStreamReplay(const WarpStreamCache *cache)
    {
        replay_streams_ = cache;
    }
    const WarpStreamCache *warpStreamReplay() const { return replay_streams_; }

    const BugModel &bugs() const { return bugs_; }
    GpuMemory &memory() { return *mem_; }

    /**
     * Record shared-memory ld/st into each CTA's RaceShadow (allocated by
     * the functional engine when this is on). Purely observational.
     */
    void setRaceCheck(bool on) { check_races_ = on; }
    bool raceCheck() const { return check_races_; }

    /**
     * Attach a per-pc memory-site profiler (perf-lint agreement loop). It
     * forces both engines onto their serial, per-step paths. Pass nullptr to
     * detach. Purely observational: simulation results are bitwise
     * identical either way.
     */
    void setSiteProfiler(SiteProfiler *prof) { profiler_ = prof; }
    SiteProfiler *siteProfiler() const { return profiler_; }

    /**
     * Execute the next instruction of a warp into `res` (every field reset,
     * the capacity of `res.accesses` kept). The warp must not be done and
     * must not be waiting at a barrier.
     */
    void stepWarp(CtaExec &cta, unsigned warp, const LaunchEnv &env,
                  WarpStepResult &res);

  private:
    GpuMemory *mem_;
    BugModel bugs_;
    bool check_races_ = false;
    CoverageMap *coverage_ = nullptr;
    WarpStreamCache *record_streams_ = nullptr;
    const WarpStreamCache *replay_streams_ = nullptr;
    SiteProfiler *profiler_ = nullptr;
};

} // namespace mlgs::func

#endif // MLGS_FUNC_EXECUTOR_H
