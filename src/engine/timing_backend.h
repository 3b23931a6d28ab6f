/**
 * @file
 * Performance-mode execution backend: a thin adapter that drives
 * timing::GpuModel's event-driven interface. Residency is bounded by
 * GpuConfig::max_resident_kernels, so two streams' kernels genuinely overlap
 * in the cycle model — CTAs from different grids occupy disjoint core slots
 * — rather than serializing.
 */
#ifndef MLGS_ENGINE_TIMING_BACKEND_H
#define MLGS_ENGINE_TIMING_BACKEND_H

#include "engine/exec_backend.h"
#include "timing/gpu.h"

namespace mlgs::engine
{

class TimingBackend : public ExecBackend
{
  public:
    explicit TimingBackend(timing::GpuModel &gpu) : gpu_(&gpu) {}

    bool canAccept() const override
    {
        return gpu_->residentKernels() <
               std::max(1u, gpu_->config().max_resident_kernels);
    }

    uint64_t begin(LaunchRecord &rec, const func::LaunchEnv &env,
                   cycle_t start) override
    {
        (void)rec;
        return gpu_->beginKernel(env, rec.grid, rec.block, start);
    }

    bool busy() const override { return gpu_->residentKernels() > 0; }

    std::optional<BackendCompletion> advanceUntil(cycle_t limit) override
    {
        if (const auto c = gpu_->advanceUntil(limit))
            return BackendCompletion{c->token, c->at};
        return std::nullopt;
    }

    void finish(uint64_t token, LaunchRecord &rec) override
    {
        rec.perf = gpu_->collectKernel(token);
        rec.cycles = rec.perf.cycles;
        rec.timing_source = TimingSource::Detailed;
    }

  private:
    timing::GpuModel *gpu_;
};

} // namespace mlgs::engine

#endif // MLGS_ENGINE_TIMING_BACKEND_H
