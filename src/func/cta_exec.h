/**
 * @file
 * Functional state of one in-flight CTA: per-thread registers and local
 * memory, per-warp SIMT stacks and barrier status, and the CTA's shared
 * memory segment. This is exactly the "Data1" set the paper checkpoints.
 *
 * Registers live in one flat file per CTA, thread-major: thread `tid`'s
 * cells are [tid * regsPerThread(), (tid + 1) * regsPerThread()), so a
 * warp's lanes sit at a fixed stride from its first thread. `.local`
 * scratch is one flat buffer laid out the same way with local_bytes per
 * thread. Per-thread views are spans computed on demand, never stored.
 */
#ifndef MLGS_FUNC_CTA_EXEC_H
#define MLGS_FUNC_CTA_EXEC_H

#include <memory>
#include <span>
#include <vector>

#include "common/types.h"
#include "func/race_check.h"
#include "func/simt_stack.h"
#include "ptx/ir.h"

namespace mlgs::ptx
{
struct UopProgram;
}

namespace mlgs::func
{

/** Functional state of one CTA. */
class CtaExec
{
  public:
    CtaExec(const ptx::KernelDef &kernel, const Dim3 &grid_dim,
            const Dim3 &block_dim, const Dim3 &cta_id);

    /**
     * Become a fresh CTA of `kernel`, exactly as if newly constructed, while
     * keeping the capacity of every buffer (the timing core reuses one
     * CtaExec per CTA slot).
     */
    void reset(const ptx::KernelDef &kernel, const Dim3 &grid_dim,
               const Dim3 &block_dim, const Dim3 &cta_id);

    const ptx::KernelDef &kernel() const { return *kernel_; }
    const Dim3 &gridDim() const { return grid_dim_; }
    const Dim3 &blockDim() const { return block_dim_; }
    const Dim3 &ctaId() const { return cta_id_; }

    unsigned numThreads() const { return num_threads_; }
    unsigned numWarps() const { return num_warps_; }

    /** Register cells per thread (the kernel's reg_types.size()). */
    size_t regsPerThread() const { return kernel_->reg_types.size(); }

    /** Thread `tid`'s registers (empty for a kernel without any). */
    std::span<ptx::RegVal>
    regs(unsigned tid)
    {
        return slice(regs_, tid, regsPerThread());
    }
    std::span<const ptx::RegVal>
    regs(unsigned tid) const
    {
        return slice(regs_, tid, regsPerThread());
    }

    /** Thread `tid`'s .local scratch (empty without .local variables). */
    std::span<uint8_t>
    local(unsigned tid)
    {
        return slice(local_, tid, kernel_->local_bytes);
    }
    std::span<const uint8_t>
    local(unsigned tid) const
    {
        return slice(local_, tid, kernel_->local_bytes);
    }

    SimtStack &stack(unsigned warp) { return stacks_[warp]; }
    const SimtStack &stack(unsigned warp) const { return stacks_[warp]; }

    std::vector<uint8_t> &shared() { return shared_; }
    const std::vector<uint8_t> &shared() const { return shared_; }

    /** 3D thread index of a linear thread id. */
    Dim3 threadIdx3(unsigned tid) const { return unflatten(tid, block_dim_); }

    bool warpDone(unsigned warp) const { return stacks_[warp].empty(); }

    bool
    allDone() const
    {
        for (unsigned w = 0; w < num_warps_; w++)
            if (!warpDone(w))
                return false;
        return true;
    }

    // ---- barrier bookkeeping ----

    bool warpAtBarrier(unsigned warp) const { return at_barrier_[warp]; }
    void setWarpAtBarrier(unsigned warp) { at_barrier_[warp] = true; }

    /** True when every unfinished warp has arrived at the barrier. */
    bool
    barrierComplete() const
    {
        bool any = false;
        for (unsigned w = 0; w < num_warps_; w++) {
            if (warpDone(w))
                continue;
            if (!at_barrier_[w])
                return false;
            any = true;
        }
        return any;
    }

    void
    releaseBarrier()
    {
        for (unsigned w = 0; w < num_warps_; w++)
            at_barrier_[w] = false;
        if (race_)
            race_->advancePhase();
    }

    // ---- dynamic race checking (functional mode, ContextOptions) ----

    /** Allocate the per-byte shared-memory shadow (idempotent). */
    void
    enableRaceCheck()
    {
        if (!race_ && !shared_.empty())
            race_ = std::make_unique<RaceShadow>(shared_.size());
    }

    /** Shadow state, or nullptr when race checking is off. */
    RaceShadow *raceShadow() { return race_.get(); }
    const RaceShadow *raceShadow() const { return race_.get(); }

    /** Per-warp dynamic instruction counters (checkpointing, stats). */
    uint64_t &warpInstrCount(unsigned warp) { return instr_count_[warp]; }
    uint64_t warpInstrCount(unsigned warp) const { return instr_count_[warp]; }

    uint64_t
    totalInstrCount() const
    {
        uint64_t sum = 0;
        for (const auto c : instr_count_)
            sum += c;
        return sum;
    }

    /** Direct access to barrier flags for checkpoint restore. */
    std::vector<uint8_t> &barrierFlags() { return at_barrier_; }
    std::vector<uint64_t> &instrCounts() { return instr_count_; }

    // ---- compiled-backend program cache ----

    /**
     * Lowered micro-op program resolved for this CTA (compiled backend
     * only). A CTA is stepped by a single thread, so caching the pointer
     * here avoids the kernel cache's mutex on every warp step. The program
     * lives in the kernel's UopCache and outlives the CTA.
     */
    const ptx::UopProgram *uopProgram() const { return uops_; }
    void setUopProgram(const ptx::UopProgram *p) { uops_ = p; }

  private:
    /** Thread `tid`'s `per` cells of a flat thread-major buffer. */
    template <typename Vec>
    static auto
    slice(Vec &v, unsigned tid, size_t per) -> decltype(std::span(v))
    {
        using Span = decltype(std::span(v));
        // An empty buffer has no storage to offset into.
        if (v.empty())
            return Span{};
        return Span{v.data() + size_t(tid) * per, per};
    }

    const ptx::KernelDef *kernel_;
    Dim3 grid_dim_;
    Dim3 block_dim_;
    Dim3 cta_id_;
    unsigned num_threads_;
    unsigned num_warps_;

    std::vector<ptx::RegVal> regs_; ///< threads x regsPerThread()
    std::vector<uint8_t> local_;    ///< threads x kernel local_bytes
    std::vector<SimtStack> stacks_;
    std::vector<uint8_t> shared_;
    std::vector<uint8_t> at_barrier_;
    std::vector<uint64_t> instr_count_;
    std::unique_ptr<RaceShadow> race_;
    const ptx::UopProgram *uops_ = nullptr;
};

} // namespace mlgs::func

#endif // MLGS_FUNC_CTA_EXEC_H
