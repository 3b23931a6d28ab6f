#include "func/cta_exec.h"

namespace mlgs::func
{

CtaExec::CtaExec(const ptx::KernelDef &kernel, const Dim3 &grid_dim,
                 const Dim3 &block_dim, const Dim3 &cta_id)
{
    reset(kernel, grid_dim, block_dim, cta_id);
}

void
CtaExec::reset(const ptx::KernelDef &kernel, const Dim3 &grid_dim,
               const Dim3 &block_dim, const Dim3 &cta_id)
{
    kernel_ = &kernel;
    grid_dim_ = grid_dim;
    block_dim_ = block_dim;
    cta_id_ = cta_id;
    num_threads_ = unsigned(block_dim.count());
    num_warps_ = (num_threads_ + kWarpSize - 1) / kWarpSize;
    MLGS_REQUIRE(num_threads_ > 0 && num_threads_ <= 1024,
                 "CTA size out of range: ", num_threads_);

    regs_.assign(size_t(num_threads_) * regsPerThread(), ptx::RegVal());
    local_.assign(size_t(num_threads_) * kernel.local_bytes, 0);

    stacks_.resize(num_warps_);
    for (unsigned w = 0; w < num_warps_; w++) {
        const unsigned first = w * kWarpSize;
        const unsigned count = std::min(kWarpSize, num_threads_ - first);
        const warp_mask_t mask =
            count == kWarpSize ? kFullWarpMask : ((warp_mask_t(1) << count) - 1);
        stacks_[w].init(mask);
    }

    shared_.assign(kernel.shared_bytes, 0);
    at_barrier_.assign(num_warps_, 0);
    instr_count_.assign(num_warps_, 0);
    race_.reset();
    uops_ = nullptr;
}

} // namespace mlgs::func
