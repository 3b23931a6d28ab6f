/**
 * @file
 * Checkpoint/resume (Section III-F, Figs 4-5). A checkpoint is taken during
 * Functional-mode execution at a user-chosen position — kernel x, with CTAs
 * 0..M-1 executed fully and CTAs M..M+t executed for y instructions per warp
 * — and saves:
 *   Data1: register file + local memory per thread, SIMT stack per warp,
 *          shared memory + barrier state per CTA (the suspended CTAs);
 *   Data2: the GPU global-memory image.
 * Resume restores Data2, skips kernels < x, re-adopts the suspended CTAs of
 * kernel x (skipping CTAs < M), and continues — typically in Performance
 * mode, which is the whole point: pay the 7-8x slowdown only for the region
 * of interest.
 */
#ifndef MLGS_CHKPT_CHECKPOINT_H
#define MLGS_CHKPT_CHECKPOINT_H

#include <string>

#include "runtime/context.h"

namespace mlgs::chkpt
{

/** User-visible checkpoint-position parameters (paper's x, M, t, y). */
struct CheckpointConfig
{
    uint64_t kernel_x = 0; ///< launch id to checkpoint inside
    uint64_t cta_m = 0;    ///< first partially-executed CTA
    uint64_t cta_t = 0;    ///< number of additional partial CTAs (M..M+t)
    uint64_t instr_y = 0;  ///< per-warp instruction budget for partial CTAs
    std::string path = "checkpoint.mlgs";
};

/** Serialize one CTA's Data1 state. */
void saveCta(BinaryWriter &w, const func::CtaExec &cta);

/**
 * Restore one CTA's Data1 state (kernel must match the saved layout). The
 * record is untrusted: a CTA id outside `grid`, a SIMT entry whose pc or
 * reconvergence pc is out of range or whose mask is empty or names dead
 * lanes, a barrier flag other than 0/1, or mis-sized local or shared memory
 * is a FatalError naming the reader (the checkpoint path).
 */
std::unique_ptr<func::CtaExec> loadCta(BinaryReader &r,
                                       const ptx::KernelDef &kernel,
                                       const Dim3 &grid, const Dim3 &block);

/**
 * Installs a launch hook on the context that executes kernels < x fully in
 * functional mode, fast-forwards kernel x to the checkpoint position, writes
 * the checkpoint file, and skips every kernel from x onwards.
 */
class CheckpointWriter
{
  public:
    CheckpointWriter(cuda::Context &ctx, CheckpointConfig cfg);

    /** True once the checkpoint file has been written. */
    bool reached() const { return reached_; }

  private:
    bool onLaunch(cuda::LaunchRecord &rec, const func::LaunchEnv &env);

    cuda::Context *ctx_;
    CheckpointConfig cfg_;
    bool reached_ = false;
};

/**
 * Installs a launch hook that skips kernels < x (their memory effects come
 * from the restored image), resumes kernel x from the saved CTA states in
 * the context's current mode, and lets later kernels run normally.
 */
class CheckpointLoader
{
  public:
    /** Restores Data2 into the context immediately. */
    CheckpointLoader(cuda::Context &ctx, const std::string &path);

    uint64_t kernelX() const { return kernel_x_; }

  private:
    bool onLaunch(cuda::LaunchRecord &rec, const func::LaunchEnv &env);

    cuda::Context *ctx_;
    std::string path_;
    uint64_t kernel_x_ = 0;
    uint64_t cta_m_ = 0;
    std::string kernel_name_;
    Dim3 grid_, block_;
    std::vector<std::vector<uint8_t>> raw_ctas_; ///< serialized partial CTAs
    std::vector<uint8_t> mem_image_;             ///< Data2 for resume-time restore
};

} // namespace mlgs::chkpt

#endif // MLGS_CHKPT_CHECKPOINT_H
