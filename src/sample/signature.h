/**
 * @file
 * Per-launch clustering signature: kernel identity, launch geometry, and the
 * kernel's static micro-op mix / divergence / footprint stats (from
 * analyzeKernel's lowered UopProgram). Two launches with equal signatures are
 * expected to cost nearly the same cycles per warp instruction, so one
 * cycle-simulated representative can time-stand-in for the rest. The CTA
 * count enters the key as a log2 bucket — launches of the same kernel whose
 * grids differ by less than 2x share a cluster and are scaled by their exact
 * work ratio; larger geometry changes hash apart.
 */
#ifndef MLGS_SAMPLE_SIGNATURE_H
#define MLGS_SAMPLE_SIGNATURE_H

#include <string>

#include "common/types.h"
#include "ptx/uop.h"

namespace mlgs::sample
{

/** Signature fields (kept for reporting; `key` is the cluster identity). */
struct Signature
{
    std::string kernel_name;
    Dim3 block;
    unsigned ctas_bucket = 0; ///< floor(log2(CTA count))
    uint32_t shared_bytes = 0;
    uint32_t local_bytes = 0;
    uint32_t param_bytes = 0;
    ptx::UopMix mix;          ///< static per-class counts + divergence

    /** Deterministic cluster key over every field. */
    std::string key() const;
};

/** Build the signature of one launch (requires an analyzed kernel). */
Signature computeSignature(const ptx::KernelDef &kernel, const Dim3 &grid,
                           const Dim3 &block);

} // namespace mlgs::sample

#endif // MLGS_SAMPLE_SIGNATURE_H
