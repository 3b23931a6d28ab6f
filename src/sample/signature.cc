#include "sample/signature.h"

#include <sstream>

namespace mlgs::sample
{

std::string
Signature::key() const
{
    std::ostringstream os;
    os << kernel_name << '|' << block.x << ',' << block.y << ',' << block.z
       << '|' << ctas_bucket << '|' << shared_bytes << ',' << local_bytes
       << ',' << param_bytes << '|' << mix.uops << ',' << mix.alu << ','
       << mix.sfu << ',' << mix.mem << ',' << mix.shared << ','
       << mix.branches << ',' << mix.divergent << ',' << mix.barriers << ','
       << mix.atomics << ',' << mix.flops;
    return os.str();
}

Signature
computeSignature(const ptx::KernelDef &kernel, const Dim3 &grid,
                 const Dim3 &block)
{
    Signature sig;
    sig.kernel_name = kernel.name;
    sig.block = block;
    unsigned bucket = 0;
    for (uint64_t n = grid.count(); n > 1; n >>= 1)
        bucket++;
    sig.ctas_bucket = bucket;
    sig.shared_bytes = uint32_t(kernel.shared_bytes);
    sig.local_bytes = uint32_t(kernel.local_bytes);
    sig.param_bytes = uint32_t(kernel.param_bytes);
    sig.mix = ptx::uopMix(kernel);
    return sig;
}

} // namespace mlgs::sample
