/**
 * @file
 * Device heap allocator. Besides allocation it answers "which buffers are
 * live, and which one contains this pointer?" — the capability the paper
 * added to GPGPU-Sim so the debug tool can copy back every buffer a kernel
 * may have written (Section III-D).
 */
#ifndef MLGS_MEM_ALLOCATOR_H
#define MLGS_MEM_ALLOCATOR_H

#include <cstddef>
#include <map>
#include <optional>

#include "common/types.h"
#include "mem/addrspace.h"

namespace mlgs
{

/** Buffer descriptor returned by lookups. */
struct Allocation
{
    addr_t addr = 0;
    size_t size = 0;
};

/** First-fit free-list allocator over the global heap window. */
class DeviceAllocator
{
  public:
    DeviceAllocator();

    /** Allocate size bytes (>=1) aligned to align; fatal() when exhausted. */
    addr_t alloc(size_t size, size_t align = 256);

    /** Release a block previously returned by alloc(); fatal() otherwise. */
    void free(addr_t addr);

    /** Exact-base lookup. */
    std::optional<Allocation> find(addr_t addr) const;

    /** Find the live allocation containing addr (any interior pointer). */
    std::optional<Allocation> containing(addr_t addr) const;

    /** All live allocations (base -> size) in address order; the debug
     *  replayer seeds and compares its scratch memories with them. */
    const std::map<addr_t, size_t> &liveAllocations() const { return live_; }

    size_t bytesInUse() const { return in_use_; }

  private:
    std::map<addr_t, size_t> live_; ///< base -> size
    std::map<addr_t, size_t> free_; ///< base -> size, coalesced
    size_t in_use_ = 0;
};

} // namespace mlgs

#endif // MLGS_MEM_ALLOCATOR_H
