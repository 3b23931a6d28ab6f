/**
 * @file
 * Sparse, page-granular simulated GPU DRAM contents (the functional image of
 * device global/const memory). Timing is modelled elsewhere; this class only
 * stores bytes.
 */
#ifndef MLGS_MEM_GPU_MEMORY_H
#define MLGS_MEM_GPU_MEMORY_H

#include <cstring>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "common/serialize.h"
#include "common/types.h"

namespace mlgs
{

/**
 * The last page one caller touched, so a run of accesses to the same page
 * skips the page-table lock and hash lookup. It only ever names a page that
 * was already materialized: page storage never moves once allocated, so the
 * remembered pointer stays valid until clear() or restore(). A hint must not
 * outlive either (the executor keeps one per warp step or batch run, and
 * both calls run only while no kernel executes). Bytes are shared with every
 * other path, so a write made elsewhere is seen through the hint.
 */
struct PageHint
{
    static constexpr addr_t kNoPage = ~addr_t(0); ///< no page index is this
    addr_t page = kNoPage;    ///< index of the remembered page
    uint8_t *bytes = nullptr; ///< its storage
};

/**
 * Byte-addressable sparse memory image. Untouched pages read as zero.
 *
 * Concurrent read()/write() calls from pool workers are supported: the page
 * table is guarded by a shared mutex, and page storage never moves once
 * materialized, so data accesses happen outside the lock. With a PageHint
 * the lock is taken once per page a caller moves to, not once per access.
 * Byte-range races (two workers touching the same address) are the caller's
 * responsibility — the engines fall back to serial execution for kernels
 * that need cross-CTA ordering (global atomics). save()/restore()/clear()
 * are not thread-safe and must only run while no kernel is executing.
 */
class GpuMemory
{
  public:
    static constexpr unsigned kPageBits = 12;
    static constexpr size_t kPageSize = size_t(1) << kPageBits;

    /**
     * Read n bytes at addr into out. An absent page reads as zeros and is
     * not remembered in `hint`.
     */
    void read(addr_t addr, void *out, size_t n,
              PageHint *hint = nullptr) const;

    /** Write n bytes from src at addr, materializing pages as needed. */
    void write(addr_t addr, const void *src, size_t n,
               PageHint *hint = nullptr);

    /** Typed convenience accessors. */
    template <typename T>
    T
    load(addr_t addr, PageHint *hint = nullptr) const
    {
        T v;
        read(addr, &v, sizeof(T), hint);
        return v;
    }

    template <typename T>
    void
    store(addr_t addr, const T &v)
    {
        write(addr, &v, sizeof(T));
    }

    /** Zero-fill a range. */
    void memset(addr_t addr, uint8_t value, size_t n);

    /** Number of materialized pages (test/diagnostic hook). */
    size_t
    pageCount() const
    {
        std::shared_lock<std::shared_mutex> lk(mu_);
        return pages_.size();
    }

    /** Serialize the full image (checkpoint Data2). */
    void save(BinaryWriter &w) const;

    /** Restore an image previously written by save(). */
    void restore(BinaryReader &r);

    /** Drop all contents. */
    void
    clear()
    {
        std::unique_lock<std::shared_mutex> lk(mu_);
        pages_.clear();
    }

  private:
    /** kPageSize bytes; the array never moves once allocated. */
    using Page = std::unique_ptr<uint8_t[]>;

    /** Bytes of a materialized page, or nullptr. */
    uint8_t *findPage(addr_t page_idx, PageHint *hint) const;
    /** Bytes of a page, materializing it (zero-filled) if absent. */
    uint8_t *touchPage(addr_t page_idx, PageHint *hint);

    std::unordered_map<addr_t, Page> pages_;
    mutable std::shared_mutex mu_; ///< guards the page table, not page bytes
};

} // namespace mlgs

#endif // MLGS_MEM_GPU_MEMORY_H
