#include "mem/gpu_memory.h"

#include <algorithm>
#include <map>

namespace mlgs
{

// Page storage is stable once materialized: each page is one heap array
// allocated exactly once under the writer lock, so returned pointers (and
// the ones PageHints remember) stay valid after the lock is released, until
// clear() or restore() drops the page.

uint8_t *
GpuMemory::findPage(addr_t page_idx, PageHint *hint) const
{
    if (hint && hint->page == page_idx)
        return hint->bytes;
    uint8_t *bytes = nullptr;
    {
        std::shared_lock<std::shared_mutex> lk(mu_);
        const auto it = pages_.find(page_idx);
        if (it == pages_.end())
            return nullptr;
        bytes = it->second.get();
    }
    if (hint)
        *hint = PageHint{page_idx, bytes};
    return bytes;
}

uint8_t *
GpuMemory::touchPage(addr_t page_idx, PageHint *hint)
{
    if (uint8_t *bytes = findPage(page_idx, hint))
        return bytes;
    uint8_t *bytes = nullptr;
    {
        std::unique_lock<std::shared_mutex> lk(mu_);
        Page &page = pages_[page_idx];
        if (!page)
            page = std::make_unique<uint8_t[]>(kPageSize); // zero-filled
        bytes = page.get();
    }
    if (hint)
        *hint = PageHint{page_idx, bytes};
    return bytes;
}

void
GpuMemory::read(addr_t addr, void *out, size_t n, PageHint *hint) const
{
    auto *dst = static_cast<uint8_t *>(out);
    while (n > 0) {
        const addr_t page_idx = addr >> kPageBits;
        const size_t off = size_t(addr & (kPageSize - 1));
        const size_t chunk = std::min(n, kPageSize - off);
        if (const uint8_t *page = findPage(page_idx, hint))
            std::memcpy(dst, page + off, chunk);
        else
            std::memset(dst, 0, chunk);
        dst += chunk;
        addr += chunk;
        n -= chunk;
    }
}

void
GpuMemory::write(addr_t addr, const void *src, size_t n, PageHint *hint)
{
    const auto *p = static_cast<const uint8_t *>(src);
    while (n > 0) {
        const addr_t page_idx = addr >> kPageBits;
        const size_t off = size_t(addr & (kPageSize - 1));
        const size_t chunk = std::min(n, kPageSize - off);
        std::memcpy(touchPage(page_idx, hint) + off, p, chunk);
        p += chunk;
        addr += chunk;
        n -= chunk;
    }
}

void
GpuMemory::memset(addr_t addr, uint8_t value, size_t n)
{
    while (n > 0) {
        const addr_t page_idx = addr >> kPageBits;
        const size_t off = size_t(addr & (kPageSize - 1));
        const size_t chunk = std::min(n, kPageSize - off);
        std::memset(touchPage(page_idx, nullptr) + off, value, chunk);
        addr += chunk;
        n -= chunk;
    }
}

void
GpuMemory::save(BinaryWriter &w) const
{
    // Deterministic order for reproducible checkpoint files.
    std::map<addr_t, const uint8_t *> ordered;
    for (const auto &[idx, page] : pages_)
        ordered.emplace(idx, page.get());
    w.put<uint64_t>(ordered.size());
    for (const auto &[idx, bytes] : ordered) {
        w.put<addr_t>(idx);
        w.putBytes(bytes, kPageSize);
    }
}

void
GpuMemory::restore(BinaryReader &r)
{
    pages_.clear();
    const auto count = r.get<uint64_t>();
    for (uint64_t i = 0; i < count; i++) {
        const auto idx = r.get<addr_t>();
        Page page = std::make_unique_for_overwrite<uint8_t[]>(kPageSize);
        r.getBytes(page.get(), kPageSize);
        pages_.emplace(idx, std::move(page));
    }
}

} // namespace mlgs
