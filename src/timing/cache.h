/**
 * @file
 * Tag-only set-associative cache with LRU replacement and MSHR merging.
 * Functional data lives in GpuMemory; this models hit/miss timing only,
 * which is all the performance model needs.
 */
#ifndef MLGS_TIMING_CACHE_H
#define MLGS_TIMING_CACHE_H

#include <vector>

#include "common/types.h"
#include "timing/config.h"

namespace mlgs::timing
{

/** Cache access outcomes. */
enum class CacheOutcome
{
    Hit,
    Miss,          ///< allocated an MSHR; fill expected
    MissMerged,    ///< merged into an existing MSHR for the same line
    ReservationFail, ///< MSHR full: retry later
};

/**
 * Tag array + MSHR bookkeeping. The MSHRs are a fixed table of
 * CacheConfig::mshr_entries slots, so callers can keep per-miss state (the
 * waiters of a line) in arrays indexed by MSHR slot.
 */
class TagCache
{
  public:
    /** No MSHR slot (fill() of a line with no outstanding miss). */
    static constexpr unsigned kNoMshr = ~0u;

    explicit TagCache(const CacheConfig &cfg);

    /**
     * Probe for a read. On Miss the caller must eventually call fill();
     * MissMerged means a fill for the line is already outstanding. On Miss
     * and MissMerged, `*mshr` (if given) receives the line's MSHR slot.
     */
    CacheOutcome accessRead(addr_t line_addr, cycle_t now,
                            unsigned *mshr = nullptr);

    /** Probe for a write-through write (updates LRU on hit, never allocates). */
    bool accessWrite(addr_t line_addr, cycle_t now);

    /**
     * Install a line on fill response; frees its MSHR. Returns the freed
     * MSHR slot, or kNoMshr when no miss was outstanding for the line.
     */
    unsigned fill(addr_t line_addr, cycle_t now);

    /** True if an MSHR is outstanding for the line. */
    bool mshrPending(addr_t line_addr) const
    {
        return findMshr(line_addr) != kNoMshr;
    }

    size_t mshrInUse() const { return mshr_in_use_; }
    unsigned mshrEntries() const { return cfg_.mshr_entries; }

    // Statistics.
    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t accesses() const { return hits_ + misses_; }

  private:
    struct Line
    {
        addr_t tag = 0;
        bool valid = false;
        cycle_t last_use = 0;
    };

    /** Marks a free MSHR slot: line addresses are line-aligned. */
    static constexpr addr_t kFreeMshr = ~addr_t(0);

    unsigned setIndex(addr_t line_addr) const;
    Line *probe(addr_t line_addr);
    unsigned findMshr(addr_t line_addr) const;

    CacheConfig cfg_;
    unsigned num_sets_;
    std::vector<Line> lines_; ///< num_sets * assoc
    std::vector<addr_t> mshrs_; ///< line of each MSHR slot, or kFreeMshr
    size_t mshr_in_use_ = 0;

    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

/**
 * FIFO lists of waiters, one per MSHR slot, threaded through one node pool
 * whose free nodes form a free list: the pool grows to the most waiters in
 * flight and is reused from then on.
 */
template <typename T>
class MshrWaiters
{
  public:
    explicit MshrWaiters(unsigned slots)
        : heads_(slots, kNil), tails_(slots, kNil)
    {
    }

    void
    push(unsigned slot, T v)
    {
        uint32_t idx = free_;
        if (idx != kNil) {
            free_ = nodes_[idx].next;
        } else {
            idx = uint32_t(nodes_.size());
            nodes_.emplace_back();
        }
        nodes_[idx].value = std::move(v);
        nodes_[idx].next = kNil;
        (tails_[slot] == kNil ? heads_[slot] : nodes_[tails_[slot]].next) = idx;
        tails_[slot] = idx;
        size_++;
    }

    /** Pop every waiter of `slot` into `f`, oldest first. */
    template <typename F>
    void
    drain(unsigned slot, F &&f)
    {
        uint32_t idx = heads_[slot];
        heads_[slot] = tails_[slot] = kNil;
        while (idx != kNil) {
            Node &n = nodes_[idx];
            const uint32_t next = n.next;
            f(std::move(n.value));
            n.next = free_;
            free_ = idx;
            size_--;
            idx = next;
        }
    }

    bool empty() const { return size_ == 0; }

  private:
    static constexpr uint32_t kNil = ~uint32_t(0);
    struct Node
    {
        T value{};
        uint32_t next = kNil;
    };

    std::vector<uint32_t> heads_, tails_;
    std::vector<Node> nodes_;
    uint32_t free_ = kNil;
    size_t size_ = 0;
};

} // namespace mlgs::timing

#endif // MLGS_TIMING_CACHE_H
