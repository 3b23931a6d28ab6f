/**
 * @file
 * In-flight memory request token passed between core, interconnect, L2 and
 * DRAM (GPGPU-Sim's mem_fetch analogue), plus the FIFO rings and delay
 * queues that carry it.
 */
#ifndef MLGS_TIMING_MEM_FETCH_H
#define MLGS_TIMING_MEM_FETCH_H

#include <vector>

#include "common/types.h"

namespace mlgs::timing
{

/** One cache-line-granular memory transaction. */
struct MemFetch
{
    addr_t line_addr = 0;
    unsigned bytes = 0;
    bool is_write = false;
    bool is_atomic = false;
    unsigned core_id = 0;
    int warp_slot = -1;  ///< requesting warp slot on the core (-1: none)
    unsigned partition = 0;
};

/**
 * FIFO on a power-of-two ring that doubles when full and never shrinks, so
 * a queue stops allocating once it has held its most entries. The element
 * type must be default-constructible; popped slots keep their old value
 * until overwritten.
 */
template <typename T>
class FifoRing
{
  public:
    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }

    /** The i-th entry from the front. */
    T &operator[](size_t i) { return buf_[(head_ + i) & (buf_.size() - 1)]; }
    const T &
    operator[](size_t i) const
    {
        return buf_[(head_ + i) & (buf_.size() - 1)];
    }

    void
    push_back(T v)
    {
        if (size_ == buf_.size())
            grow();
        buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(v);
        size_++;
    }

    T
    pop_front()
    {
        T v = std::move(buf_[head_]);
        head_ = (head_ + 1) & (buf_.size() - 1);
        size_--;
        return v;
    }

    /** Remove the i-th entry, keeping the others in order (moves i entries). */
    void
    erase(size_t i)
    {
        for (; i > 0; i--)
            (*this)[i] = std::move((*this)[i - 1]);
        pop_front();
    }

  private:
    void
    grow()
    {
        std::vector<T> next(buf_.empty() ? 16 : buf_.size() * 2);
        for (size_t i = 0; i < size_; i++)
            next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
        buf_ = std::move(next);
        head_ = 0;
    }

    std::vector<T> buf_; ///< capacity: zero or a power of two
    size_t head_ = 0;
    size_t size_ = 0;
};

/** FIFO whose entries become visible after a fixed latency. */
template <typename T>
class DelayQueue
{
  public:
    void push(T v, cycle_t ready_at) { q_.push_back({ready_at, std::move(v)}); }

    bool
    ready(cycle_t now) const
    {
        return !q_.empty() && q_.front().ready_at <= now;
    }

    T pop() { return q_.pop_front().value; }

    bool empty() const { return q_.empty(); }

  private:
    struct Entry
    {
        cycle_t ready_at = 0;
        T value{};
    };
    FifoRing<Entry> q_;
};

} // namespace mlgs::timing

#endif // MLGS_TIMING_MEM_FETCH_H
