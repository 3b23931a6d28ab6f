/**
 * @file
 * Fixed-size worker pool with a parallelFor primitive, used by the
 * functional engine to fan independent CTAs across host threads. Jobs are
 * coarse (whole CTAs), so workers simply sleep on a condition variable
 * between jobs, and the calling thread participates as worker 0.
 *
 * parallelFor is a plain fork-join: indices are handed out with an atomic
 * counter (dynamic chunking, chunk size 1) and the call returns only after
 * every index has been processed. Determinism is the caller's problem —
 * the pool guarantees each index runs exactly once and reports a stable
 * worker id in [0, threadCount()) so callers can shard side effects and
 * merge them in a fixed order afterwards.
 */
#ifndef MLGS_COMMON_THREAD_POOL_H
#define MLGS_COMMON_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mlgs
{

/** Fixed pool of worker threads executing parallelFor bodies. */
class ThreadPool
{
  public:
    /**
     * Resolve a requested thread count: a nonzero request wins; 0 means
     * "auto" — the MLGS_SIM_THREADS environment variable if set, otherwise
     * the hardware concurrency. Always returns at least 1.
     */
    static unsigned resolveThreadCount(unsigned requested);

    /** threads = total workers including the calling thread (min 1). */
    explicit ThreadPool(unsigned threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total workers including the caller. 1 = everything runs inline. */
    unsigned threadCount() const { return unsigned(workers_.size()) + 1; }

    /**
     * Run body(index, worker) for every index in [0, n), potentially in
     * parallel, and return once all indices completed. worker is a stable
     * id in [0, threadCount()); the calling thread is worker 0. If any
     * body throws, remaining indices are skipped and the first exception
     * is rethrown on the calling thread. Not reentrant.
     */
    void parallelFor(uint64_t n, const std::function<void(uint64_t, unsigned)> &body);

  private:
    void workerLoop(unsigned worker);
    void runShard(unsigned worker);

    std::vector<std::thread> workers_;

    // Job descriptor for the current parallelFor invocation, published
    // under mu_ together with the epoch bump.
    const std::function<void(uint64_t, unsigned)> *body_ = nullptr;
    uint64_t total_ = 0;
    std::atomic<uint64_t> next_{0};   ///< next index to hand out
    std::atomic<bool> failed_{false}; ///< a body threw; drain remaining
    std::exception_ptr first_error_;  ///< set by the first thrower only

    std::mutex mu_;
    std::condition_variable job_cv_;  ///< workers: new epoch or stop
    std::condition_variable done_cv_; ///< caller: pending_ reached zero
    uint64_t epoch_ = 0;              ///< bumped to publish a new job
    unsigned pending_ = 0;            ///< workers still inside the job
    bool stop_ = false;
};

} // namespace mlgs

#endif // MLGS_COMMON_THREAD_POOL_H
