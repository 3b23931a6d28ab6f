#include "common/thread_pool.h"

#include <cstdlib>
#include <string>

namespace mlgs
{

namespace
{

// Safety cap: more threads than this is never useful for this simulator.
constexpr unsigned kMaxThreads = 256;

} // namespace

unsigned
ThreadPool::resolveThreadCount(unsigned requested)
{
    if (requested > 0)
        return std::min(requested, kMaxThreads);
    if (const char *env = std::getenv("MLGS_SIM_THREADS")) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end && *end == '\0' && v > 0)
            return unsigned(std::min<unsigned long>(v, kMaxThreads));
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? std::min(hw, kMaxThreads) : 1;
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads > kMaxThreads)
        threads = kMaxThreads;
    for (unsigned w = 1; w < std::max(threads, 1u); w++)
        workers_.emplace_back([this, w] { workerLoop(w); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    job_cv_.notify_all();
    for (auto &t : workers_)
        t.join();
}

void
ThreadPool::runShard(unsigned worker)
{
    const auto &body = *body_;
    const uint64_t n = total_;
    while (!failed_.load(std::memory_order_relaxed)) {
        const uint64_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= n)
            break;
        try {
            body(i, worker);
        } catch (...) {
            if (!failed_.exchange(true))
                first_error_ = std::current_exception();
            break;
        }
    }
}

void
ThreadPool::workerLoop(unsigned worker)
{
    uint64_t seen = 0;
    while (true) {
        {
            std::unique_lock<std::mutex> lk(mu_);
            job_cv_.wait(lk, [&] { return stop_ || epoch_ != seen; });
            if (stop_)
                return;
            seen = epoch_;
        }
        runShard(worker);
        std::lock_guard<std::mutex> lk(mu_);
        if (--pending_ == 0)
            done_cv_.notify_one();
    }
}

void
ThreadPool::parallelFor(uint64_t n,
                        const std::function<void(uint64_t, unsigned)> &body)
{
    if (workers_.empty() || n <= 1) {
        for (uint64_t i = 0; i < n; i++)
            body(i, 0);
        return;
    }

    {
        std::lock_guard<std::mutex> lk(mu_);
        body_ = &body;
        total_ = n;
        next_.store(0, std::memory_order_relaxed);
        failed_.store(false, std::memory_order_relaxed);
        first_error_ = nullptr;
        pending_ = unsigned(workers_.size());
        epoch_++;
    }
    job_cv_.notify_all();

    runShard(0);

    // Each worker decrements pending_ under mu_ after its shard, which also
    // publishes any first_error_ it set.
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] { return pending_ == 0; });
    body_ = nullptr;
    lk.unlock();

    if (first_error_)
        std::rethrow_exception(first_error_);
}

} // namespace mlgs
