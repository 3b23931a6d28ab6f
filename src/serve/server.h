/**
 * @file
 * The mlgs-serve daemon core: a long-running simulation service accepting
 * .mlgstrace submissions over a local AF_UNIX socket and scheduling them
 * across a bounded pool of simulation workers, each job in its own freshly
 * constructed Context (full isolation — no simulator state leaks between
 * jobs) with a per-job sim_threads budget.
 *
 * Results flow through a content-addressed ResultCache keyed by
 * (trace content hash, config hash, timing mode, build stamp): determinism
 * makes simulation results cacheable, and the byte-stable stats JSON makes a
 * warm answer bitwise identical to a cold run. Identical submissions that
 * arrive while the first is still simulating are single-flighted: they join
 * the in-flight job and all receive its one result.
 *
 * Admission control bounds the in-system job count (running + queued); jobs
 * beyond the bound are shed with Status::RetryAfter rather than queued
 * without limit, so a burst degrades into client-side backoff instead of
 * unbounded daemon memory growth. Queued jobs run highest-priority first
 * (FIFO within a priority).
 *
 * Shutdown (SIGINT/SIGTERM in the CLI, ShutdownRequest over the wire, or
 * requestStop() in-process) is a drain: no new jobs are admitted, admitted
 * jobs complete and their waiters get real results, then connections close
 * and the socket file is unlinked.
 */
#ifndef MLGS_SERVE_SERVER_H
#define MLGS_SERVE_SERVER_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/cache.h"
#include "serve/protocol.h"

namespace mlgs::serve
{

struct ServerOptions
{
    std::string socket_path; ///< AF_UNIX path; created on start()
    unsigned workers = 2;    ///< simulation worker threads
    /** Jobs queued beyond the running ones before shedding kicks in. */
    unsigned max_queue = 8;
    /** sim_threads for jobs that do not request a budget (0 = auto). */
    unsigned default_sim_threads = 0;
    uint64_t cache_bytes = uint64_t(256) << 20;
    std::string cache_persist_dir; ///< empty = in-memory only
    uint32_t retry_after_ms = 200; ///< backoff hint sent with shed jobs
    /** Artificial pre-simulation delay per job; test hook for exercising
     *  queue-full shedding and drain ordering deterministically. */
    uint32_t debug_job_delay_ms = 0;
    bool verbose = false;
};

class Server
{
  public:
    explicit Server(ServerOptions opts);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind the socket and spawn accept + worker threads. */
    void start();

    /**
     * Begin the drain: stop admitting, wake workers, unblock accept.
     * Idempotent and callable from any (non-signal) thread, including a
     * connection thread handling ShutdownRequest.
     */
    void requestStop();

    /** Block until requestStop() has been called (by anyone). */
    void waitUntilStopRequested();

    /**
     * Complete the drain: admitted jobs finish, their waiters are answered,
     * all threads join, connections close, the socket file is unlinked.
     * Call after requestStop(); returns when the daemon is fully down.
     */
    void join();

    ServerInfo info() const;
    const ServerOptions &options() const { return opts_; }

  private:
    /** Result slot one in-flight job's waiters block on. */
    struct JobState
    {
        std::mutex mu;
        std::condition_variable cv;
        bool done = false;
        bool failed = false;
        std::string error;
        std::string json;
        double sim_ms = 0.0;
    };

    struct Job
    {
        CacheKey key;
        uint8_t priority = 0;
        uint64_t seq = 0; ///< admission order; FIFO within a priority
        uint8_t timing_mode = 0;
        unsigned sim_threads = 0;
        trace::TraceFile trace; ///< effective options already applied
        std::shared_ptr<JobState> state;
    };

    void acceptLoop();
    void connectionLoop(int fd);
    void workerLoop();
    SubmitResponse handleSubmit(BinaryReader &r);
    void runJob(Job &job);
    void closeAllConnections();

    ServerOptions opts_;
    ResultCache cache_;

    int listen_fd_ = -1;
    std::thread accept_thread_;
    std::vector<std::thread> workers_;

    mutable std::mutex sched_mu_;
    std::condition_variable sched_cv_;  ///< workers wait for jobs / stop
    std::condition_variable stop_cv_;   ///< waitUntilStopRequested
    bool stopping_ = false;
    uint64_t next_seq_ = 0;
    std::deque<Job> queue_;
    /** In-flight (queued or running) jobs by cache-key digest. */
    std::unordered_map<uint64_t, std::shared_ptr<JobState>> inflight_;
    uint64_t running_ = 0;
    uint64_t jobs_completed_ = 0;
    uint64_t jobs_failed_ = 0;
    uint64_t dedup_joins_ = 0;
    uint64_t shed_ = 0;

    mutable std::mutex conn_mu_;
    std::vector<int> conn_fds_;
    std::vector<std::thread> conn_threads_;

    const uint64_t build_stamp_;
};

} // namespace mlgs::serve

#endif // MLGS_SERVE_SERVER_H
