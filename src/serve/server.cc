#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/log.h"
#include "sample/options.h"
#include "trace/replayer.h"

namespace mlgs::serve
{

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.cache_bytes, opts_.cache_persist_dir),
      build_stamp_(buildStamp())
{
    MLGS_REQUIRE(!opts_.socket_path.empty(),
                 "serve: a socket path is required");
    MLGS_REQUIRE(opts_.workers >= 1, "serve: at least one worker is required");
}

Server::~Server()
{
    if (listen_fd_ >= 0) {
        requestStop();
        join();
    }
}

void
Server::start()
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    MLGS_REQUIRE(opts_.socket_path.size() < sizeof(addr.sun_path),
                 "serve: socket path is too long for AF_UNIX (",
                 opts_.socket_path.size(), " bytes): ", opts_.socket_path);
    std::strncpy(addr.sun_path, opts_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    MLGS_REQUIRE(listen_fd_ >= 0, "serve: cannot create socket: ",
                 std::strerror(errno));
    ::unlink(opts_.socket_path.c_str()); // clear a stale socket file
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        fatal("serve: cannot bind ", opts_.socket_path, ": ",
              std::strerror(errno));
    if (::listen(listen_fd_, 64) != 0)
        fatal("serve: cannot listen on ", opts_.socket_path, ": ",
              std::strerror(errno));

    accept_thread_ = std::thread(&Server::acceptLoop, this);
    for (unsigned i = 0; i < opts_.workers; i++)
        workers_.emplace_back(&Server::workerLoop, this);
    if (opts_.verbose)
        inform("serve: listening on ", opts_.socket_path, " with ",
               opts_.workers, " workers");
}

void
Server::requestStop()
{
    {
        std::lock_guard<std::mutex> lock(sched_mu_);
        if (stopping_)
            return;
        stopping_ = true;
    }
    sched_cv_.notify_all();
    stop_cv_.notify_all();
    // Unblock accept(): shutting down a listening socket makes the pending
    // accept fail immediately on Linux.
    if (listen_fd_ >= 0)
        ::shutdown(listen_fd_, SHUT_RDWR);
}

void
Server::waitUntilStopRequested()
{
    std::unique_lock<std::mutex> lock(sched_mu_);
    stop_cv_.wait(lock, [&] { return stopping_; });
}

void
Server::join()
{
    if (accept_thread_.joinable())
        accept_thread_.join();
    // Workers drain the queue: every admitted job completes and wakes its
    // waiters before the worker threads exit.
    for (auto &w : workers_)
        if (w.joinable())
            w.join();
    workers_.clear();
    // Wake connection threads blocked between frames. SHUT_RD only: a
    // blocked read sees EOF, while a response that is still being written
    // out goes through untouched.
    {
        std::lock_guard<std::mutex> lock(conn_mu_);
        for (const int fd : conn_fds_)
            ::shutdown(fd, SHUT_RD);
    }
    for (auto &t : conn_threads_)
        if (t.joinable())
            t.join();
    conn_threads_.clear();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        ::unlink(opts_.socket_path.c_str());
    }
    if (opts_.verbose)
        inform("serve: drained and stopped");
}

void
Server::acceptLoop()
{
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listen socket shut down: drain has begun
        }
        std::lock_guard<std::mutex> lock(conn_mu_);
        conn_fds_.push_back(fd);
        conn_threads_.emplace_back(&Server::connectionLoop, this, fd);
    }
}

void
Server::connectionLoop(int fd)
{
    for (;;) {
        std::optional<std::vector<uint8_t>> frame;
        try {
            frame = readFrame(fd);
        } catch (const FatalError &) {
            break; // mid-frame EOF or oversized length: drop the connection
        }
        if (!frame)
            break; // clean EOF
        BinaryWriter out;
        bool shutdown_requested = false;
        try {
            BinaryReader r(std::move(*frame), "serve request");
            switch (readMsgType(r)) {
            case MsgType::SubmitRequest:
                handleSubmit(r).encode(out);
                break;
            case MsgType::PingRequest:
                beginMsg(out, MsgType::PingResponse);
                break;
            case MsgType::InfoRequest:
                info().encode(out);
                break;
            case MsgType::ShutdownRequest:
                beginMsg(out, MsgType::ShutdownResponse);
                shutdown_requested = true;
                break;
            default:
                fatal("serve: unexpected message type in request");
            }
        } catch (const FatalError &e) {
            // A malformed message answers with a protocol error; the daemon
            // and the connection both survive.
            out = BinaryWriter();
            beginMsg(out, MsgType::ErrorResponse);
            out.putString(e.what());
        }
        try {
            writeFrame(fd, out);
        } catch (const FatalError &) {
            break; // peer went away mid-response
        }
        if (shutdown_requested)
            requestStop();
    }
    std::lock_guard<std::mutex> lock(conn_mu_);
    const auto it = std::find(conn_fds_.begin(), conn_fds_.end(), fd);
    if (it != conn_fds_.end())
        conn_fds_.erase(it);
    ::close(fd);
}

SubmitResponse
Server::handleSubmit(BinaryReader &r)
{
    SubmitResponse resp;
    SubmitRequest req = SubmitRequest::decode(r);

    trace::TraceFile trace;
    try {
        BinaryReader tr(std::move(req.trace_bytes), "submitted trace");
        trace = trace::TraceFile::read(tr);
    } catch (const FatalError &e) {
        resp.status = Status::Error;
        resp.error = e.what();
        return resp;
    }
    if (req.has_options_override)
        trace.options = req.options_override;

    // Resolve the timing mode the job will actually run under, so the cache
    // key never contains Auto (and functional-mode traces, whose timing mode
    // is irrelevant, all share one key).
    if (req.timing_mode > uint8_t(sample::TimingMode::Sampled)) {
        resp.status = Status::Error;
        resp.error = "invalid timing mode " + std::to_string(req.timing_mode);
        return resp;
    }
    auto mode = sample::TimingMode(req.timing_mode);
    if (mode == sample::TimingMode::Auto ||
        cuda::SimMode(trace.options.mode) != cuda::SimMode::Performance)
        mode = sample::TimingMode::Detailed;

    CacheKey key;
    key.trace_hash = trace.contentHash();
    key.config_hash = configHash(trace.options);
    key.timing_mode = uint8_t(mode);
    key.build_stamp = build_stamp_;
    resp.trace_hash = key.trace_hash;
    resp.config_hash = key.config_hash;

    if (auto cached = cache_.get(key)) {
        resp.status = Status::Ok;
        resp.cache_hit = 1;
        resp.stats_json = std::move(*cached);
        return resp;
    }

    std::shared_ptr<JobState> state;
    bool joined = false;
    {
        std::lock_guard<std::mutex> lock(sched_mu_);
        if (stopping_) {
            resp.status = Status::ShuttingDown;
            resp.error = "daemon is draining";
            return resp;
        }
        const auto it = inflight_.find(key.digest());
        if (it != inflight_.end()) {
            // Single-flight: an identical job is already queued or running —
            // join it instead of simulating the same thing twice.
            state = it->second;
            joined = true;
            dedup_joins_++;
        } else {
            if (queue_.size() + running_ >=
                uint64_t(opts_.workers) + opts_.max_queue) {
                shed_++;
                resp.status = Status::RetryAfter;
                resp.retry_after_ms = opts_.retry_after_ms;
                return resp;
            }
            state = std::make_shared<JobState>();
            Job job;
            job.key = key;
            job.priority = req.priority;
            job.seq = next_seq_++;
            job.timing_mode = uint8_t(mode);
            job.sim_threads = req.sim_threads ? req.sim_threads
                                              : opts_.default_sim_threads;
            job.trace = std::move(trace);
            job.state = state;
            queue_.push_back(std::move(job));
            inflight_[key.digest()] = state;
            sched_cv_.notify_one();
        }
    }

    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] { return state->done; });
    if (state->failed) {
        resp.status = Status::Error;
        resp.error = state->error;
        return resp;
    }
    resp.status = Status::Ok;
    resp.deduped = joined ? 1 : 0;
    resp.sim_ms = state->sim_ms;
    resp.stats_json = state->json;
    return resp;
}

void
Server::workerLoop()
{
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(sched_mu_);
            sched_cv_.wait(lock,
                           [&] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping and drained
            // Highest priority first, FIFO within a priority. The queue is
            // bounded by workers + max_queue, so a linear scan is fine.
            auto best = queue_.begin();
            for (auto it = std::next(best); it != queue_.end(); ++it)
                if (it->priority > best->priority ||
                    (it->priority == best->priority && it->seq < best->seq))
                    best = it;
            job = std::move(*best);
            queue_.erase(best);
            running_++;
        }

        if (opts_.debug_job_delay_ms)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(opts_.debug_job_delay_ms));

        bool failed = false;
        try {
            runJob(job);
        } catch (const std::exception &e) {
            failed = true;
            std::lock_guard<std::mutex> lock(job.state->mu);
            job.state->failed = true;
            job.state->error = e.what();
        }
        if (!failed)
            cache_.put(job.key, job.state->json);
        // Retire from the scheduler *before* answering waiters, so a client
        // that acts on its response immediately (e.g. info()) sees the
        // completed counters; arrivals in between hit the cache put above.
        {
            std::lock_guard<std::mutex> lock(sched_mu_);
            inflight_.erase(job.key.digest());
            running_--;
            (failed ? jobs_failed_ : jobs_completed_)++;
        }
        {
            std::lock_guard<std::mutex> lock(job.state->mu);
            job.state->done = true;
        }
        job.state->cv.notify_all();
    }
}

void
Server::runJob(Job &job)
{
    trace::TraceReplayer rep(std::move(job.trace));
    cuda::ContextOptions copts = rep.options();
    copts.timing_mode = sample::TimingMode(job.timing_mode);
    copts.sim_threads = job.sim_threads;

    const auto t0 = std::chrono::steady_clock::now();
    cuda::Context ctx(copts);
    rep.replay(ctx);
    job.state->json = trace::statsJson(ctx);
    job.state->sim_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
}

ServerInfo
Server::info() const
{
    ServerInfo i;
    i.workers = opts_.workers;
    i.queue_limit = opts_.max_queue;
    i.build_stamp = build_stamp_;
    {
        std::lock_guard<std::mutex> lock(sched_mu_);
        i.jobs_completed = jobs_completed_;
        i.jobs_failed = jobs_failed_;
        i.jobs_running = running_;
        i.dedup_joins = dedup_joins_;
        i.shed = shed_;
    }
    const CacheStats cs = cache_.stats();
    i.cache_hits = cs.hits;
    i.cache_misses = cs.misses;
    i.cache_entries = cs.entries;
    i.cache_bytes = cs.bytes;
    return i;
}

} // namespace mlgs::serve
