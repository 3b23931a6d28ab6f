/**
 * @file
 * mlgs-serve: simulation-as-a-service daemon. Listens on a local AF_UNIX
 * socket for .mlgstrace submissions (see src/serve/), schedules them across
 * a bounded pool of simulation workers, and memoizes results in a
 * content-addressed cache — a repeated submission of the same workload,
 * config, and timing mode is answered byte-identically without simulating.
 *
 *   mlgs-serve --socket /tmp/mlgs.sock [--workers N] [--queue N]
 *              [--cache-mb MB] [--cache-dir DIR] [--sim-threads N]
 *              [--retry-after-ms MS] [--verbose]
 *
 * SIGINT/SIGTERM (or a client ShutdownRequest) drain gracefully: admitted
 * jobs complete and their clients get real results before the daemon exits
 * and unlinks its socket.
 */
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <unistd.h>

#include "bench/cli_flags.h"
#include "serve/server.h"

using namespace mlgs;

namespace
{

/** Self-pipe: the only async-signal-safe thing the handler does is write. */
int g_signal_pipe[2] = {-1, -1};

void
onSignal(int)
{
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --socket PATH [options]\n"
        "  --socket PATH         AF_UNIX socket to listen on (required)\n"
        "  --workers N           simulation worker threads (default 2)\n"
        "  --queue N             queued jobs beyond running before shedding"
        " (default 8)\n"
        "  --cache-mb MB         result cache budget (default 256)\n"
        "  --cache-dir DIR       persist cached results under DIR\n"
        "  --sim-threads N       default per-job sim_threads (default auto)\n"
        "  --retry-after-ms MS   backoff hint for shed jobs (default 200)\n"
        "  --job-delay-ms MS     artificial per-job delay (test hook)\n"
        "  --verbose             log lifecycle events\n",
        argv0);
    return 2;
}

/**
 * Fills `opts` from argv; false for an unknown flag. A malformed numeric
 * value throws a FatalError naming the flag.
 */
bool
parseArgs(int argc, char **argv, serve::ServerOptions &opts)
{
    using bench::parseFlag;
    for (int i = 1; i < argc; i++) {
        const auto arg = [&](const char *name) -> const char * {
            if (std::strcmp(argv[i], name) != 0)
                return nullptr;
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", name);
                std::exit(2);
            }
            return argv[++i];
        };
        if (const char *v = arg("--socket"))
            opts.socket_path = v;
        else if (const char *v = arg("--workers"))
            opts.workers = parseFlag<unsigned>("--workers", v);
        else if (const char *v = arg("--queue"))
            opts.max_queue = parseFlag<unsigned>("--queue", v);
        else if (const char *v = arg("--cache-mb"))
            opts.cache_bytes = parseFlag<uint64_t>("--cache-mb", v) << 20;
        else if (const char *v = arg("--cache-dir"))
            opts.cache_persist_dir = v;
        else if (const char *v = arg("--sim-threads"))
            opts.default_sim_threads = parseFlag<unsigned>("--sim-threads", v);
        else if (const char *v = arg("--retry-after-ms"))
            opts.retry_after_ms = parseFlag<uint32_t>("--retry-after-ms", v);
        else if (const char *v = arg("--job-delay-ms"))
            opts.debug_job_delay_ms = parseFlag<uint32_t>("--job-delay-ms", v);
        else if (std::strcmp(argv[i], "--verbose") == 0)
            opts.verbose = true;
        else
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    serve::ServerOptions opts;
    try {
        if (!parseArgs(argc, argv, opts))
            return usage(argv[0]);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "mlgs-serve: %s\n", e.what());
        return usage(argv[0]);
    }
    if (opts.socket_path.empty())
        return usage(argv[0]);

    try {
        serve::Server server(opts);
        server.start();
        std::printf("mlgs-serve: listening on %s (%u workers, queue %u, "
                    "cache %llu MB)\n",
                    opts.socket_path.c_str(), opts.workers, opts.max_queue,
                    (unsigned long long)(opts.cache_bytes >> 20));
        std::fflush(stdout);

        if (::pipe(g_signal_pipe) != 0) {
            std::perror("mlgs-serve: pipe");
            return 1;
        }
        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);
        std::thread signal_watcher([&] {
            char byte = 0;
            while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
            }
            server.requestStop();
        });

        server.waitUntilStopRequested();
        // Wake the watcher if the stop came over the wire, not via signal.
        onSignal(0);
        signal_watcher.join();

        std::printf("mlgs-serve: draining...\n");
        std::fflush(stdout);
        server.join();

        const auto info = server.info();
        std::printf("mlgs-serve: exiting after %llu jobs "
                    "(%llu cache hits, %llu dedup joins, %llu shed, "
                    "%llu failed)\n",
                    (unsigned long long)info.jobs_completed,
                    (unsigned long long)info.cache_hits,
                    (unsigned long long)info.dedup_joins,
                    (unsigned long long)info.shed,
                    (unsigned long long)info.jobs_failed);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mlgs-serve: %s\n", e.what());
        return 1;
    }
}
