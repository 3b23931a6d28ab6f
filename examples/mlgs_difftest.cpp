/**
 * @file
 * mlgs-difftest: differential PTX fuzzing CLI (the paper's Section III-D
 * functional-debugging methodology as a push-button tool).
 *
 *   mlgs-difftest --seed N [--count M]     run M seeds starting at N through
 *                                          the full differential stack
 *   mlgs-difftest --seed N --inject rem    run with a bug_model.h flag
 *                 [--minimize]             injected; shrink the divergence
 *                 [--dump DIR]             and dump a reproducer pair
 *   mlgs-difftest --repro BASE             re-run BASE.ptx + BASE.json
 *
 * Exit status:
 *   clean sweep: 0 when every seed passes all cross-checks, 1 otherwise.
 *   --inject:    0 when at least one divergence was found (the bug class is
 *                detectable, which is the property under test), 1 otherwise.
 *   --repro:     1 when the dumped failure still reproduces, 0 when it no
 *                longer does (mirrors "re-fails" for CI artifact triage).
 */
#include <cstdio>
#include <cstring>
#include <string>

#include "difftest/difftest.h"

using namespace mlgs;
using namespace mlgs::difftest;

namespace
{

int
usage()
{
    std::puts(
        "usage: mlgs-difftest [--seed N] [--count M] [--threads K]\n"
        "                     [--inject rem|bfe|fma] [--minimize]\n"
        "                     [--dump DIR] [--repro BASE]");
    return 2;
}

const char *
describe(const DiffResult &r)
{
    if (!r.failure.empty())
        return r.failure.c_str();
    return r.ok ? "ok" : "failed";
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t seed = 1;
    uint64_t count = 1;
    DiffOptions opts;
    bool want_minimize = false;
    std::string dump_dir;
    std::string repro;

    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::exit(usage());
            }
            return argv[++i];
        };
        if (a == "--seed")
            seed = std::stoull(next());
        else if (a == "--count")
            count = std::stoull(next());
        else if (a == "--threads")
            opts.parallel_threads = unsigned(std::stoul(next()));
        else if (a == "--minimize")
            want_minimize = true;
        else if (a == "--dump")
            dump_dir = next();
        else if (a == "--repro")
            repro = next();
        else if (a == "--inject") {
            const std::string which = next();
            if (which == "rem")
                opts.inject.legacy_rem = true;
            else if (which == "bfe")
                opts.inject.legacy_bfe = true;
            else if (which == "fma")
                opts.inject.split_fma = true;
            else
                return usage();
        } else {
            return usage();
        }
    }

    try {
        if (!repro.empty()) {
            const DiffResult r = runReproducer(repro);
            const bool refails = !r.parse_ok || !r.failure.empty() ||
                                 r.injected_diverged || !r.ok;
            std::printf("repro %s: %s\n", repro.c_str(),
                        refails ? "still fails" : "no longer fails");
            return refails ? 1 : 0;
        }

        // Single-seed --minimize needs a failure to preserve; without an
        // explicit injection, shrink the canonical legacy_rem divergence.
        // (On a multi-seed sweep --minimize instead shrinks whatever
        // clean-path failures the sweep finds — the nightly-CI use.)
        if (want_minimize && count == 1 && !opts.inject.anyEnabled()) {
            std::puts("note: --minimize without --inject: injecting "
                      "legacy_rem to obtain a failure to shrink");
            opts.inject.legacy_rem = true;
        }
        // A minimized failure is only useful if it survives the process:
        // always dump a reproducer pair.
        if (want_minimize && dump_dir.empty())
            dump_dir = ".";

        unsigned failures = 0, divergences = 0;
        for (uint64_t s = seed; s < seed + count; s++) {
            KernelGen gen(s);
            GenKernel gk = gen.generate(Defect::None);
            const DiffResult r = runKernel(gk, opts);

            if (opts.inject.anyEnabled()) {
                std::printf("seed %llu: injected run %s\n",
                            (unsigned long long)s,
                            r.injected_diverged ? "diverged (detected)"
                                                : "did NOT diverge");
                if (!r.injected_diverged)
                    continue;
                divergences++;
                if (want_minimize) {
                    const unsigned n = minimize(gk, opts);
                    std::printf("seed %llu: minimized: %u statements "
                                "reduced, %u live\n",
                                (unsigned long long)s, n, gk.liveCount());
                }
                if (!dump_dir.empty()) {
                    const std::string base = dump_dir + "/difftest_seed_" +
                                             std::to_string(s);
                    dumpReproducer(gk, opts, base);
                    std::printf("seed %llu: reproducer at %s.{ptx,json}\n",
                                (unsigned long long)s, base.c_str());
                }
            } else {
                std::printf("seed %llu: %s (bug detectability rem=%d bfe=%d "
                            "fma=%d)\n",
                            (unsigned long long)s, describe(r),
                            int(r.bug_diverged[0]), int(r.bug_diverged[1]),
                            int(r.bug_diverged[2]));
                if (!r.ok) {
                    failures++;
                    if (want_minimize) {
                        const unsigned n = minimize(gk, opts);
                        std::printf("seed %llu: minimized: %u statements "
                                    "reduced, %u live\n",
                                    (unsigned long long)s, n, gk.liveCount());
                    }
                    if (!dump_dir.empty()) {
                        const std::string base = dump_dir +
                                                 "/difftest_seed_" +
                                                 std::to_string(s);
                        dumpReproducer(gk, opts, base);
                        std::printf("seed %llu: reproducer at "
                                    "%s.{ptx,json}\n",
                                    (unsigned long long)s, base.c_str());
                    }
                }
            }
        }

        if (opts.inject.anyEnabled()) {
            std::printf("%u/%llu seeds diverged under injection\n",
                        divergences, (unsigned long long)count);
            return divergences > 0 ? 0 : 1;
        }
        std::printf("%llu seeds, %u failures\n", (unsigned long long)count,
                    failures);
        return failures == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mlgs-difftest: %s\n", e.what());
        return 2;
    }
}
