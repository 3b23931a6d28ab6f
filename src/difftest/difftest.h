/**
 * @file
 * Differential-testing driver (the paper's Section III-D methodology,
 * industrialized): run a generated kernel through the independent scalar
 * reference (RefExec) and the SIMT engine (the compiled executor) serially,
 * with a CTA thread pool and with each bug_model.h injection flag — asserting bitwise
 * equality on the clean paths and divergence on the injected-bug paths —
 * plus static/dynamic cross-checks of the PTX verifier and race shadow.
 */
#ifndef MLGS_DIFFTEST_DIFFTEST_H
#define MLGS_DIFFTEST_DIFFTEST_H

#include <functional>
#include <string>

#include "difftest/kernel_gen.h"
#include "func/bug_model.h"

namespace mlgs::difftest
{

/** Knobs for one differential run. */
struct DiffOptions
{
    /**
     * Bug flags injected into the device model for the primary comparison.
     * When any flag is set the run is *expected* to diverge from RefExec
     * (DiffResult::injected_diverged) and the clean-path checks are skipped.
     */
    func::BugModel inject;

    /**
     * On clean runs, additionally execute the kernel once per bug_model.h
     * flag and record whether each injection is detectable (diverges).
     */
    bool check_bug_detectability = true;

    /** Worker count for the parallel (sim_threads > 1) engine run. */
    unsigned parallel_threads = 4;
};

/** Outcome of one kernel's differential run. */
struct DiffResult
{
    bool parse_ok = false;
    bool verifier_clean = false; ///< no Warning/Error diagnostics
    bool serial_match = false;   ///< RefExec == engine (registers + memory)
    bool parallel_match = false; ///< RefExec == engine with thread pool
    bool race_run_match = false; ///< RefExec == engine under check_races
    uint64_t shared_races = 0;   ///< dynamic race-shadow count (clean: 0)
    bool injected_diverged = false; ///< only meaningful with opts.inject
    /** Divergence detected per injection flag: rem, bfe, fma order. */
    bool bug_diverged[3] = {false, false, false};

    bool ok = false;        ///< all clean-path checks passed
    std::string failure;    ///< first failing check, human-readable
};

/** Differential run of already-rendered PTX text (reproducer path). */
DiffResult runPtx(const std::string &ptx_text, const LaunchSpec &spec,
                  const DiffOptions &opts);

/** Differential run of a generated kernel (honours its minimizer state). */
DiffResult runKernel(const GenKernel &gk, const DiffOptions &opts);

/** Generate the clean kernel for `seed` and run it differentially. */
DiffResult runDifftest(uint64_t seed, const DiffOptions &opts);

/**
 * The failure polarity the minimizer preserves: with injection enabled a
 * kernel "fails" when it diverges from the reference (the interesting,
 * reproducible behaviour); otherwise when any clean-path check fails.
 */
bool kernelFails(const GenKernel &gk, const DiffOptions &opts);

/**
 * Shrink `gk` in place while kernelFails(gk, opts) stays true: ddmin-style
 * chunked passes replace non-structural statements with immediate-only
 * fallbacks, drop side-effect-only stores, and (on injected-bug failures,
 * where verifier cleanliness is irrelevant) drop dead non-structural
 * definitions outright.
 *
 * @return number of statements reduced (fallback'd or dropped).
 */
unsigned minimize(GenKernel &gk, const DiffOptions &opts);

/**
 * Write `base`.ptx (rendered kernel honouring minimizer state) and
 * `base`.json (launch shape, data seed, injection flags) — everything
 * `mlgs-difftest --repro base` needs to re-run the failure.
 */
void dumpReproducer(const GenKernel &gk, const DiffOptions &opts,
                    const std::string &base);

/**
 * Re-run a reproducer dumped by dumpReproducer. Keys this build does not
 * read (such as `exec` and `diverged_backend`, written by older builds that
 * had two engine backends) are ignored.
 */
DiffResult runReproducer(const std::string &base);

/** Static/dynamic verdicts for a deliberately-defective kernel. */
struct DefectCheck
{
    bool verifier_flagged = false; ///< any Warning/Error diagnostic
    uint64_t dynamic_races = 0;    ///< race-shadow count (when executed)
};

/**
 * Generate the seeded-defect kernel for (seed, defect) and cross-check that
 * the static verifier or the dynamic race shadow catches it. WideRemRead
 * kernels are only verified statically (executing a type-punned rem is
 * well-defined but uninteresting); SharedRace kernels also run under
 * check_races to collect the dynamic count.
 */
DefectCheck checkDefect(uint64_t seed, Defect defect);

} // namespace mlgs::difftest

#endif // MLGS_DIFFTEST_DIFFTEST_H
