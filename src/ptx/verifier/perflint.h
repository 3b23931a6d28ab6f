/**
 * @file
 * Static performance linter ("perf-lint"): predicts the memory-system
 * behavior of a kernel from the same affine address abstraction the race
 * detector uses (value = base + c0 + ct·tid), parameterized by a block
 * shape (from `.reqntid` launch bounds when declared, else an assumed
 * default) and a small machine model:
 *
 *  - per global load/store/atomic site, the expected number of L1-line
 *    transactions one warp access generates (the timing model's coalescing
 *    rule in ShaderCore::issueWarp), classified coalesced / strided /
 *    diverged;
 *  - per shared access site, the bank-conflict degree (max simultaneous
 *    distinct words mapped to one bank across a warp, same-word lanes
 *    broadcast);
 *  - per kernel, a static occupancy report (threads / CTA slots / shared
 *    footprint / warp slots vs the core limits) and the fraction of
 *    instructions inside divergent SIMT regions.
 *
 * Every prediction is checked dynamically: func::SiteProfiler measures the
 * same quantities per pc during interpretation and bench/tab_perflint joins
 * the two sides into BENCH_perflint.json (DESIGN.md §13).
 */
#ifndef MLGS_PTX_VERIFIER_PERFLINT_H
#define MLGS_PTX_VERIFIER_PERFLINT_H

#include <string>
#include <vector>

#include "ptx/verifier/verifier.h"

namespace mlgs::ptx::verifier
{

/**
 * Machine parameters the predictions depend on. Defaults mirror
 * timing::GpuConfig's defaults; tab_perflint copies the real config in so
 * static and measured sides agree on geometry. Kept free of timing-layer
 * includes: the ptx library sits below src/timing in the link order.
 */
struct PerfModel
{
    unsigned line_bytes = 128;  ///< L1 line size (coalescing granule)
    unsigned warp_size = 32;
    unsigned shared_banks = 32; ///< shared memory banks
    unsigned bank_bytes = 4;    ///< bank word width
    unsigned max_threads_per_core = 1536;
    unsigned max_ctas_per_core = 16;
    unsigned max_warps_per_core = 48;
    uint64_t shared_mem_per_core = 64 * 1024;
    /** Block shape assumed when the kernel declares no launch bounds. */
    unsigned default_block[3] = {256, 1, 1};
};

/** Estimated (or measured) behavior class of one memory access site. */
enum class AccessClass : uint8_t
{
    Coalesced, ///< transactions ~= ideal for the access width
    Strided,   ///< more than ideal but below full divergence
    Diverged,  ///< ~one transaction per active lane
    Unknown,   ///< address not affine in tid (data-dependent)
};

const char *accessClassName(AccessClass c);

/**
 * Classify a transactions-per-warp-access count. `ideal` is the minimum
 * for the access width (ceil(lanes*width/line)), `lanes` the active lane
 * count.
 */
AccessClass classifyTransactions(double txn, double ideal, unsigned lanes);

/** One global-space (or generic, presumed global) load/store/atomic site. */
struct GlobalSiteReport
{
    uint32_t pc = 0;
    int line = 0, col = 0;
    bool is_store = false;
    bool is_atomic = false;
    bool generic = false; ///< no .global qualifier; classified via affine form
    unsigned width = 0;   ///< bytes per lane
    AccessClass cls = AccessClass::Unknown;
    double txn_per_warp = 0; ///< predicted mean transactions per warp access
    double ideal_txn = 0;    ///< best case for this width and lane count
};

/** One shared-memory access site. */
struct SharedSiteReport
{
    uint32_t pc = 0;
    int line = 0, col = 0;
    bool is_store = false;
    unsigned width = 0;
    AccessClass cls = AccessClass::Unknown;
    unsigned conflict_degree = 0; ///< max N-way conflict (1 = free, 0 = unknown)
    bool broadcast = false;       ///< all lanes read one word
};

/** Static occupancy summary for one kernel at one block shape. */
struct OccupancyReport
{
    unsigned block[3] = {0, 0, 0};
    bool block_assumed = false; ///< no .reqntid: default block shape used
    unsigned regs_per_thread = 0;
    uint64_t shared_bytes = 0;
    unsigned warps_per_block = 0;
    unsigned resident_ctas = 0;
    unsigned resident_warps = 0;
    double occupancy = 0;        ///< resident_warps / max_warps_per_core
    const char *limiter = "";    ///< "threads" | "ctas" | "shared" | "warps"
    double divergent_fraction = 0; ///< instrs inside divergent SIMT regions
};

/** Everything perf-lint derives statically for one kernel. */
struct KernelPerfReport
{
    std::string kernel;
    OccupancyReport occ;
    std::vector<GlobalSiteReport> globals;
    std::vector<SharedSiteReport> shared;
};

/**
 * Analyze one kernel at an explicit block shape. Requires analyzeKernel.
 * `block` may be null to use kernel launch bounds / the model default.
 */
KernelPerfReport perfReport(const KernelDef &kernel, const unsigned *block,
                            const PerfModel &model);

/**
 * Diagnostic-stream view of perfReport: strided/diverged global sites and
 * conflicted shared sites become warnings, unknown sites and the per-kernel
 * occupancy summary become notes. Perf diagnostics are advisory — mlgs-lint
 * does not let them flip its exit status.
 */
std::vector<Diagnostic> perfDiagnostics(const KernelDef &kernel,
                                        const PerfModel &model);

} // namespace mlgs::ptx::verifier

#endif // MLGS_PTX_VERIFIER_PERFLINT_H
