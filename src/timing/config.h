/**
 * @file
 * Performance-model configuration, in the spirit of gpgpusim.config files.
 * Two presets mirror the paper's setups: a GTX 1050 (correlation target,
 * Section IV) and a GTX 1080 Ti (case studies, Section V).
 */
#ifndef MLGS_TIMING_CONFIG_H
#define MLGS_TIMING_CONFIG_H

#include <string>

namespace mlgs::timing
{

/** Warp scheduler policy. */
enum class SchedPolicy { GTO, LRR };

/** Set-associative cache geometry (tag-only; data lives in GpuMemory). */
struct CacheConfig
{
    unsigned size_bytes = 48 * 1024;
    unsigned line_bytes = 128;
    unsigned assoc = 4;
    unsigned mshr_entries = 32;
    unsigned hit_latency = 28;
};

/** Full GPU performance-model configuration. */
struct GpuConfig
{
    std::string name = "generic";

    // Shader cores.
    unsigned num_cores = 8;
    unsigned max_warps_per_core = 48;
    unsigned max_ctas_per_core = 16;
    unsigned max_threads_per_core = 1536;
    unsigned shared_mem_per_core = 64 * 1024;
    unsigned schedulers_per_core = 2;
    SchedPolicy sched_policy = SchedPolicy::GTO;

    // Execution latencies (core cycles).
    unsigned alu_latency = 4;
    unsigned sfu_latency = 16;
    unsigned shared_latency = 24;
    unsigned max_pending_loads_per_warp = 64;

    CacheConfig l1;

    /**
     * Maximum concurrently-resident kernels (GPGPU-Sim leftover-core style):
     * CTAs of a later grid may occupy core slots an earlier grid leaves
     * free. 1 restores strict one-kernel-at-a-time serialization.
     */
    unsigned max_resident_kernels = 2;

    // Interconnect.
    unsigned icnt_latency = 12;

    // Memory partitions (one L2 slice + DRAM channel each).
    unsigned num_partitions = 4;
    CacheConfig l2{128 * 1024, 128, 8, 64, 60};

    // DRAM (per partition), in core cycles.
    unsigned dram_banks = 8;
    unsigned dram_row_bytes = 2048;
    unsigned dram_cas = 18;          ///< column access on a row hit
    unsigned dram_row_cycle = 40;    ///< precharge + activate on a row miss
    unsigned dram_burst_cycles = 4;  ///< data-bus occupancy per 128B line
    unsigned dram_sched_window = 16; ///< FR-FCFS lookahead
    bool dram_frfcfs = true;         ///< false -> plain FCFS (ablation)

    double core_clock_ghz = 1.4;

    /** GTX 1050-like preset (Pascal GP107): correlation target. */
    static GpuConfig
    gtx1050()
    {
        GpuConfig c;
        c.name = "GTX1050";
        c.num_cores = 5;
        c.max_warps_per_core = 64;
        c.max_threads_per_core = 2048;
        c.max_ctas_per_core = 32;
        c.shared_mem_per_core = 96 * 1024;
        c.schedulers_per_core = 4;
        c.num_partitions = 2;
        c.dram_banks = 8;
        c.core_clock_ghz = 1.35;
        return c;
    }

    /** GTX 1080 Ti-like preset (Pascal GP102): case studies. */
    static GpuConfig
    gtx1080ti()
    {
        GpuConfig c;
        c.name = "GTX1080Ti";
        c.num_cores = 28;
        c.max_warps_per_core = 64;
        c.max_threads_per_core = 2048;
        c.max_ctas_per_core = 32;
        c.shared_mem_per_core = 96 * 1024;
        c.schedulers_per_core = 4;
        c.num_partitions = 11;
        c.dram_banks = 8;
        c.core_clock_ghz = 1.48;
        return c;
    }

    unsigned totalDramBanks() const { return num_partitions * dram_banks; }
};

/**
 * FatalError unless every field is inside the range the model supports:
 * nonzero counts, latencies and queue sizes, and upper bounds that keep a
 * run's cost proportional to its workload. Every Context checks its config
 * with this, so traces, serve overrides and API users share one gate.
 */
void validate(const GpuConfig &cfg);

} // namespace mlgs::timing

#endif // MLGS_TIMING_CONFIG_H
