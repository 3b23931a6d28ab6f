#include "timing/config.h"

#include <cmath>
#include <cstdint>

#include "common/log.h"

namespace mlgs::timing
{

namespace
{

/** Largest latency, in core cycles, any single pipeline stage may take. */
constexpr uint64_t kMaxLatency = 4096;

void
requireIn(const GpuConfig &cfg, const std::string &field, uint64_t v,
          uint64_t lo, uint64_t hi)
{
    MLGS_REQUIRE(v >= lo && v <= hi, "GpuConfig '", cfg.name, "': ", field,
                 " = ", v, " is outside the supported range [", lo, ", ", hi,
                 "]");
}

void
validateCache(const GpuConfig &cfg, const char *which, const CacheConfig &c)
{
    const std::string f = std::string(which) + ".";
    requireIn(cfg, f + "line_bytes", c.line_bytes, 32, 4096);
    MLGS_REQUIRE((c.line_bytes & (c.line_bytes - 1)) == 0, "GpuConfig '",
                 cfg.name, "': ", which, ".line_bytes = ", c.line_bytes,
                 " is not a power of two");
    requireIn(cfg, f + "assoc", c.assoc, 1, 64);
    requireIn(cfg, f + "size_bytes", c.size_bytes,
              uint64_t(c.line_bytes) * c.assoc, 64u << 20);
    requireIn(cfg, f + "mshr_entries", c.mshr_entries, 1, 4096);
    requireIn(cfg, f + "hit_latency", c.hit_latency, 1,
              kMaxLatency);
}

} // namespace

void
validate(const GpuConfig &cfg)
{
    requireIn(cfg, "num_cores", cfg.num_cores, 1, 1024);
    requireIn(cfg, "max_warps_per_core", cfg.max_warps_per_core, 1, 128);
    requireIn(cfg, "max_ctas_per_core", cfg.max_ctas_per_core, 1, 128);
    requireIn(cfg, "max_threads_per_core", cfg.max_threads_per_core, 1, 4096);
    requireIn(cfg, "shared_mem_per_core", cfg.shared_mem_per_core, 0,
              1u << 20);
    requireIn(cfg, "schedulers_per_core", cfg.schedulers_per_core, 1, 16);
    requireIn(cfg, "alu_latency", cfg.alu_latency, 1, kMaxLatency);
    requireIn(cfg, "sfu_latency", cfg.sfu_latency, 1, kMaxLatency);
    requireIn(cfg, "shared_latency", cfg.shared_latency, 1, kMaxLatency);
    requireIn(cfg, "max_pending_loads_per_warp",
              cfg.max_pending_loads_per_warp, 1, 1024);
    validateCache(cfg, "l1", cfg.l1);
    requireIn(cfg, "max_resident_kernels", cfg.max_resident_kernels, 1, 128);
    requireIn(cfg, "icnt_latency", cfg.icnt_latency, 1, kMaxLatency);
    requireIn(cfg, "num_partitions", cfg.num_partitions, 1, 256);
    validateCache(cfg, "l2", cfg.l2);
    requireIn(cfg, "dram_banks", cfg.dram_banks, 1, 64);
    requireIn(cfg, "dram_row_bytes", cfg.dram_row_bytes, cfg.l2.line_bytes,
              1u << 20);
    requireIn(cfg, "dram_cas", cfg.dram_cas, 1, kMaxLatency);
    requireIn(cfg, "dram_row_cycle", cfg.dram_row_cycle, 1, kMaxLatency);
    requireIn(cfg, "dram_burst_cycles", cfg.dram_burst_cycles, 1,
              kMaxLatency);
    requireIn(cfg, "dram_sched_window", cfg.dram_sched_window, 1, 1024);
    MLGS_REQUIRE(std::isfinite(cfg.core_clock_ghz) &&
                     cfg.core_clock_ghz > 0 && cfg.core_clock_ghz <= 100,
                 "GpuConfig '", cfg.name, "': core_clock_ghz = ",
                 cfg.core_clock_ghz, " is outside (0, 100]");
}

} // namespace mlgs::timing
