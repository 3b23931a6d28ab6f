/**
 * @file
 * AerialVision-lite: time-bucketed performance counters that reproduce the
 * paper's plot types — per-bank DRAM efficiency/utilization, global and
 * per-shader IPC, and the warp-issue (divergence/stall) breakdown — with CSV
 * and terminal heat-map renderers. * The timing model keeps the counters cumulatively; a bucket is the
 * difference of two of its snapshots.
 */
#ifndef MLGS_STATS_AERIAL_H
#define MLGS_STATS_AERIAL_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace mlgs::stats
{

/** Why a scheduler slot issued nothing this cycle. */
enum class StallKind : uint8_t
{
    Idle,          ///< no live warps on the core (W0)
    DataHazard,    ///< all candidate warps blocked by the scoreboard
    MemStructural, ///< load/store unit or queue full
    Barrier,       ///< all candidate warps waiting at bar.sync
    kCount,
};

/**
 * Counters over a span of sampled cycles (the cycles the timing model
 * stepped): one bucket, or, as the model's snapshot, all of them.
 */
struct AerialBucket
{
    cycle_t start_cycle = 0; ///< sampled cycles before the bucket
    cycle_t cycles = 0;

    uint64_t instructions = 0;          ///< warp instructions issued (global)
    std::vector<uint64_t> core_instructions;  ///< per core
    std::vector<uint64_t> core_thread_instructions; ///< per core, lane-weighted

    /** Warp-issue histogram: index = active lanes (0..32). */
    std::vector<uint64_t> lane_histogram; ///< size 33
    /** Issue-slot stall counts by kind; with `instructions` they fill every
     *  scheduler slot of the sampled core-cycles. */
    std::vector<uint64_t> stalls;         ///< size StallKind::kCount

    std::vector<uint64_t> bank_busy;      ///< cycles transferring, per bank
    std::vector<uint64_t> bank_pending;   ///< busy or with work queued, per bank
};

/** One row of the warp-issue breakdown: its label and its share of a
 *  bucket's issue slots. */
struct BreakdownRow
{
    const char *name;
    double fraction;
};

/**
 * The warp-issue breakdown of a bucket (Figs 22-23): the stall rows, then
 * issues by active-lane count, from none (every lane's guard false) to 32.
 * Every issue slot is in one row, so over a bucket with slots the
 * fractions sum to 1.
 */
std::vector<BreakdownRow> warpBreakdown(const AerialBucket &b);

/** Cuts timing::GpuModel::attachSampler()'s snapshots into buckets. */
class AerialSampler
{
  public:
    AerialSampler(unsigned bucket_cycles, unsigned num_cores,
                  unsigned num_banks);

    unsigned numCores() const { return num_cores_; }
    unsigned numBanks() const { return num_banks_; }
    unsigned bucketCycles() const { return bucket_cycles_; }

    /** The model's snapshot at attach: the next bucket starts here. */
    void start(AerialBucket counters);
    /** A later snapshot; closes the open bucket once it is full. */
    void observe(AerialBucket counters);

    /** Flush the in-progress bucket (call after the run completes). */
    void finish();

    const std::vector<AerialBucket> &buckets() const { return buckets_; }

    /** Mean IPC over all buckets. */
    double globalIpc() const;

    /** Mean DRAM efficiency/utilization over all banks and buckets. */
    double meanDramEfficiency() const;
    double meanDramUtilization() const;

    /** Fraction of issue slots lost to a given stall kind. */
    double stallFraction(StallKind kind) const;

    // ---- rendering ----

    /** Write all series as CSV ("series,bucket0,bucket1,..."). */
    void writeCsv(const std::string &path) const;

    /** ASCII heat map of per-bank efficiency (rows = banks). */
    std::string renderBankHeatmap(bool utilization = false,
                                  unsigned max_cols = 100) const;

    /** ASCII line strip of global or per-core IPC. */
    std::string renderIpcStrip(unsigned max_cols = 100) const;
    std::string renderCoreHeatmap(unsigned max_cols = 100) const;

    /** ASCII stacked summary of the warp-issue breakdown. */
    std::string renderWarpBreakdown(unsigned max_cols = 100) const;

  private:
    void closeBucket();
    AerialBucket total() const; ///< every bucket summed

    unsigned bucket_cycles_;
    unsigned num_cores_;
    unsigned num_banks_;

    AerialBucket mark_;   ///< snapshot where the open bucket starts
    AerialBucket latest_;
    std::vector<AerialBucket> buckets_;
};

} // namespace mlgs::stats

#endif // MLGS_STATS_AERIAL_H
