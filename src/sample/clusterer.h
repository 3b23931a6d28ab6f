/**
 * @file
 * Online launch clusterer: launches are grouped by Signature::key() as they
 * arrive. Each cluster remembers its latest cycle-simulated representative
 * (full per-launch TimingTotals window) plus the cycles-per-warp-instruction
 * spread across every detailed sample it has seen — the error bar attached
 * to the cycles extrapolated for the cluster's fast-forwarded members.
 */
#ifndef MLGS_SAMPLE_CLUSTERER_H
#define MLGS_SAMPLE_CLUSTERER_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sample/signature.h"
#include "timing/gpu.h"

namespace mlgs::sample
{

/** One signature-equivalence class of launches. */
struct Cluster
{
    uint64_t id = 0;
    Signature sig;

    uint64_t members = 0;        ///< launches routed through this cluster
    uint64_t detailed_begun = 0; ///< routed to the cycle model (incl. in flight)
    uint64_t detailed_done = 0;  ///< detailed samples recorded
    uint64_t fast = 0;           ///< members extrapolated from the rep

    /** Latest completed detailed sample (the representative). */
    timing::KernelRunStats rep;
    bool has_rep = false;

    // Cycles-per-warp-instruction spread across detailed samples.
    double cpi_sum = 0.0;
    double cpi_min = 0.0;
    double cpi_max = 0.0;
    uint64_t cpi_n = 0;

    uint64_t detailed_cycles = 0;     ///< cycle-simulated cycles in-cluster
    uint64_t extrapolated_cycles = 0; ///< estimated cycles in-cluster

    double cpiMean() const { return cpi_n ? cpi_sum / double(cpi_n) : 0.0; }
    /** (max-min)/mean over detailed samples; 0 with fewer than two. */
    double cpiRelSpread() const
    {
        const double mean = cpiMean();
        return (cpi_n >= 2 && mean > 0.0) ? (cpi_max - cpi_min) / mean : 0.0;
    }
};

class Clusterer
{
  public:
    /** Find or create the cluster of one launch (requires analyzed kernel). */
    Cluster &clusterFor(const ptx::KernelDef &kernel, const Dim3 &grid,
                        const Dim3 &block);

    /** Record a completed detailed sample as the cluster's representative. */
    void recordDetailed(Cluster &cl, const timing::KernelRunStats &rs);

    /** All clusters in creation order. */
    const std::vector<std::unique_ptr<Cluster>> &clusters() const
    {
        return clusters_;
    }

  private:
    std::map<std::string, Cluster *> by_key_;
    std::vector<std::unique_ptr<Cluster>> clusters_;
};

} // namespace mlgs::sample

#endif // MLGS_SAMPLE_CLUSTERER_H
