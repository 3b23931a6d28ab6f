/**
 * @file
 * Functional-mode execution backend: grids execute to completion the moment
 * they begin (warp-serial functional execution), and are charged an
 * instruction-proportional duration so stream overlap remains meaningful.
 * Residency is unlimited — any number of streams' kernels may be in flight.
 */
#ifndef MLGS_ENGINE_FUNCTIONAL_BACKEND_H
#define MLGS_ENGINE_FUNCTIONAL_BACKEND_H

#include <queue>

#include "engine/exec_backend.h"

namespace mlgs::engine
{

class FunctionalBackend : public ExecBackend
{
  public:
    explicit FunctionalBackend(func::FunctionalEngine &engine)
        : engine_(&engine)
    {
    }

    bool canAccept() const override { return true; }
    uint64_t begin(LaunchRecord &rec, const func::LaunchEnv &env,
                   cycle_t start) override;
    bool busy() const override { return !pending_.empty(); }
    std::optional<BackendCompletion> advanceUntil(cycle_t limit) override;
    void finish(uint64_t token, LaunchRecord &rec) override;

  private:
    struct Pending
    {
        cycle_t at = 0;
        uint64_t token = 0;
        bool operator>(const Pending &o) const
        {
            return at != o.at ? at > o.at : token > o.token;
        }
    };

    func::FunctionalEngine *engine_;
    std::priority_queue<Pending, std::vector<Pending>, std::greater<Pending>>
        pending_;
    uint64_t next_token_ = 0;
};

} // namespace mlgs::engine

#endif // MLGS_ENGINE_FUNCTIONAL_BACKEND_H
