#include "sample/options.h"

#include <cstdlib>

#include "common/log.h"

namespace mlgs::sample
{

std::optional<TimingMode>
parseTimingMode(const std::string &name)
{
    if (name == "detailed")
        return TimingMode::Detailed;
    if (name == "sampled")
        return TimingMode::Sampled;
    return std::nullopt;
}

TimingMode
resolveTimingMode(TimingMode requested)
{
    if (requested != TimingMode::Auto)
        return requested;
    if (const char *env = std::getenv("MLGS_TIMING")) {
        if (const auto m = parseTimingMode(env))
            return *m;
        fatal("MLGS_TIMING must be 'detailed' or 'sampled', got '", env,
              "'");
    }
    return TimingMode::Detailed;
}

const char *
timingModeName(TimingMode mode)
{
    switch (mode) {
      case TimingMode::Detailed: return "detailed";
      case TimingMode::Sampled: return "sampled";
      default: return "auto";
    }
}

} // namespace mlgs::sample
