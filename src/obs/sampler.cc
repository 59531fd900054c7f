#include "obs/sampler.hh"

#include "common/logging.hh"

namespace stitch::obs
{

Sampler::Sampler(Cycles interval) : interval_(interval)
{
    if (interval == 0)
        fatal("sampler interval must be at least one cycle");
}

void
Sampler::beginRun(const std::vector<std::string> &seriesNames)
{
    if (seriesNames.size() > static_cast<std::size_t>(maxSeries))
        fatal("sampler supports at most ", maxSeries, " series, got ",
              seriesNames.size());
    seriesNames_ = seriesNames;
    tracks_.clear();
}

} // namespace stitch::obs
