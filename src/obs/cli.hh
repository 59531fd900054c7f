/**
 * @file
 * Shared command-line switches of the observability layer, so every
 * harness (tools, benches) spells them identically:
 *
 *   --trace=FILE      record a Chrome trace_event JSON (see trace.hh)
 *   --report=FILE     write the versioned run report (sim/report.hh)
 *   --stats=FILE      dump the stats-registry tree as JSON
 *   --profile[=N]     cycle/energy attribution in the report (v3
 *                     "profile" section); with =N also sample
 *                     N-cycle interval timelines (obs/sampler.hh)
 *   --speedscope=FILE speedscope-compatible export of the profile
 *   --verbose         raise status output to Verbosity::Info
 *
 * Writing the report/stats/profile files needs simulation results, so
 * only the paths are collected here; the harness decides which run
 * they describe.
 */

#ifndef STITCH_OBS_CLI_HH
#define STITCH_OBS_CLI_HH

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "common/cli.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace stitch::obs
{

/** Parsed observability switches of one harness invocation. */
struct CliOptions
{
    std::string tracePath;
    std::string reportPath;
    std::string statsPath;
    std::string speedscopePath;
    bool verbose = false;

    /** --profile given: build the attribution profile (src/prof/). */
    bool profile = false;

    /** --profile=N: sample N-cycle timeline windows (0 = aggregate
     *  only; prof::defaultProfileInterval is the suggested window). */
    Cycles profileInterval = 0;

    /** Consume one argv entry; true iff it was an obs switch. */
    bool
    parse(const char *arg)
    {
        auto keyed = [&](const char *prefix, std::string *out) {
            return cli::keyedValue(arg, prefix, out);
        };
        if (keyed("--trace=", &tracePath))
            return true;
        if (keyed("--report=", &reportPath))
            return true;
        if (keyed("--stats=", &statsPath))
            return true;
        if (keyed("--speedscope=", &speedscopePath))
            return true;
        if (!std::strcmp(arg, "--profile")) {
            profile = true;
            return true;
        }
        if (std::string interval; keyed("--profile=", &interval)) {
            profile = true;
            profileInterval = static_cast<Cycles>(
                std::strtoull(interval.c_str(), nullptr, 10));
            return true;
        }
        if (!std::strcmp(arg, "--verbose")) {
            verbose = true;
            return true;
        }
        return false;
    }

    /** Apply the switches: verbosity now, and open the --trace file
     *  that tracer() then hands to every run of this harness. */
    void
    begin()
    {
        if (verbose)
            Registry::setVerbosity(Verbosity::Info);
        if (!tracePath.empty())
            tracer_ = std::make_unique<Tracer>(tracePath);
    }

    /** The harness's trace (null without --trace); the document is
     *  closed when these options are destroyed. */
    Tracer *tracer() const { return tracer_.get(); }

  private:
    std::unique_ptr<Tracer> tracer_;
};

} // namespace stitch::obs

#endif // STITCH_OBS_CLI_HH
