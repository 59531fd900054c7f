/**
 * @file
 * The benchmark's three workloads and what one run of one of them
 * reports. See fleetbench/NOTES.md for why each workload exists and
 * which metrics each layer should move.
 */

#ifndef FLEETBENCH_WORKLOADS_HH
#define FLEETBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace fleetbench
{

namespace obs = stitch::obs;

/** The command line of one run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10; ///< sizes the fixed request counts
    bool trace = false;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one run reports. */
struct RunOutcome
{
    bool correct = true;
    std::vector<std::string> violations; ///< why `correct` is false
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> endToEnd; ///< untraced run
    std::vector<Metric> perLayer; ///< traced run (--trace 1 only)
    /** Per-class quantile check, sample counts and other context
     *  printed before the result line. */
    obs::Json notes = obs::Json::object();

    void violation(const std::string &why);
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Run one workload; never throws for a workload-level failure (it
 *  becomes a violation). */
RunOutcome runWorkload(const RunOptions &options);

} // namespace fleetbench

#endif // FLEETBENCH_WORKLOADS_HH
