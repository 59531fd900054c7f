/**
 * @file
 * Measurement primitives of the fleet benchmark: exact quantiles over
 * raw samples, process CPU time, resident-set readings and the host
 * run-quality record.
 *
 * Quantiles are computed from every recorded sample (sorted, linear
 * interpolation between the two straddling order statistics), never
 * from a bucketed histogram: a log-linear histogram snaps a p50 onto
 * a bucket edge, which hides small shifts and exaggerates others.
 */

#ifndef FLEETBENCH_MEASURE_HH
#define FLEETBENCH_MEASURE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace fleetbench
{

namespace obs = stitch::obs;

/** Monotonic wall clock in microseconds (steady_clock epoch). */
inline std::int64_t
nowUs()
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU time of the whole process, all threads (ms). */
double processCpuMs();

/** Peak resident set (VmHWM) and current resident set (VmRSS), KiB,
 *  read from /proc/self/status; 0 when unreadable. */
std::uint64_t peakRssKb();
std::uint64_t currentRssKb();

/** Exact `q`-quantile (0..1) of `samples`: sort, then interpolate
 *  linearly between the order statistics at rank q*(n-1). Returns 0
 *  for an empty set. */
double quantile(std::vector<double> samples, double q);

/** Arithmetic mean; 0 for an empty set. */
double mean(const std::vector<double> &samples);

/** Host-side conditions around a run: steal ticks summed over all
 *  CPUs (/proc/stat), the 1-minute load average (/proc/loadavg) and
 *  the CPU time of a fixed integer loop (how fast this host ran just
 *  then). Recorded for the reader, never used to drop or adjust a
 *  run. */
struct HostSample
{
    std::uint64_t stealTicks = 0;
    double load1 = 0.0;
    double calibrationMs = 0.0;

    static HostSample take();
};

/** The run-quality record: host samples at start and end. */
obs::Json runQualityJson(const HostSample &start,
                         const HostSample &end);

} // namespace fleetbench

#endif // FLEETBENCH_MEASURE_HH
