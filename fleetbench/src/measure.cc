#include "measure.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <numeric>
#include <sstream>

namespace fleetbench
{

double
processCpuMs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
}

namespace
{

std::uint64_t
statusFieldKb(const char *field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::size_t len = std::strlen(field);
    while (std::getline(in, line))
        if (line.compare(0, len, field) == 0)
            return std::strtoull(line.c_str() + len, nullptr, 10);
    return 0;
}

} // namespace

std::uint64_t
peakRssKb()
{
    return statusFieldKb("VmHWM:");
}

std::uint64_t
currentRssKb()
{
    return statusFieldKb("VmRSS:");
}

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double
mean(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    return std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
}

namespace
{

/** CPU time (ms) of a fixed xorshift loop, median of five. */
double
spinCalibrationMs()
{
    std::vector<double> times;
    for (int rep = 0; rep < 5; ++rep) {
        const double t0 = processCpuMs();
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        for (int i = 0; i < 10'000'000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        volatile std::uint64_t sink = x;
        (void)sink;
        times.push_back(processCpuMs() - t0);
    }
    return quantile(times, 0.5);
}

} // namespace

HostSample
HostSample::take()
{
    HostSample sample;
    sample.calibrationMs = spinCalibrationMs();
    // First line: "cpu user nice system idle iowait irq softirq
    // steal ..." in clock ticks, summed over every CPU.
    std::ifstream stat("/proc/stat");
    std::string line;
    if (std::getline(stat, line)) {
        std::istringstream fields(line);
        std::string label;
        fields >> label;
        std::uint64_t value = 0;
        for (int i = 0; i < 8 && (fields >> value); ++i)
            if (i == 7)
                sample.stealTicks = value;
    }
    std::ifstream loadavg("/proc/loadavg");
    loadavg >> sample.load1;
    return sample;
}

obs::Json
runQualityJson(const HostSample &start, const HostSample &end)
{
    obs::Json doc = obs::Json::object();
    doc.set("steal_ticks", end.stealTicks - start.stealTicks);
    doc.set("steal_ticks_start", start.stealTicks);
    doc.set("steal_ticks_end", end.stealTicks);
    doc.set("load1_start", start.load1);
    doc.set("load1_end", end.load1);
    doc.set("calibration_ms_start", start.calibrationMs);
    doc.set("calibration_ms_end", end.calibrationMs);
    return doc;
}

} // namespace fleetbench
