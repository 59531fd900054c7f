/**
 * @file
 * fleetbench: the repository benchmark's main program.
 *
 *   fleetbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Runs one workload (hot_hits, unique_sims or cold_start) against the
 * real serving stack and prints, as its last stdout line, one JSON
 * object {"correct", "attempted", "failed", "metrics"}: the
 * end-to-end metrics with --trace 0, the per-layer metrics with
 * --trace 1. The lines before it carry the per-class quantile check
 * and the run-quality record (host steal ticks and load average).
 * Exit status: 0 when every output checked correct, 1 when a check
 * failed, 2 on a usage or internal error (no result line).
 */

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "measure.hh"
#include "workloads.hh"

using namespace fleetbench;

namespace
{

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "fleetbench: %s\nusage: fleetbench --workload "
                 "hot_hits|unique_sims|cold_start --seed N "
                 "--seconds S --trace 0|1\n",
                 why);
    return 2;
}

/** CPUs the whole run is confined to. On a shared 4-vCPU host, every
 *  busy vCPU is exposed to host steal and every cross-CPU wake-up
 *  pays for it. In alternating runs, hot_hits' run-to-run spread of
 *  p90 was 0.55 on all four vCPUs, 0.07 to 0.14 on two, and 0.08 on
 *  one, where steal also fell most. Threads inherit the mask, so this
 *  runs before any thread starts. */
constexpr int kCpus = 1;

void
confineToCpus(int count)
{
    cpu_set_t allowed;
    if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return;
    cpu_set_t use;
    CPU_ZERO(&use);
    for (int cpu = 0, picked = 0; cpu < CPU_SETSIZE && picked < count;
         ++cpu)
        if (CPU_ISSET(cpu, &allowed)) {
            CPU_SET(cpu, &use);
            ++picked;
        }
    ::sched_setaffinity(0, sizeof use, &use);
}

/** JSON string literal; metric names and units are plain ASCII. */
std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** The result line, with every digit of each value. */
std::string
resultLine(const RunOutcome &outcome, bool trace)
{
    std::string line = "{\"correct\": ";
    line += outcome.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(outcome.attempted);
    line += ", \"failed\": " + std::to_string(outcome.failed);
    line += ", \"metrics\": {";
    const auto &metrics = trace ? outcome.perLayer : outcome.endToEnd;
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
        line += (i ? ", " : "") + quoted(metrics[i].name) +
                ": {\"value\": " + value +
                ", \"unit\": " + quoted(metrics[i].unit) + "}";
    }
    return line + "}}";
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions options;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value after " + flag).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            options.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value, &end, 10);
            haveSeed = end && *end == '\0';
        } else if (flag == "--seconds") {
            options.seconds =
                static_cast<int>(std::strtol(value, &end, 10));
            haveSeconds = end && *end == '\0' && options.seconds >= 1 &&
                          options.seconds <= 600;
        } else if (flag == "--trace") {
            haveTrace = std::strcmp(value, "0") == 0 ||
                        std::strcmp(value, "1") == 0;
            options.trace = std::strcmp(value, "1") == 0;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
        return usage("--workload, --seed, --seconds (1..600) and "
                     "--trace (0|1) are all required");
    bool known = false;
    for (const std::string &name : workloadNames())
        known = known || name == options.workload;
    if (!known)
        return usage(("unknown workload " + options.workload).c_str());

    confineToCpus(kCpus);
    try {
        const HostSample start = HostSample::take();
        RunOutcome outcome = runWorkload(options);
        const HostSample end = HostSample::take();
        outcome.notes.set("run_quality", runQualityJson(start, end));
        for (const std::string &why : outcome.violations)
            std::printf("violation: %s\n", why.c_str());
        std::printf("notes: %s\n", outcome.notes.dump().c_str());
        std::printf("%s\n", resultLine(outcome, options.trace).c_str());
        std::fflush(stdout);
        return outcome.correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fleetbench: %s\n", e.what());
        return 2;
    }
}
