/**
 * @file
 * report_diff — compare two machine-readable artifacts (run reports,
 * stitch-bench metrics documents, or bench-trajectory aggregates) and
 * print a delta table of every numeric leaf they share.
 *
 * Usage:
 *   report_diff BASELINE.json CURRENT.json [--threshold=PCT]
 *
 * Exit status: 0 when no tracked metric regressed beyond the
 * threshold (default 5%), 1 when at least one did, 2 on usage or
 * parse errors — so CI can gate on a bench-trajectory run with a
 * plain `report_diff old.json new.json`.
 *
 * Regression direction is inferred from the metric name: cycles,
 * stalls, energy, power, CPU time, area, SLO burn rates, violation
 * and error-rate counts grow *worse* upward; boosts, speedups and
 * throughputs grow worse downward. Wall time (`*real_time*`) is
 * advisory: on a shared host it swings by tens of percent, so it is
 * printed next to the CPU time that gates but never gates itself.
 * Unrecognized metrics are reported but never gate.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/table.hh"
#include "obs/json.hh"

using namespace stitch;

namespace
{

/** Which direction of change is a regression for this metric. */
enum class Direction
{
    UpIsWorse,   ///< cycles, energy, stalls, latency, area
    DownIsWorse, ///< boosts, speedups, throughput
    Untracked,   ///< informational only; never gates
};

Direction
directionOf(const std::string &name)
{
    auto contains = [&](const char *needle) {
        return name.find(needle) != std::string::npos;
    };
    // "jobs_s" needs an exact leaf match: a substring test would
    // swallow "jobs_submitted" / "jobs_shed", which are counters,
    // not throughputs.
    auto leafIs = [&](const std::string &leaf) {
        if (name == leaf)
            return true;
        const std::string dotted = "." + leaf;
        return name.size() > dotted.size() &&
               name.compare(name.size() - dotted.size(),
                            dotted.size(), dotted) == 0;
    };
    // Wall time is advisory: micro_perf records "*/real_time_ns"
    // next to "*/cpu_time_ns", and only the CPU time gates (through
    // the "_ns" rule below).
    if (contains("real_time"))
        return Direction::Untracked;
    // Order matters: "cycles_per_sample" must match before any
    // throughput-ish token, and "perf_per_watt" is a ratio where
    // bigger is better even though it mentions power. "mips" also
    // covers "mips_compiled" (the translation-cached backend's
    // headline counter); keep the explicit token so the intent
    // survives a future tightening of the substring match.
    if (contains("boost") || contains("speedup") ||
        contains("perf_per_") || contains("throughput") ||
        contains("items_per") || contains("instr/s") ||
        contains("mips") || contains("mips_compiled") ||
        contains("_mhz") ||
        contains("utilization") || contains("hit_rate") ||
        leafIs("jobs_s"))
        return Direction::DownIsWorse;
    if (contains("cycle") || contains("_pj") || contains("_mw") ||
        contains("_ms") || contains("_ns") || contains("stall") ||
        contains("makespan") || contains("energy") ||
        contains("_um2") || contains("degradation") ||
        contains("failures") || contains("slack") ||
        contains("_p50") || contains("_p90") || contains("_p99") ||
        contains("burn_rate") || contains("burn_short") ||
        contains("burn_long") || contains("violations") ||
        contains("error_rate") || contains("failover") ||
        contains("reroute") || contains("remote_cache_errors") ||
        contains("unavailable") || contains("untyped"))
        return Direction::UpIsWorse;
    return Direction::Untracked;
}

/** Flatten every numeric leaf of `doc` into "a.b.c" -> value. */
void
flatten(const obs::Json &doc, const std::string &prefix,
        std::vector<std::pair<std::string, double>> *out)
{
    switch (doc.kind()) {
      case obs::Json::Kind::Int:
      case obs::Json::Kind::Double:
        out->emplace_back(prefix, doc.asDouble());
        break;
      case obs::Json::Kind::Object:
        for (const auto &[key, value] : doc.items())
            flatten(value, prefix.empty() ? key : prefix + "." + key,
                    out);
        break;
      case obs::Json::Kind::Array:
        for (std::size_t i = 0; i < doc.size(); ++i)
            flatten(doc.at(i), prefix + "[" + std::to_string(i) + "]",
                    out);
        break;
      default:
        break; // strings/bools/null carry no comparable number
    }
}

bool
loadFlat(const char *path,
         std::vector<std::pair<std::string, double>> *out)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "report_diff: cannot open '%s'\n", path);
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    flatten(obs::Json::parse(text.str()), "", out);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    double thresholdPct = 5.0;
    std::vector<const char *> files;
    for (int i = 1; i < argc; ++i) {
        constexpr const char *prefix = "--threshold=";
        if (std::strncmp(argv[i], prefix, std::strlen(prefix)) == 0)
            thresholdPct = std::atof(argv[i] + std::strlen(prefix));
        else
            files.push_back(argv[i]);
    }
    if (files.size() != 2) {
        std::fprintf(stderr,
                     "usage: report_diff BASELINE.json CURRENT.json "
                     "[--threshold=PCT]\n");
        return 2;
    }

    std::vector<std::pair<std::string, double>> base, cur;
    if (!loadFlat(files[0], &base) || !loadFlat(files[1], &cur))
        return 2;

    TextTable table({"metric", "baseline", "current", "delta",
                     "verdict"});
    int regressions = 0, compared = 0;
    for (const auto &[name, baseVal] : base) {
        auto it = std::find_if(cur.begin(), cur.end(),
                               [&](const auto &kv) {
                                   return kv.first == name;
                               });
        if (it == cur.end())
            continue;
        double curVal = it->second;
        ++compared;
        double deltaPct =
            baseVal == 0.0
                ? (curVal == 0.0 ? 0.0 : 100.0)
                : (curVal - baseVal) / std::fabs(baseVal) * 100.0;
        if (std::fabs(deltaPct) < 1e-9)
            continue; // unchanged rows only pad the table

        Direction dir = directionOf(name);
        bool regressed =
            (dir == Direction::UpIsWorse &&
             deltaPct > thresholdPct) ||
            (dir == Direction::DownIsWorse &&
             deltaPct < -thresholdPct);
        regressions += regressed;
        const char *verdict =
            regressed ? "REGRESSION"
                      : dir == Direction::Untracked ? "(untracked)"
                                                    : "ok";
        table.addRow({name, strformat("%.4g", baseVal),
                      strformat("%.4g", curVal),
                      strformat("%+.2f%%", deltaPct), verdict});
    }
    table.print();

    std::printf("\n%d metrics compared, %d regression%s beyond "
                "%.1f%%.\n",
                compared, regressions, regressions == 1 ? "" : "s",
                thresholdPct);
    return regressions ? 1 : 0;
}
