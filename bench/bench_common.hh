/**
 * @file
 * Shared helpers for the table/figure harnesses: compiled-kernel and
 * application-run caching, and paper-vs-measured formatting.
 *
 * Every harness prints the rows of one paper artifact. Absolute
 * numbers are not expected to match the paper (our substrate is a
 * purpose-built simulator with synthetic kernels, not the authors'
 * gem5+RTL testbed); the *shape* — who wins and by roughly what
 * factor — is the reproduction target. Rows sourced directly from the
 * paper are marked "(paper)".
 */

#ifndef STITCH_BENCH_BENCH_COMMON_HH
#define STITCH_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "apps/app_runner.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "kernels/catalog.hh"
#include "obs/cli.hh"
#include "power/power_model.hh"
#include "prof/profile.hh"
#include "prof/speedscope.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"
#include "svc/artifacts.hh"

namespace stitch::bench
{

/** Observability switches shared by every bench invocation. */
inline obs::CliOptions &
obsFlags()
{
    static obs::CliOptions flags;
    return flags;
}

/** Schema of the --json metrics document every bench can emit. */
inline constexpr const char *benchJsonSchema = "stitch-bench";
inline constexpr int benchJsonVersion = 1;

/** This invocation's --json=PATH (empty: no metrics file). */
inline std::string &
benchJsonPath()
{
    static std::string path;
    return path;
}

/** Bench name stamped into the metrics document (argv[0] basename). */
inline std::string &
benchName()
{
    static std::string name = "bench";
    return name;
}

/** Flat name -> value metric map collected over the bench's run. */
inline obs::Json &
benchMetrics()
{
    static obs::Json metrics = obs::Json::object();
    return metrics;
}

/**
 * Record one headline metric of the bench (a boost, a makespan, a
 * mW figure). Metrics land in the --json document that the
 * bench-trajectory harness (tools/trajectory.cc) aggregates and
 * tools/report_diff compares across revisions; without --json the
 * call is a cheap map insert.
 */
inline void
recordMetric(const std::string &name, obs::Json value)
{
    benchMetrics().set(name, std::move(value));
}

/** Write the --json metrics document, if a path was given. */
inline void
writeBenchJson()
{
    if (benchJsonPath().empty())
        return;
    obs::Json doc = obs::Json::object();
    doc.set("schema", benchJsonSchema);
    doc.set("version", benchJsonVersion);
    doc.set("bench", benchName());
    doc.set("metrics", benchMetrics());
    obs::writeJsonFile(benchJsonPath(), doc);
}

/** The shared --json/--jobs/--scheduler/--out flags (common/cli.hh);
 *  initObs() feeds every argv entry through them first. */
inline cli::CommonFlags &
commonFlags()
{
    static cli::CommonFlags flags;
    return flags;
}

/** Consume a --json=PATH argument; true iff it was one. */
inline bool
parseJsonFlag(const char *arg)
{
    return cli::keyedValue(arg, "--json=", &benchJsonPath());
}

/**
 * Worker count for scenario sweeps (--jobs=N, default 1). Benches
 * hand it to sim::SweepRunner or the job engine; tracing and
 * profiling are per run, so any count works with them. --jobs=0
 * means one worker per hardware thread.
 */
inline int &
jobsFlag()
{
    static int jobs = 1;
    return jobs;
}

/**
 * System scheduler selected on the command line (--scheduler=step|
 * slice|compiled; default slice). All three are bit-identical; step
 * is the single-instruction reference — the escape hatch for
 * debugging the run-ahead paths, and the baseline of the
 * sched_parity_is_exact differential test.
 */
inline sim::SchedulerKind &
schedulerFlag()
{
    static sim::SchedulerKind kind = sim::SchedulerKind::Slice;
    return kind;
}

/** Consume a --scheduler=NAME argument; true iff it was one. */
inline bool
parseSchedulerFlag(const char *arg)
{
    std::string name;
    if (!cli::keyedValue(arg, "--scheduler=", &name))
        return false;
    schedulerFlag() = sim::schedulerKindFromName(name);
    return true;
}

/** Write the --report/--stats artifacts describing app run `res`. */
inline void
writeObsArtifacts(const apps::AppRunResult &res)
{
    const auto &flags = obsFlags();
    bool wantProfile =
        flags.profile || !flags.speedscopePath.empty();
    if (!flags.reportPath.empty()) {
        svc::ReportOptions options;
        options.profile = wantProfile;
        obs::writeJsonFile(flags.reportPath,
                           svc::appReportJson(res, options));
    }
    if (!flags.statsPath.empty())
        obs::writeJsonFile(flags.statsPath, res.statsDump);
    if (!flags.speedscopePath.empty())
        prof::writeSpeedscope(
            flags.speedscopePath,
            prof::buildProfile(
                res.stats, res.stageBindings,
                static_cast<std::uint64_t>(res.samplesLong)),
            res.timeline);
}

/**
 * First call of every bench main(): pick up the observability
 * switches (--trace/--report/--stats/--profile/--speedscope/
 * --verbose) plus the metrics sink (--json=PATH; other args are
 * ignored) and apply them. inform() is silent unless --verbose, so
 * benches no longer hand-disable status output. The report/stats/
 * profile files describe the last application run the bench
 * performed; the --json document carries every recordMetric() call.
 */
inline void
initObs(int argc, char **argv)
{
    if (argc > 0) {
        std::string path = argv[0];
        auto slash = path.find_last_of('/');
        benchName() = slash == std::string::npos
                          ? path
                          : path.substr(slash + 1);
    }
    for (int i = 1; i < argc; ++i) {
        if (commonFlags().parse(argv[i]))
            continue;
        obsFlags().parse(argv[i]);
    }
    benchJsonPath() = commonFlags().jsonPath;
    jobsFlag() = cli::resolveJobs(commonFlags().jobs);
    if (!commonFlags().scheduler.empty())
        schedulerFlag() =
            sim::schedulerKindFromName(commonFlags().scheduler);
    obsFlags().begin();
    // Touch every static the exit handler reads *before* registering
    // it: function-local statics constructed after std::atexit are
    // destroyed before the handler runs (reverse order), which made
    // writeBenchJson() read a dead metrics map. The --trace document
    // closes when obsFlags() is destroyed, after the handler.
    benchJsonPath();
    benchMetrics();
    std::atexit(writeBenchJson);
}

/** Kernel list of the Fig. 11 study, in display order. */
inline const std::vector<std::string> &
fig11Kernels()
{
    static const std::vector<std::string> kernels = {
        "fft",  "ifft",   "fir",    "filter",    "update", "conv2d",
        "sobel", "pooling", "matmul", "fc",       "dtw",    "aes",
        "histogram", "svm", "astar", "crc",
        "viterbi", "kmeans", "iir"};
    return kernels;
}

/** Compile-once cache of standalone kernels. */
inline const compiler::CompiledKernel &
compiledKernel(const std::string &name)
{
    static std::map<std::string,
                    std::unique_ptr<compiler::CompiledKernel>>
        cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
        auto input = kernels::kernelByName(name).build({});
        it = cache
                 .emplace(name,
                          std::make_unique<compiler::CompiledKernel>(
                              compiler::compileKernel(name, input)))
                 .first;
    }
    return *it->second;
}

/** Shared application runner (compilations cached across calls). */
inline apps::AppRunner &
appRunner()
{
    static apps::AppRunner runner(4, 12);
    // The flag may be parsed after the first use constructs the
    // static; re-applying it per access keeps them in sync cheaply.
    runner.setScheduler(schedulerFlag());
    return runner;
}

/**
 * `runner`'s setter-configured state as a RunConfig that also carries
 * this invocation's --trace tracer and --profile=N interval.
 */
inline apps::RunConfig
runConfig(const apps::AppRunner &runner)
{
    apps::RunConfig cfg = runner.config();
    cfg.tracer = obsFlags().tracer();
    cfg.profileInterval = obsFlags().profileInterval;
    return cfg;
}

/** Application run cache keyed by (app, mode). */
inline const apps::AppRunResult &
appResult(const apps::AppSpec &app, apps::AppMode mode)
{
    static std::map<std::string, apps::AppRunResult> cache;
    std::string key =
        app.name + "/" + apps::appModeName(mode);
    auto it = cache.find(key);
    if (it == cache.end()) {
        apps::AppRunner &runner = appRunner();
        it = cache.emplace(key, runner.run(app, mode, runConfig(runner)))
                 .first;
        writeObsArtifacts(it->second);
    }
    return it->second;
}

/** Throughput boost of `mode` over the baseline for `app`. */
inline double
appBoost(const apps::AppSpec &app, apps::AppMode mode)
{
    return appResult(app, apps::AppMode::Baseline).perSampleCycles() /
           appResult(app, mode).perSampleCycles();
}

inline void
printHeader(const char *artifact, const char *caption)
{
    std::printf("================================================="
                "=============\n");
    std::printf("%s — %s\n", artifact, caption);
    std::printf("================================================="
                "=============\n");
}

} // namespace stitch::bench

#endif // STITCH_BENCH_BENCH_COMMON_HH
