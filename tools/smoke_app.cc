/**
 * @file
 * smoke_app — run every (or one matching) application under all four
 * architecture modes and print per-sample cycles and boosts.
 *
 * Usage:
 *   smoke_app [name-filter] [--scheduler=step|slice|compiled]
 *             [--trace=FILE] [--report=FILE] [--stats=FILE]
 *             [--profile[=N]] [--speedscope=FILE] [--dump-hot]
 *             [--dump-traces] [--verbose]
 *
 * --trace records the whole invocation; --report, --stats, --profile
 * and --speedscope describe the last application run executed (filter
 * to one app for a focused report, e.g. `smoke_app APP1
 * --report=r.json --profile`). --scheduler selects the simulator
 * scheduler (default: the event-driven slice scheduler; step is the
 * single-step reference, compiled the translation-cached backend —
 * all three produce identical results). --dump-hot prints the last
 * run's hottest basic blocks; --dump-traces prints its translated
 * micro-op traces (compiled scheduler only).
 */

#include <cstdio>
#include <string>

#include "apps/app_runner.hh"
#include "common/cli.hh"
#include "obs/cli.hh"
#include "prof/profile.hh"
#include "prof/speedscope.hh"
#include "svc/artifacts.hh"

using namespace stitch;

int
main(int argc, char **argv)
{
    obs::CliOptions obsOpts;
    cli::CommonFlags common;
    std::string filter;
    bool dumpHot = false;
    bool dumpTraces = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--dump-hot")
            dumpHot = true;
        else if (arg == "--dump-traces")
            dumpTraces = true;
        else if (!common.parse(argv[i]) && !obsOpts.parse(argv[i]))
            filter = arg;
    }
    sim::SchedulerKind scheduler =
        common.scheduler.empty()
            ? sim::SchedulerKind::Slice
            : sim::schedulerKindFromName(common.scheduler);
    obsOpts.begin();

    apps::AppRunner runner;
    runner.setScheduler(scheduler);
    apps::RunConfig runCfg = runner.config();
    runCfg.dumpTraces = dumpTraces;
    runCfg.tracer = obsOpts.tracer();
    runCfg.profileInterval = obsOpts.profileInterval;
    const apps::AppRunResult *last = nullptr;
    static apps::AppRunResult lastStorage;
    for (auto &app : apps::allApps()) {
        if (!filter.empty() &&
            app.name.find(filter) == std::string::npos)
            continue;
        double base = 0;
        for (auto mode :
             {apps::AppMode::Baseline, apps::AppMode::Locus,
              apps::AppMode::StitchNoFusion, apps::AppMode::Stitch}) {
            auto res = runner.run(app, mode, runCfg);
            if (mode == apps::AppMode::Baseline)
                base = res.perSampleCycles();
            std::printf(
                "%-14s %-18s perSample=%10.0f boost=%.2f msgs=%llu\n",
                app.name.c_str(), appModeName(mode),
                res.perSampleCycles(),
                base / res.perSampleCycles(),
                static_cast<unsigned long long>(res.stats.messages));
            std::fflush(stdout);
            if (mode == apps::AppMode::Stitch && res.hasPlan) {
                int fused = 0, single = 0;
                for (auto &p : res.plan.placements) {
                    if (!p.accel)
                        continue;
                    if (p.accel->type ==
                        compiler::AccelTarget::Type::FusedPair)
                        fused++;
                    else
                        single++;
                }
                std::printf("   plan: %d single, %d fused\n", single,
                            fused);
            }
            lastStorage = res;
            last = &lastStorage;
        }
    }

    if (last && dumpHot) {
        std::printf("hot blocks (last run):\n");
        for (const auto &hb : last->stats.hotBlocks)
            std::printf("  tile %2d  @w%-6u len=%-3u  %llu instrs\n",
                        hb.tile, static_cast<unsigned>(hb.pc),
                        static_cast<unsigned>(hb.length),
                        static_cast<unsigned long long>(
                            hb.instructions));
        std::fflush(stdout);
    }
    if (last && dumpTraces) {
        std::printf("%s", last->traceDump.c_str());
        std::fflush(stdout);
    }
    if (last) {
        bool wantProfile =
            obsOpts.profile || !obsOpts.speedscopePath.empty();
        if (!obsOpts.reportPath.empty()) {
            svc::ReportOptions options;
            options.profile = wantProfile;
            obs::writeJsonFile(obsOpts.reportPath,
                               svc::appReportJson(*last, options));
        }
        if (!obsOpts.statsPath.empty())
            obs::writeJsonFile(obsOpts.statsPath, last->statsDump);
        if (!obsOpts.speedscopePath.empty())
            prof::writeSpeedscope(
                obsOpts.speedscopePath,
                prof::buildProfile(
                    last->stats, last->stageBindings,
                    static_cast<std::uint64_t>(last->samplesLong)),
                last->timeline);
    }
    return 0;
}
