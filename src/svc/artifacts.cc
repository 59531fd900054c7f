#include "svc/artifacts.hh"

#include "prof/profile.hh"
#include "sim/report.hh"

namespace stitch::svc
{

obs::Json
appReportJson(const apps::AppRunResult &res,
              const ReportOptions &options)
{
    obs::Json doc = sim::runReport(res.stats);
    if (!res.statsDump.isNull())
        doc.set("stats", res.statsDump);
    if (options.profile) {
        auto profile = prof::buildProfile(
            res.stats, res.stageBindings,
            static_cast<std::uint64_t>(res.samplesLong));
        doc.set("profile", prof::profileJson(profile));
        if (auto timeline = prof::samplerTimelineJson(res.timeline);
            !timeline.isNull())
            doc.set("profile_timeline", timeline);
    }
    if (options.energy) {
        auto model = power::EnergyModel::standard();
        double pj = prof::runEnergyPj(model, res.stats);
        obs::Json energy = obs::Json::object();
        energy.set("total_energy_pj", pj);
        energy.set("avg_power_mw",
                   power::averagePowerMw(
                       pj, static_cast<double>(res.stats.makespan)));
        doc.set("energy", energy);
    }
    return doc;
}

obs::Json
derivedJson(const apps::AppRunResult &res)
{
    obs::Json j = obs::Json::object();
    j.set("termination",
          fault::terminationName(res.stats.termination));
    j.set("per_sample_cycles", res.perSampleCycles());
    j.set("samples_long", res.samplesLong);
    if (res.hasPlan) {
        int fused = 0, single = 0, software = 0;
        for (const auto &p : res.plan.placements) {
            if (!p.accel)
                ++software;
            else if (p.accel->type ==
                     compiler::AccelTarget::Type::FusedPair)
                ++fused;
            else
                ++single;
        }
        j.set("bottleneck_cycles", res.plan.bottleneckCycles());
        j.set("fused", fused);
        j.set("single", single);
        j.set("software", software);
        j.set("stitch_plan", sim::stitchPlanJson(res.plan));
    }
    return j;
}

} // namespace stitch::svc
