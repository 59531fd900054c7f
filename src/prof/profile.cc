#include "prof/profile.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/sampler.hh"

namespace stitch::prof
{

double
tileEnergyPj(const power::EnergyModel &m, const sim::TileStats &ts,
             Cycles makespan)
{
    if (!ts.loaded)
        return 0.0; // unloaded tiles are clock-gated
    auto b = sim::cycleBuckets(ts);
    auto at = [&](sim::CycleBucket k) {
        return static_cast<double>(b[static_cast<std::size_t>(k)]);
    };
    double pj = m.tileIdlePj * static_cast<double>(makespan);
    pj += m.issueExtraPj * (at(sim::CycleBucket::Issue) +
                            at(sim::CycleBucket::CustExecute));
    pj += m.stallExtraPj * (at(sim::CycleBucket::CacheMiss) +
                            at(sim::CycleBucket::Spm));
    pj += m.blockedExtraPj * (at(sim::CycleBucket::SendBlocked) +
                              at(sim::CycleBucket::RecvBlocked));
    pj += m.custPj * static_cast<double>(ts.customInstructions);
    pj += m.fusedExtraPj *
          static_cast<double>(ts.fusedCustomInstructions);
    pj += m.snocHopPj * static_cast<double>(ts.snocHops);
    pj += m.nocPacketPj * static_cast<double>(ts.msgsSent);
    return pj;
}

double
runEnergyPj(const power::EnergyModel &m, const sim::RunStats &stats)
{
    double pj = 0.0;
    for (TileId t = 0; t < numTiles; ++t)
        pj += tileEnergyPj(
            m, stats.perTile[static_cast<std::size_t>(t)],
            stats.makespan);
    return pj;
}

Profile
buildProfile(
    const sim::RunStats &stats,
    const std::vector<std::pair<std::string, TileId>> &stageBindings,
    std::uint64_t itemsPerStage, const power::EnergyModel &model)
{
    Profile p;
    p.makespan = stats.makespan;
    p.model = model;

    for (TileId t = 0; t < numTiles; ++t) {
        const sim::TileStats &ts =
            stats.perTile[static_cast<std::size_t>(t)];
        if (!ts.loaded)
            continue;
        TileProfile tp;
        tp.tile = t;
        tp.cycles = ts.cycles;
        tp.buckets = sim::cycleBuckets(ts);
        Cycles sum = 0;
        for (Cycles c : tp.buckets)
            sum += c;
        // The whole layer rests on this: the buckets are a partition
        // of local time, not an approximation of it.
        STITCH_ASSERT(sum == ts.cycles,
                      "cycle buckets do not sum to tile time");
        tp.idleCycles = stats.makespan - ts.cycles;
        tp.energyPj = tileEnergyPj(model, ts, stats.makespan);
        tp.avgPowerMw = power::averagePowerMw(
            tp.energyPj, static_cast<double>(stats.makespan));
        for (const auto &[name, tile] : stageBindings)
            if (tile == t)
                tp.stage = tp.stage.empty() ? name
                                            : tp.stage + "+" + name;
        p.tiles.push_back(std::move(tp));
    }

    for (const auto &[name, tile] : stageBindings) {
        const sim::TileStats &ts =
            stats.perTile[static_cast<std::size_t>(tile)];
        StageProfile sp;
        sp.name = name;
        sp.tile = tile;
        sp.cycles = ts.cycles;
        sp.buckets = sim::cycleBuckets(ts);
        if (itemsPerStage > 0 && ts.cycles > 0)
            sp.throughputItemsPer1kCycles =
                static_cast<double>(itemsPerStage) * 1000.0 /
                static_cast<double>(ts.cycles);
        sp.energyPj = tileEnergyPj(model, ts, stats.makespan);
        p.stages.push_back(std::move(sp));
    }
    if (!p.stages.empty()) {
        auto it = std::max_element(
            p.stages.begin(), p.stages.end(),
            [](const StageProfile &a, const StageProfile &b) {
                return a.cycles < b.cycles;
            });
        p.limitingStage =
            static_cast<int>(it - p.stages.begin());
        it->limiting = true;
        for (auto &sp : p.stages)
            sp.slackCycles = it->cycles - sp.cycles;
    }

    if (stats.makespan > 0)
        p.snocOccupancy = static_cast<double>(stats.snocHops) /
                          static_cast<double>(stats.makespan);
    p.totalEnergyPj = runEnergyPj(model, stats);
    p.avgPowerMw = power::averagePowerMw(
        p.totalEnergyPj, static_cast<double>(stats.makespan));
    return p;
}

namespace
{

obs::Json
bucketsJson(const std::array<Cycles, sim::numCycleBuckets> &b)
{
    obs::Json j = obs::Json::object();
    for (int i = 0; i < sim::numCycleBuckets; ++i)
        j.set(sim::cycleBucketName(static_cast<sim::CycleBucket>(i)),
              b[static_cast<std::size_t>(i)]);
    return j;
}

} // namespace

obs::Json
profileJson(const Profile &p)
{
    obs::Json doc = obs::Json::object();
    doc.set("makespan_cycles", p.makespan);
    doc.set("total_energy_pj", p.totalEnergyPj);
    doc.set("avg_power_mw", p.avgPowerMw);
    doc.set("snoc_occupancy", p.snocOccupancy);

    obs::Json tiles = obs::Json::array();
    for (const TileProfile &tp : p.tiles) {
        obs::Json tj = obs::Json::object();
        tj.set("tile", static_cast<std::uint64_t>(tp.tile));
        if (!tp.stage.empty())
            tj.set("stage", tp.stage);
        tj.set("cycles", tp.cycles);
        tj.set("idle_cycles", tp.idleCycles);
        tj.set("buckets", bucketsJson(tp.buckets));
        tj.set("energy_pj", tp.energyPj);
        tj.set("avg_power_mw", tp.avgPowerMw);
        tiles.push(tj);
    }
    doc.set("tiles", tiles);

    if (!p.stages.empty()) {
        obs::Json stages = obs::Json::array();
        for (const StageProfile &sp : p.stages) {
            obs::Json sj = obs::Json::object();
            sj.set("stage", sp.name);
            sj.set("tile", static_cast<std::uint64_t>(sp.tile));
            sj.set("cycles", sp.cycles);
            sj.set("slack_cycles", sp.slackCycles);
            sj.set("limiting", sp.limiting);
            if (sp.throughputItemsPer1kCycles > 0)
                sj.set("items_per_1k_cycles",
                       sp.throughputItemsPer1kCycles);
            sj.set("buckets", bucketsJson(sp.buckets));
            sj.set("energy_pj", sp.energyPj);
            stages.push(sj);
        }
        doc.set("stages", stages);
        doc.set("limiting_stage",
                p.stages[static_cast<std::size_t>(p.limitingStage)]
                    .name);
    }
    return doc;
}

obs::Json
samplerTimelineJson(const obs::Sampler &sampler)
{
    if (!sampler.hasData())
        return obs::Json();
    obs::Json doc = obs::Json::object();
    doc.set("interval_cycles", sampler.interval());
    obs::Json series = obs::Json::array();
    for (const std::string &name : sampler.seriesNames())
        series.push(name);
    doc.set("series", series);
    obs::Json tracks = obs::Json::object();
    for (const auto &[track, windows] : sampler.tracks()) {
        obs::Json wj = obs::Json::array();
        std::size_t nSeries = sampler.seriesNames().size();
        for (const auto &w : windows) {
            obs::Json row = obs::Json::array();
            for (std::size_t s = 0; s < nSeries; ++s)
                row.push(w.cycles[s]);
            wj.push(row);
        }
        tracks.set("tile" + std::to_string(track), wj);
    }
    doc.set("tracks", tracks);
    return doc;
}

} // namespace stitch::prof
