/** @file Profiling/attribution-layer tests: bucket exactness, the
 *  Fig. 13 energy anchors, analytic bottleneck diagnosis, sampler
 *  timeline conservation, and profiler-off determinism. */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "apps/app_runner.hh"
#include "compiler/rewriter.hh"
#include "isa/assembler.hh"
#include "obs/json.hh"
#include "obs/sampler.hh"
#include "power/power_model.hh"
#include "prof/profile.hh"
#include "prof/speedscope.hh"
#include "sim/system.hh"

namespace stitch::prof
{
namespace
{

using namespace isa::reg;
using isa::Assembler;

compiler::RewrittenProgram
wrap(isa::Program prog)
{
    compiler::RewrittenProgram binary;
    binary.program = std::move(prog);
    return binary;
}

/** The 2-tile ping-pong of test_system.cc / test_obs.cc. */
sim::RunStats
runPingPong(sim::System &system)
{
    Assembler a("ping");
    a.li(t0, 42);
    a.li(t1, 1);
    a.send(t0, t1, 0);
    a.recv(t2, t1, 0);
    a.li(t3, 0x2000);
    a.sw(t2, t3, 0);
    a.halt();

    Assembler b("pong");
    b.li(t1, 0);
    b.recv(t2, t1, 0);
    b.addi(t2, t2, 1);
    b.send(t2, t1, 0);
    b.halt();

    system.loadProgram(0, wrap(a.finish()));
    system.loadProgram(1, wrap(b.finish()));
    return system.run();
}

/**
 * A 2-stage producer/consumer pipeline with a known imbalance: the
 * producer fires `items` sends back to back while the consumer pays
 * extra ALU work per item, so the consumer analytically sets the
 * makespan and the producer's slack is their cycle difference.
 */
sim::RunStats
runTwoStagePipeline(sim::System &system, int items)
{
    Assembler p("producer");
    p.li(t0, 7);
    p.li(t1, 1); // consumer tile
    for (int i = 0; i < items; ++i)
        p.send(t0, t1, 0);
    p.halt();

    Assembler c("consumer");
    c.li(t1, 0); // producer tile
    for (int i = 0; i < items; ++i) {
        c.recv(t2, t1, 0);
        for (int j = 0; j < 6; ++j)
            c.addi(t3, t2, j); // per-item work: consumer dominates
    }
    c.halt();

    system.loadProgram(0, wrap(p.finish()));
    system.loadProgram(1, wrap(c.finish()));
    return system.run();
}

TEST(Buckets, PartitionTileTimeExactly)
{
    sim::SystemParams params;
    params.accel = sim::AccelMode::None;
    sim::System system(params);
    auto stats = runPingPong(system);

    for (int t = 0; t < numTiles; ++t) {
        const auto &ts = stats.perTile[static_cast<std::size_t>(t)];
        if (!ts.loaded)
            continue;
        auto b = sim::cycleBuckets(ts);
        Cycles sum = 0;
        for (Cycles c : b)
            sum += c;
        EXPECT_EQ(sum, ts.cycles) << "tile " << t;
    }
    // buildProfile() asserts the same invariant internally.
    EXPECT_NO_THROW(buildProfile(stats));
}

TEST(Buckets, NamesAreStableAndComplete)
{
    const auto &names = sim::cycleBucketNames();
    ASSERT_EQ(names.size(),
              static_cast<std::size_t>(sim::numCycleBuckets));
    EXPECT_EQ(names.front(), "issue");
    EXPECT_EQ(names.back(), "recv_blocked");
    for (int b = 0; b < sim::numCycleBuckets; ++b)
        EXPECT_EQ(names[static_cast<std::size_t>(b)],
                  sim::cycleBucketName(static_cast<sim::CycleBucket>(b)));
}

/**
 * The energy constants must reproduce Fig. 13 by construction: a chip
 * whose 16 tiles each issue every cycle dissipates the paper's
 * core-side power (139.5 mW minus the 23% accelerator share), and
 * adding one local CUST plus one sNoC hop per tile-cycle brings it to
 * exactly the full 139.5 mW.
 */
TEST(Energy, StandardModelReproducesFig13Anchors)
{
    auto m = power::EnergyModel::standard();
    const double cycles = 1e6;

    double coresPj =
        numTiles * (m.tileIdlePj + m.issueExtraPj) * cycles;
    EXPECT_NEAR(power::averagePowerMw(coresPj, cycles),
                power::baselinePowerMw(), 1e-6);

    double chipPj =
        coresPj + numTiles * (m.custPj + m.snocHopPj) * cycles;
    EXPECT_NEAR(power::averagePowerMw(chipPj, cycles),
                power::stitchTotalMw, 1e-6);

    // Sanity of the remaining derived constants.
    EXPECT_GT(m.stallExtraPj, 0.0);
    EXPECT_LT(m.stallExtraPj, m.issueExtraPj);
    EXPECT_GT(m.blockedExtraPj, 0.0);
    EXPECT_LT(m.blockedExtraPj, m.stallExtraPj);
    EXPECT_NEAR(m.fusedExtraPj, m.custPj * 0.5, 1e-12);
    EXPECT_GT(m.nocPacketPj, 0.0);
}

TEST(Energy, UnloadedTilesAreClockGated)
{
    sim::TileStats ts; // loaded == false
    auto m = power::EnergyModel::standard();
    EXPECT_EQ(tileEnergyPj(m, ts, 12345), 0.0);
}

/** Per-kernel rollup vs the counter-level total on APP1..APP4. */
TEST(Energy, StageRollupMatchesRunTotalOnAllApps)
{
    apps::AppRunner runner(2, 6);
    auto m = power::EnergyModel::standard();
    for (const auto &app : apps::allApps()) {
        auto r = runner.run(app, apps::AppMode::Stitch);
        auto p = buildProfile(r.stats, r.stageBindings,
                              static_cast<std::uint64_t>(r.samplesLong),
                              m);

        double independent = runEnergyPj(m, r.stats);
        ASSERT_GT(independent, 0.0) << app.name;
        EXPECT_NEAR(p.totalEnergyPj, independent,
                    independent * 1e-9)
            << app.name;

        // Stage energies price whole tiles; summing each bound tile
        // once must reproduce the total within 1% (Fig. 13 check).
        std::map<TileId, double> perTile;
        for (const auto &sp : p.stages)
            perTile[sp.tile] = sp.energyPj;
        double rollup = 0.0;
        for (const auto &[tile, pj] : perTile)
            rollup += pj;
        EXPECT_NEAR(rollup, independent, independent * 0.01)
            << app.name;

        // Average power sits between idle and the full-chip anchor.
        EXPECT_GT(p.avgPowerMw, 0.0) << app.name;
        EXPECT_LT(p.avgPowerMw, power::stitchTotalMw * 1.5)
            << app.name;
    }
}

TEST(Bottleneck, MatchesAnalyticTwoStagePipeline)
{
    const int items = 4;
    sim::SystemParams params;
    params.accel = sim::AccelMode::None;
    sim::System system(params);
    auto stats = runTwoStagePipeline(system, items);
    ASSERT_EQ(stats.termination, fault::Termination::Completed);

    const auto &producer = stats.perTile[0];
    const auto &consumer = stats.perTile[1];
    ASSERT_GT(consumer.cycles, producer.cycles);

    std::vector<std::pair<std::string, TileId>> bindings = {
        {"producer#0", 0}, {"consumer#1", 1}};
    auto p = buildProfile(stats, bindings,
                          static_cast<std::uint64_t>(items));

    ASSERT_EQ(p.stages.size(), 2u);
    ASSERT_GE(p.limitingStage, 0);
    EXPECT_EQ(p.stages[static_cast<std::size_t>(p.limitingStage)].name,
              "consumer#1");
    EXPECT_TRUE(p.stages[1].limiting);
    EXPECT_FALSE(p.stages[0].limiting);
    EXPECT_EQ(p.stages[1].slackCycles, 0u);
    EXPECT_EQ(p.stages[0].slackCycles,
              consumer.cycles - producer.cycles);
    EXPECT_DOUBLE_EQ(
        p.stages[1].throughputItemsPer1kCycles,
        static_cast<double>(items) * 1000.0 /
            static_cast<double>(consumer.cycles));

    // The consumer's wait shows up as RECV-blocked attribution.
    auto rb = static_cast<std::size_t>(sim::CycleBucket::RecvBlocked);
    EXPECT_EQ(p.stages[1].buckets[rb], consumer.recvWaitCycles);
}

TEST(ProfileJsonTest, CarriesTilesStagesAndLimiting)
{
    sim::SystemParams params;
    params.accel = sim::AccelMode::None;
    sim::System system(params);
    auto stats = runTwoStagePipeline(system, 4);

    std::vector<std::pair<std::string, TileId>> bindings = {
        {"producer#0", 0}, {"consumer#1", 1}};
    auto p = buildProfile(stats, bindings, 4);

    obs::Json doc = obs::Json::parse(profileJson(p).dump(2));
    EXPECT_EQ(doc.get("makespan_cycles").asUint(), stats.makespan);
    EXPECT_EQ(doc.get("limiting_stage").asString(), "consumer#1");
    EXPECT_GT(doc.get("total_energy_pj").asDouble(), 0.0);

    const obs::Json &tiles = doc.get("tiles");
    ASSERT_EQ(tiles.size(), 2u);
    for (std::size_t i = 0; i < tiles.size(); ++i) {
        const obs::Json &tj = tiles.at(i);
        const obs::Json &buckets = tj.get("buckets");
        std::uint64_t sum = 0;
        for (const auto &name : sim::cycleBucketNames())
            sum += buckets.get(name).asUint();
        EXPECT_EQ(sum, tj.get("cycles").asUint())
            << "tile " << tj.get("tile").asUint();
        EXPECT_EQ(tj.get("cycles").asUint() +
                      tj.get("idle_cycles").asUint(),
                  stats.makespan);
    }

    const obs::Json &stages = doc.get("stages");
    ASSERT_EQ(stages.size(), 2u);
    EXPECT_EQ(stages.at(0).get("stage").asString(), "producer#0");
    EXPECT_FALSE(stages.at(0).get("limiting").asBool());
    EXPECT_TRUE(stages.at(1).get("limiting").asBool());
}

TEST(Speedscope, DocumentIsStructurallyValid)
{
    sim::SystemParams params;
    params.accel = sim::AccelMode::None;
    sim::System system(params);
    auto stats = runPingPong(system);
    auto p = buildProfile(stats);

    obs::Json doc = obs::Json::parse(
        speedscopeDocument(p, obs::Sampler()).dump(2));
    EXPECT_EQ(doc.get("$schema").asString(),
              "https://www.speedscope.app/file-format-schema.json");
    const obs::Json &frames = doc.get("shared").get("frames");
    ASSERT_EQ(frames.size(),
              static_cast<std::size_t>(sim::numCycleBuckets));
    EXPECT_EQ(frames.at(0).get("name").asString(), "issue");

    const obs::Json &profiles = doc.get("profiles");
    ASSERT_EQ(profiles.size(), p.tiles.size());
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const obs::Json &pj = profiles.at(i);
        EXPECT_EQ(pj.get("type").asString(), "sampled");
        ASSERT_EQ(pj.get("samples").size(),
                  pj.get("weights").size());
        // Aggregate export: the weights are the tile's nonzero
        // buckets, so their sum is exactly the tile's local time.
        std::uint64_t sum = 0;
        for (std::size_t s = 0; s < pj.get("weights").size(); ++s)
            sum += pj.get("weights").at(s).asUint();
        EXPECT_EQ(sum, p.tiles[i].cycles);
        EXPECT_EQ(pj.get("endValue").asUint(), sum);
    }
}

/** With --profile on, window sums must conserve every bucket. */
TEST(SamplerTimeline, WindowSumsEqualAggregateBuckets)
{
    obs::Sampler sampler(64);
    sim::SystemParams params;
    params.accel = sim::AccelMode::None;
    params.sampler = &sampler;
    sim::System system(params);
    auto stats = runPingPong(system);

    ASSERT_TRUE(sampler.hasData());
    ASSERT_EQ(sampler.seriesNames(), sim::cycleBucketNames());

    for (const auto &[track, windows] : sampler.tracks()) {
        const auto &ts =
            stats.perTile[static_cast<std::size_t>(track)];
        ASSERT_TRUE(ts.loaded) << "track " << track;
        auto expect = sim::cycleBuckets(ts);
        for (int b = 0; b < sim::numCycleBuckets; ++b) {
            std::uint64_t sum = 0;
            for (const auto &w : windows)
                sum += w.cycles[static_cast<std::size_t>(b)];
            EXPECT_EQ(sum, expect[static_cast<std::size_t>(b)])
                << "tile " << track << " bucket " << b;
        }
    }

    obs::Json timeline =
        obs::Json::parse(samplerTimelineJson(sampler).dump(2));
    EXPECT_EQ(timeline.get("interval_cycles").asUint(), 64u);
    EXPECT_EQ(timeline.get("series").size(),
              static_cast<std::size_t>(sim::numCycleBuckets));
    EXPECT_TRUE(timeline.get("tracks").has("tile0"));
    EXPECT_TRUE(samplerTimelineJson(obs::Sampler()).isNull());
}

/** The profiler must observe, never perturb: stats are bit-identical
 *  with the sampler on and off. */
TEST(SamplerTimeline, EnabledRunIsBitIdenticalToDisabledRun)
{
    sim::SystemParams params;
    params.accel = sim::AccelMode::None;

    sim::System off(params);
    auto offStats = runPingPong(off);

    obs::Sampler sampler(128);
    params.sampler = &sampler;
    sim::System on(params);
    auto onStats = runPingPong(on);

    EXPECT_EQ(onStats.makespan, offStats.makespan);
    EXPECT_EQ(onStats.instructions, offStats.instructions);
    EXPECT_EQ(onStats.messages, offStats.messages);
    for (int t = 0; t < numTiles; ++t) {
        auto i = static_cast<std::size_t>(t);
        const auto &a = onStats.perTile[i];
        const auto &b = offStats.perTile[i];
        EXPECT_EQ(a.cycles, b.cycles) << "tile " << t;
        EXPECT_EQ(a.instructions, b.instructions) << "tile " << t;
        EXPECT_EQ(sim::cycleBuckets(a), sim::cycleBuckets(b))
            << "tile " << t;
    }
}

} // namespace
} // namespace stitch::prof
