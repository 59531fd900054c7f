/** @file Observability-layer tests: stats registry, JSON round-trip,
 *  run reports, and the per-run event tracer (parity, golden
 *  ping-pong trace, CUST counts, and concurrent runs sharing one
 *  trace file). */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "apps/app_runner.hh"
#include "compiler/rewriter.hh"
#include "isa/assembler.hh"
#include "obs/json.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"

namespace stitch::obs
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

/** Load/run the 2-tile ping-pong of test_system.cc. */
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

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(Registry, PathsAreUnique)
{
    Registry registry;
    StatGroup a, b;
    registry.add("tile0.core", a);
    EXPECT_THROW(registry.add("tile0.core", b), FatalError);
    EXPECT_THROW(registry.add("", a), FatalError);
    EXPECT_EQ(registry.size(), 1u);
    EXPECT_EQ(registry.find("tile0.core"), &a);
    EXPECT_EQ(registry.find("tile0.dcache"), nullptr);

    registry.remove("tile0.core");
    EXPECT_EQ(registry.find("tile0.core"), nullptr);
    registry.add("tile0.core", b); // path free again after remove
}

TEST(Registry, JsonDumpRoundTrip)
{
    Registry registry;
    StatGroup core, dcache, noc;
    core.counter("instructions") = 1234;
    core.counter("idle") = 0;
    dcache.counter("misses") = 7;
    noc.counter("packets") = 99;
    registry.add("tile3.core", core);
    registry.add("tile3.dcache", dcache);
    registry.add("noc", noc);

    Json parsed = Json::parse(registry.toJson().dump(2));
    EXPECT_EQ(parsed.get("tile3").get("core").get("instructions")
                  .asUint(),
              1234u);
    EXPECT_EQ(parsed.get("tile3").get("core").get("idle").asUint(),
              0u);
    EXPECT_EQ(parsed.get("tile3").get("dcache").get("misses").asUint(),
              7u);
    EXPECT_EQ(parsed.get("noc").get("packets").asUint(), 99u);

    Json skipped = Json::parse(registry.toJson(true).dump());
    EXPECT_FALSE(skipped.get("tile3").get("core").has("idle"));
}

TEST(Report, RoundTripCarriesBreakdownAndLoadedFlags)
{
    sim::SystemParams params;
    params.accel = sim::AccelMode::None;
    sim::System system(params);
    auto stats = runPingPong(system);

    Json parsed = Json::parse(
        sim::runReport(stats, &system.registry()).dump(2));
    EXPECT_EQ(parsed.get("schema").asString(), "stitch-run-report");
    EXPECT_EQ(parsed.get("version").asUint(),
              static_cast<std::uint64_t>(sim::runReportVersion));
    EXPECT_EQ(parsed.get("totals").get("makespan_cycles").asUint(),
              stats.makespan);
    EXPECT_EQ(parsed.get("totals").get("messages").asUint(), 2u);

    // Loaded tiles carry the stall breakdown; unloaded tiles carry
    // only their loaded=false marker (and zero utilization).
    const Json &tiles = parsed.get("tiles");
    ASSERT_EQ(tiles.size(), static_cast<std::size_t>(numTiles));
    EXPECT_TRUE(tiles.at(0).get("loaded").asBool());
    EXPECT_TRUE(tiles.at(0).has("recv_wait_cycles"));
    EXPECT_EQ(tiles.at(0).get("msgs_sent").asUint(), 1u);
    EXPECT_FALSE(tiles.at(2).get("loaded").asBool());
    EXPECT_FALSE(tiles.at(2).has("cycles"));
    EXPECT_EQ(stats.perTile[2].utilization(stats.makespan), 0.0);

    // The embedded registry dump matches the report's own numbers.
    EXPECT_EQ(parsed.get("stats").get("noc").get("packets").asUint(),
              2u);
}

TEST(Report, AggregatesExcludeUnloadedTiles)
{
    sim::SystemParams params;
    params.accel = sim::AccelMode::None;
    sim::System system(params);
    auto stats = runPingPong(system);

    std::uint64_t loadedInstructions = 0;
    for (const auto &ts : stats.perTile)
        if (ts.loaded)
            loadedInstructions += ts.instructions;
    EXPECT_EQ(stats.instructions, loadedInstructions);
    EXPECT_GT(stats.instructions, 0u);
}

TEST(Tracer, OnOffParity)
{
    sim::SystemParams params;
    params.accel = sim::AccelMode::None;

    sim::System off(params);
    auto offStats = runPingPong(off);

    std::string path = testing::TempDir() + "parity_trace.json";
    sim::RunStats onStats;
    {
        Tracer tracer(path);
        params.tracer = &tracer;
        sim::System on(params);
        onStats = runPingPong(on);
    }
    std::remove(path.c_str());

    EXPECT_EQ(onStats.makespan, offStats.makespan);
    EXPECT_EQ(onStats.instructions, offStats.instructions);
    EXPECT_EQ(onStats.messages, offStats.messages);
    for (int t = 0; t < numTiles; ++t) {
        auto i = static_cast<std::size_t>(t);
        EXPECT_EQ(onStats.perTile[i].cycles, offStats.perTile[i].cycles)
            << "tile " << t;
        EXPECT_EQ(onStats.perTile[i].recvWaitCycles,
                  offStats.perTile[i].recvWaitCycles)
            << "tile " << t;
    }
}

TEST(Tracer, PingPongGoldenEvents)
{
    std::string path = testing::TempDir() + "pingpong_trace.json";
    {
        Tracer tracer(path);
        sim::SystemParams params;
        params.accel = sim::AccelMode::None;
        params.tracer = &tracer;
        sim::System system(params);
        runPingPong(system);
    }

    Json doc = Json::parse(slurp(path));
    std::remove(path.c_str());
    const Json &events = doc.get("traceEvents");

    // The golden event sequence of the 2-tile ping-pong: both sides
    // send once and receive once, and both packets cross the NoC.
    int sends[2] = {0, 0}, recvs[2] = {0, 0}, pkts = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const Json &e = events.at(i);
        const std::string &name = e.get("name").asString();
        auto tid = e.get("tid").asUint();
        if (name == "SEND" && tid < 2)
            ++sends[tid];
        if (name == "RECV" && tid < 2)
            ++recvs[tid];
        if (name == "pkt" && e.get("pid").asUint() == Tracer::pidNoc)
            ++pkts;
        if (name == "SEND" && tid == 0) {
            // tile0's SEND carries its destination and tag.
            EXPECT_EQ(e.get("args").get("dst").asUint(), 1u);
            EXPECT_EQ(e.get("args").get("tag").asUint(), 0u);
        }
    }
    EXPECT_EQ(sends[0], 1);
    EXPECT_EQ(sends[1], 1);
    EXPECT_EQ(recvs[0], 1);
    EXPECT_EQ(recvs[1], 1);
    EXPECT_EQ(pkts, 2);
}

/**
 * Abnormal terminations must leave a loadable trace even when the
 * harness never destroys its Tracer: the simulator flushes a
 * provisional tail on deadlock / instruction-limit exits. Regression
 * test for traces truncated by dying harnesses.
 */
TEST(Tracer, DeadlockedRunFlushesAValidTrace)
{
    std::string path = testing::TempDir() + "deadlock_trace.json";
    Json doc;
    {
        Tracer tracer(path);

        // tile0 RECVs from tile1, which never sends: guaranteed
        // deadlock.
        Assembler a("stuck");
        a.li(t1, 1);
        a.recv(t2, t1, 0);
        a.halt();
        sim::SystemParams params;
        params.accel = sim::AccelMode::None;
        params.tracer = &tracer;
        sim::System system(params);
        system.loadProgram(0, wrap(a.finish()));
        auto stats = system.run();
        ASSERT_EQ(stats.termination, fault::Termination::Deadlock);

        // Parse the file as-is — the tracer still open, as if the
        // process died.
        doc = Json::parse(slurp(path));
        EXPECT_GT(doc.get("traceEvents").size(), 0u);
    }

    // A clean close afterwards must still produce a valid document.
    Json closed = Json::parse(slurp(path));
    EXPECT_EQ(closed.get("traceEvents").size(),
              doc.get("traceEvents").size());
    std::remove(path.c_str());
}

TEST(Tracer, InstructionLimitRunFlushesAValidTrace)
{
    std::string path = testing::TempDir() + "limit_trace.json";
    Json doc;
    {
        Tracer tracer(path);
        sim::SystemParams params;
        params.accel = sim::AccelMode::None;
        params.tracer = &tracer;
        sim::System system(params);
        auto stats = [&] {
            Assembler a("ping");
            a.li(t0, 42);
            a.li(t1, 1);
            a.send(t0, t1, 0);
            a.recv(t2, t1, 0);
            a.halt();
            Assembler b("pong");
            b.li(t1, 0);
            b.recv(t2, t1, 0);
            b.send(t2, t1, 0);
            b.halt();
            system.loadProgram(0, wrap(a.finish()));
            system.loadProgram(1, wrap(b.finish()));
            return system.run(3); // budget far below completion
        }();
        ASSERT_EQ(stats.termination,
                  fault::Termination::InstructionLimit);

        doc = Json::parse(slurp(path));
        EXPECT_GE(doc.get("traceEvents").size(), 1u);

        // The provisional tail must not break subsequent recording:
        // a completed run appends its events after the retracted
        // tail.
        sim::System more(params);
        runPingPong(more);
    }
    Json final = Json::parse(slurp(path));
    EXPECT_GT(final.get("traceEvents").size(),
              doc.get("traceEvents").size());
    std::remove(path.c_str());
}

/** Trace one Stitch-mode run of `app` through `runner` into `path`
 *  (both of its simulations, `samplesShort` then `samplesLong`). */
apps::AppRunResult
traceAppRun(apps::AppRunner &runner, const apps::AppSpec &app,
            const std::string &path, int samplesShort, int samplesLong)
{
    Tracer tracer(path);
    apps::RunConfig cfg = runner.config();
    cfg.tracer = &tracer;
    cfg.samplesShort = samplesShort;
    cfg.samplesLong = samplesLong;
    return runner.run(app, apps::AppMode::Stitch, cfg);
}

/**
 * The exec slices carry what the per-CUST instants used to: summed
 * over a tile's track, `custs` is the tile's custom_instructions and
 * `fused` its fused ones.
 */
TEST(Tracer, ExecSlicesCountEveryCust)
{
    apps::AppRunner runner(2, 4);
    const auto app = apps::app3SvmEncrypt();
    std::string path = testing::TempDir() + "cust_trace.json";
    // The trace holds both simulations: 2 samples, then 4.
    auto res = traceAppRun(runner, app, path, 2, 4);
    apps::RunConfig cfg = runner.config();
    cfg.samplesShort = 1;
    cfg.samplesLong = 2;
    auto twoSamples = runner.run(app, apps::AppMode::Stitch, cfg).stats;
    ASSERT_GT(res.stats.fusedCustomInstructions, 0u);

    Json doc = Json::parse(slurp(path));
    std::remove(path.c_str());
    const Json &events = doc.get("traceEvents");
    std::array<std::uint64_t, numTiles> custs{}, fused{};
    for (std::size_t i = 0; i < events.size(); ++i) {
        const Json &e = events.at(i);
        if (e.get("name").asString() != "exec")
            continue;
        auto tid = static_cast<std::size_t>(e.get("tid").asUint());
        custs[tid] += e.get("args").get("custs").asUint();
        fused[tid] += e.get("args").get("fused").asUint();
    }
    for (std::size_t t = 0; t < custs.size(); ++t) {
        const auto &a = twoSamples.perTile[t];
        const auto &b = res.stats.perTile[t];
        EXPECT_EQ(custs[t], a.customInstructions + b.customInstructions)
            << "tile " << t;
        EXPECT_EQ(fused[t], a.fusedCustomInstructions +
                                b.fusedCustomInstructions)
            << "tile " << t;
    }
}

/**
 * Compiling a kernel measures it on a standalone core, which must not
 * write to the run's trace: a run with a cold kernel cache traces the
 * same bytes as a warm one.
 */
TEST(Tracer, CompilerRunsStayOutOfTheTrace)
{
    apps::AppRunner runner(2, 4);
    const auto app = apps::app3SvmEncrypt();
    std::string cold = testing::TempDir() + "cold_trace.json";
    std::string warm = testing::TempDir() + "warm_trace.json";
    traceAppRun(runner, app, cold, 2, 4);
    traceAppRun(runner, app, warm, 2, 4);
    EXPECT_EQ(slurp(cold), slurp(warm));
    std::remove(cold.c_str());
    std::remove(warm.c_str());
}

/** Every event line of a trace file, sorted (order-free compare). */
std::vector<std::string>
sortedEventLines(const std::string &path)
{
    std::istringstream in(slurp(path));
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("{\"name\"", 0) != 0)
            continue; // document head and tail
        if (line.back() == ',')
            line.pop_back();
        lines.push_back(line);
    }
    std::sort(lines.begin(), lines.end());
    return lines;
}

/** Ping-pong `rounds` messages between tiles `a` and `b`. */
sim::RunStats
runRounds(sim::System &system, TileId a, TileId b, int rounds)
{
    Assembler ping("ping");
    ping.li(t1, b);
    ping.li(t4, rounds);
    auto pingLoop = ping.newLabel();
    ping.bind(pingLoop);
    ping.send(t0, t1, 0);
    ping.recv(t0, t1, 0);
    ping.addi(t4, t4, -1);
    ping.bne(t4, zero, pingLoop);
    ping.halt();

    Assembler pong("pong");
    pong.li(t1, a);
    pong.li(t4, rounds);
    auto pongLoop = pong.newLabel();
    pong.bind(pongLoop);
    pong.recv(t2, t1, 0);
    pong.addi(t2, t2, 1);
    pong.send(t2, t1, 0);
    pong.addi(t4, t4, -1);
    pong.bne(t4, zero, pongLoop);
    pong.halt();

    system.loadProgram(a, wrap(ping.finish()));
    system.loadProgram(b, wrap(pong.finish()));
    return system.run();
}

/** Four ping-pong runs on distinct tile pairs over `jobs` workers,
 *  all tracing into one file; returns its sorted event lines. */
std::vector<std::string>
traceFourRuns(int jobs, const std::string &path)
{
    const std::array<std::pair<TileId, TileId>, 4> pairs = {
        {{0, 1}, {2, 7}, {5, 10}, {15, 12}}};
    {
        Tracer tracer(path);
        sim::SweepRunner sweep(jobs);
        EXPECT_EQ(sweep.jobs(), jobs); // tracing never forces serial
        auto stats = sweep.map(4, [&](int i) {
            sim::SystemParams params;
            params.accel = sim::AccelMode::None;
            params.tracer = &tracer;
            sim::System system(params);
            const auto &[a, b] = pairs[static_cast<std::size_t>(i)];
            return runRounds(system, a, b, 200);
        });
        for (const auto &s : stats)
            EXPECT_EQ(s.termination, fault::Termination::Completed);
    }
    auto lines = sortedEventLines(path);
    std::remove(path.c_str());
    return lines;
}

TEST(SweepRunner, ConcurrentRunsShareOneTracer)
{
    auto serial =
        traceFourRuns(1, testing::TempDir() + "serial_trace.json");
    auto parallel =
        traceFourRuns(4, testing::TempDir() + "parallel_trace.json");
    EXPECT_GT(serial.size(), 4u * 800u);
    EXPECT_EQ(serial, parallel);
}

} // namespace
} // namespace stitch::obs
