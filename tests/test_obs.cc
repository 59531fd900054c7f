/** @file Observability-layer tests: stats registry, JSON round-trip,
 *  run reports, and the per-run event tracer (parity, golden
 *  ping-pong trace, CUST counts, and concurrent runs sharing one
 *  trace file). Plus the JSON codec itself: the strict number
 *  grammar, printf-equivalent number formatting, seeded round-trip
 *  and mutation fuzzers, and the frozen (shared, copy-on-write)
 *  form. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <typeinfo>

#include "apps/app_runner.hh"
#include "common/rng.hh"
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

// ---------------------------------------------------------------- //
// JSON codec

/** A real run report: the 2-tile ping-pong's. */
Json
pingPongReport()
{
    sim::SystemParams params;
    params.accel = sim::AccelMode::None;
    sim::System system(params);
    auto stats = runPingPong(system);
    return sim::runReport(stats, &system.registry());
}

TEST(JsonNumbers, MinusAfterDigitsIsRejected)
{
    EXPECT_THROW(Json::parse("[1-2]"), FatalError);
}

TEST(JsonNumbers, ExponentWithoutDigitsIsRejected)
{
    EXPECT_THROW(Json::parse("[1e]"), FatalError);
}

TEST(JsonNumbers, SecondDecimalPointIsRejected)
{
    EXPECT_THROW(Json::parse("[1.2.3]"), FatalError);
}

TEST(JsonNumbers, LeadingPlusIsRejected)
{
    EXPECT_THROW(Json::parse("[+5]"), FatalError);
}

TEST(JsonNumbers, LeadingZeroIsRejected)
{
    EXPECT_THROW(Json::parse("[01]"), FatalError);
}

TEST(JsonNumbers, DoubleMinusThrowsFatalError)
{
    EXPECT_THROW(Json::parse("[--1]"), FatalError);
}

TEST(JsonNumbers, IntegerBeyondUint64ThrowsFatalError)
{
    EXPECT_THROW(Json::parse("[18446744073709551616]"), FatalError);
}

TEST(JsonNumbers, GrammarEdgesThatAreValidStillParse)
{
    EXPECT_EQ(Json::parse("18446744073709551615").asUint(),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(Json::parse("0").kind(), Json::Kind::Int);
    EXPECT_EQ(Json::parse("-0").kind(), Json::Kind::Double);
    EXPECT_TRUE(std::signbit(Json::parse("-0").asDouble()));
    EXPECT_EQ(Json::parse("1E+5").asDouble(), 1e5);
    EXPECT_EQ(Json::parse("-1.5e-3").asDouble(), -1.5e-3);
    EXPECT_EQ(Json::parse("0.25").asDouble(), 0.25);
    EXPECT_EQ(Json::parse("[ 7 , 8 ]").at(1).asUint(), 8u);
    EXPECT_THROW(Json::parse("1."), FatalError);
    EXPECT_THROW(Json::parse(".5"), FatalError);
    EXPECT_THROW(Json::parse("-"), FatalError);
    EXPECT_THROW(Json::parse("1e999"), FatalError);
    EXPECT_THROW(Json::parse("tru"), FatalError);
}

std::string
printfDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

std::string
printfUint(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

TEST(JsonCodec, NumbersFormatExactlyAsPrintf)
{
    std::vector<double> doubles = {
        0.0, -0.0, 1.0, -1.0, 0.1, 1e9, 1e-9, 123456789.0,
        1234567890.0, 0.5, 2.5, 1e21, 1e22, 5e-324, -5e-324,
        DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX, DBL_TRUE_MIN,
        std::nextafter(DBL_MIN, 0.0), 999999999.5, 9999999995.0};
    Rng rng(0x6a50cull);
    for (int i = 0; i < 100000; ++i) {
        std::uint64_t bits = rng.next();
        if (i % 4 == 1)
            bits &= 0x800fffffffffffffull; // subnormal or +-0
        double d;
        std::memcpy(&d, &bits, sizeof d);
        doubles.push_back(d);
    }
    std::size_t finite = 0;
    for (double d : doubles) {
        if (!std::isfinite(d)) {
            EXPECT_EQ(Json(d).dump(), "null");
            continue;
        }
        ++finite;
        ASSERT_EQ(Json(d).dump(), printfDouble(d)) << "bits of " << d;
    }
    EXPECT_GT(finite, 99000u);

    std::vector<std::uint64_t> ints = {
        0, 1, 9, 10, 99, 100, std::numeric_limits<std::uint64_t>::max(),
        std::numeric_limits<std::uint64_t>::max() - 1, 1ull << 63};
    for (int i = 0; i < 100000; ++i)
        ints.push_back(rng.next() >> (rng.next() % 64));
    for (std::uint64_t v : ints)
        ASSERT_EQ(Json(v).dump(), printfUint(v));
}

/** A random tree of every kind: nested containers, strings with
 *  escapes and control bytes, and numbers from random bit patterns. */
Json
randomTree(Rng &rng, int depth)
{
    const int pick = static_cast<int>(
        rng.range(0, depth > 0 ? 8 : 5));
    switch (pick) {
      case 0:
        return Json();
      case 1:
        return Json(rng.next() % 2 == 0);
      case 2:
        return Json(rng.next() >> rng.range(0, 63));
      case 3: {
        std::uint64_t bits = rng.next();
        if (rng.next() % 4 == 0)
            bits &= 0x800fffffffffffffull;
        double d;
        std::memcpy(&d, &bits, sizeof d);
        return Json(d);
      }
      case 4:
        return Json(rng.uniform() * 1e6 - 5e5);
      case 5: {
        std::string text;
        const int n = static_cast<int>(rng.range(0, 12));
        for (int i = 0; i < n; ++i)
            text.push_back(static_cast<char>(rng.range(1, 127)));
        return Json(text);
      }
      case 6: {
        Json arr = Json::array();
        const int n = static_cast<int>(rng.range(0, 5));
        for (int i = 0; i < n; ++i)
            arr.push(randomTree(rng, depth - 1));
        return arr;
      }
      default: {
        Json obj = Json::object();
        const int n = static_cast<int>(rng.range(0, 5));
        for (int i = 0; i < n; ++i) {
            std::string key = "k" + std::to_string(rng.range(0, 9));
            if (rng.next() % 5 == 0)
                key += "\"\\\n\t";
            obj.set(key, randomTree(rng, depth - 1));
        }
        return obj;
      }
    }
}

TEST(JsonCodec, RandomTreesRoundTripAtBothIndents)
{
    Rng rng(0x7ee5ull);
    for (int i = 0; i < 3000; ++i) {
        const Json tree = randomTree(rng, 4);
        for (int indent : {0, 2}) {
            const std::string text = tree.dump(indent);
            ASSERT_EQ(Json::parse(text).dump(indent), text) << text;
        }
        // A frozen tree and its lazily parsed compact form render
        // the same bytes.
        const Json frozen = Json::freeze(tree);
        ASSERT_EQ(frozen.dump(), tree.dump());
        ASSERT_EQ(frozen.dump(2), tree.dump(2));
        ASSERT_EQ(Json::fromCompact(tree.dump()).dump(2), tree.dump(2));
    }
}

TEST(JsonCodec, MutatedReportsParseOrThrowFatalError)
{
    const std::string compact = pingPongReport().dump();
    const std::string indented = pingPongReport().dump(2);
    Rng rng(0xbadf00dull);
    int parsed = 0, rejected = 0;
    for (int i = 0; i < 3000; ++i) {
        std::string text = i % 2 ? compact : indented;
        const int edits = static_cast<int>(rng.range(1, 4));
        for (int e = 0; e < edits && !text.empty(); ++e) {
            const auto at = static_cast<std::size_t>(
                rng.range(0, static_cast<std::int64_t>(text.size()) - 1));
            const char byte = "{}[],:\"\\-+.eE0123456789 tfn\x01\xff"
                [rng.range(0, 28)];
            switch (rng.range(0, 3)) {
              case 0: text[at] = byte; break;
              case 1: text.erase(at, 1); break;
              case 2: text.insert(at, 1, byte); break;
              default: text.resize(at); break;
            }
        }
        try {
            const Json doc = Json::parse(text);
            (void)doc.dump(2);
            ++parsed;
        } catch (const FatalError &) {
            ++rejected;
        } catch (const std::exception &e) {
            FAIL() << "untyped " << typeid(e).name() << ": "
                   << e.what() << " on " << text;
        }
        // The lazy form fails the same way, on its first read.
        const Json lazy = Json::fromCompact(text);
        EXPECT_EQ(lazy.dump(), text);
        try {
            (void)lazy.kind();
        } catch (const FatalError &) {
        }
    }
    EXPECT_GT(parsed, 0);
    EXPECT_GT(rejected, 1000);
}

TEST(JsonFrozen, CopiesShareTheirNode)
{
    const Json report = pingPongReport();
    const Json frozen = Json::freeze(report);
    const Json copy = frozen; // NOLINT: the copy is the point
    EXPECT_EQ(&frozen.get("totals"), &copy.get("totals"));
    EXPECT_EQ(&frozen.items(), &copy.items());
    EXPECT_NE(&report.get("totals"), &frozen.get("totals"));
    // Freezing a frozen value shares the same node too.
    EXPECT_EQ(&Json::freeze(copy).get("totals"),
              &frozen.get("totals"));
    // So does a document that embeds it.
    Json doc = Json::object();
    doc.set("report", frozen);
    EXPECT_EQ(&doc.get("report").get("totals"), &frozen.get("totals"));
}

TEST(JsonFrozen, MutatingACopyLeavesTheOriginalUnchanged)
{
    Json tree = Json::object();
    tree.set("a", 1);
    Json list = Json::array();
    list.push("x");
    tree.set("list", list);
    const Json frozen = Json::freeze(tree);
    const std::string before = frozen.dump();

    Json copy = frozen;
    copy.set("a", 2);
    copy.set("b", true);
    EXPECT_EQ(copy.get("a").asUint(), 2u);
    EXPECT_EQ(frozen.get("a").asUint(), 1u);
    EXPECT_FALSE(frozen.has("b"));
    EXPECT_EQ(frozen.dump(), before);
    EXPECT_EQ(copy.dump(), R"({"a":2,"list":["x"],"b":true})");

    Json frozenList = Json::freeze(list);
    Json grown = frozenList;
    grown.push("y");
    EXPECT_EQ(frozenList.size(), 1u);
    EXPECT_EQ(grown.dump(), R"(["x","y"])");
}

TEST(JsonFrozen, FrozenReportDumpsLikeItsTree)
{
    const Json report = pingPongReport();
    const Json frozen = Json::freeze(report);
    EXPECT_EQ(frozen.dump(2), report.dump(2));
    EXPECT_EQ(frozen.dump(), report.dump());

    // Embedded: the compact bytes are spliced in verbatim, and an
    // indented dump renders the tree at the embedding depth.
    Json withTree = Json::object();
    withTree.set("schema", "x");
    withTree.set("report", report);
    Json withFrozen = Json::object();
    withFrozen.set("schema", "x");
    withFrozen.set("report", frozen);
    EXPECT_EQ(withFrozen.dump(), withTree.dump());
    EXPECT_EQ(withFrozen.dump(2), withTree.dump(2));
}

TEST(JsonFrozen, FromCompactParsesOnlyWhenRead)
{
    // Relayed bytes are never parsed: even invalid ones dump as-is.
    const Json relay = Json::fromCompact("{\"a\":[1,2],\"b\":nope}");
    EXPECT_EQ(relay.dump(), "{\"a\":[1,2],\"b\":nope}");
    EXPECT_THROW((void)relay.isObject(), FatalError);

    const Json good = Json::fromCompact("{\"a\":[1,2.5],\"b\":\"c\"}");
    EXPECT_EQ(good.get("a").at(1).asDouble(), 2.5);
    EXPECT_EQ(good.dump(2), "{\n  \"a\": [\n    1,\n    2.5\n  ],\n"
                            "  \"b\": \"c\"\n}");
}

TEST(JsonFrozen, ConcurrentFirstReadsBuildOneTree)
{
    const std::string text = pingPongReport().dump();
    for (int round = 0; round < 20; ++round) {
        const Json shared = Json::fromCompact(text);
        std::array<const Json *, 4> seen{};
        std::array<std::string, 4> dumps;
        std::vector<std::thread> readers;
        for (int t = 0; t < 4; ++t)
            readers.emplace_back([&, t] {
                const Json copy = shared;
                seen[t] = &copy.get("totals");
                dumps[t] = copy.get("totals").dump(2);
            });
        for (auto &thread : readers)
            thread.join();
        for (int t = 1; t < 4; ++t) {
            EXPECT_EQ(seen[t], seen[0]);
            EXPECT_EQ(dumps[t], dumps[0]);
        }
    }
}

} // namespace
} // namespace stitch::obs
