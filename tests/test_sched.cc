/** @file Scheduler differential tests: the slice and compiled
 *  schedulers must be observably identical to the single-step
 *  reference (reports, stats, terminations) on the catalog apps and
 *  on random multi-tile programs, the run queue must reproduce the
 *  linear scan's pick order, and sweep results must not depend on
 *  the worker count. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/app_runner.hh"
#include "fuzz_gen.hh"
#include "mem/addrmap.hh"
#include "sim/report.hh"
#include "sim/sched.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"

namespace stitch::sim
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

/** The v3 run-report document an app run would write to disk. */
std::string
reportOf(const apps::AppRunResult &res)
{
    obs::Json doc = runReport(res.stats);
    if (res.hasPlan)
        doc.set("stitch_plan", stitchPlanJson(res.plan));
    if (!res.statsDump.isNull())
        doc.set("stats", res.statsDump);
    return doc.dump(2);
}

/** Shared runner: kernel compilations are cached across tests. */
apps::AppRunner &
sharedRunner()
{
    static apps::AppRunner runner(2, 4);
    return runner;
}

/** allApps() returns by value; keep one copy alive for the tests. */
const std::vector<apps::AppSpec> &
testApps()
{
    static const auto apps_ = apps::allApps();
    return apps_;
}

apps::AppRunResult
runWith(const apps::AppSpec &app, apps::AppMode mode,
        SchedulerKind kind, const fault::FaultPlan &faults = {})
{
    apps::RunConfig cfg = sharedRunner().config();
    cfg.scheduler = kind;
    cfg.faults = faults;
    return sharedRunner().run(app, mode, cfg);
}

TEST(SchedulerKind, NamesRoundTrip)
{
    EXPECT_STREQ(schedulerKindName(SchedulerKind::Step), "step");
    EXPECT_STREQ(schedulerKindName(SchedulerKind::Slice), "slice");
    EXPECT_STREQ(schedulerKindName(SchedulerKind::Compiled),
                 "compiled");
    EXPECT_EQ(schedulerKindFromName("step"), SchedulerKind::Step);
    EXPECT_EQ(schedulerKindFromName("slice"), SchedulerKind::Slice);
    EXPECT_EQ(schedulerKindFromName("compiled"),
              SchedulerKind::Compiled);
    EXPECT_THROW(schedulerKindFromName("speculative"),
                 fault::ConfigError);
}

TEST(RunQueue, PopsByTimeThenTileLikeTheLinearScan)
{
    RunQueue q;
    q.push(5, 30);
    q.push(2, 10);
    q.push(9, 10); // same time as tile 2: lower id wins
    q.push(1, 40);
    ASSERT_EQ(q.size(), 4);
    EXPECT_EQ(q.top(), 2);
    q.pop();
    EXPECT_EQ(q.top(), 9);
    q.pop();
    EXPECT_EQ(q.top(), 5);
    q.pop();
    EXPECT_EQ(q.top(), 1);
    q.pop();
    EXPECT_TRUE(q.empty());
}

TEST(RunQueue, UpdateTopReordersLikePopPush)
{
    RunQueue q;
    q.push(0, 100);
    q.push(1, 105);
    q.push(2, 110);
    EXPECT_EQ(q.top(), 0);
    EXPECT_EQ(q.second().tile, 1);
    q.updateTop(107); // tile 0 advanced past tile 1
    EXPECT_EQ(q.top(), 1);
    q.updateTop(107); // equal times: lower id runs first
    EXPECT_EQ(q.top(), 0);
    q.pop();
    EXPECT_EQ(q.top(), 1);
    EXPECT_TRUE(q.contains(2));
    EXPECT_FALSE(q.contains(7));
}

TEST(SchedulerParity, ReportsAreByteIdenticalOnAllApps)
{
    const auto modes = {apps::AppMode::Baseline, apps::AppMode::Locus,
                        apps::AppMode::StitchNoFusion,
                        apps::AppMode::Stitch};
    for (const auto &app : testApps()) {
        for (auto mode : modes) {
            auto step = runWith(app, mode, SchedulerKind::Step);
            for (auto kind :
                 {SchedulerKind::Slice, SchedulerKind::Compiled}) {
                auto other = runWith(app, mode, kind);
                EXPECT_EQ(reportOf(step), reportOf(other))
                    << app.name << " / " << apps::appModeName(mode)
                    << " / " << schedulerKindName(kind);
                EXPECT_EQ(step.stats.makespan, other.stats.makespan);
                EXPECT_EQ(step.stats.instructions,
                          other.stats.instructions);
                EXPECT_EQ(step.stats.messages, other.stats.messages);
            }
        }
    }
}

TEST(SchedulerParity, SeededSoftFaultInjectionIsIdentical)
{
    // An active injector consumes one pseudo-random draw per
    // delivery/CUST in global event order, so the seeded streams —
    // and every downstream number — must line up exactly.
    const auto &app = testApps().front();
    for (const auto &plan :
         {fault::FaultPlan::bitFlips(0.01, 7),
          fault::FaultPlan::messageDelay(0.05, 32, 7)}) {
        auto step =
            runWith(app, apps::AppMode::Stitch, SchedulerKind::Step,
                    plan);
        for (auto kind :
             {SchedulerKind::Slice, SchedulerKind::Compiled}) {
            auto other = runWith(app, apps::AppMode::Stitch, kind,
                                 plan);
            EXPECT_EQ(reportOf(step), reportOf(other))
                << schedulerKindName(kind);
            EXPECT_EQ(step.stats.custBitFlips,
                      other.stats.custBitFlips);
            EXPECT_EQ(step.stats.messagesDelayed,
                      other.stats.messagesDelayed);
        }
    }
}

TEST(SchedulerParity, DroppedMessageDeadlockDiagnosticsMatch)
{
    const auto &app = testApps().front();
    auto plan = fault::FaultPlan::messageDrop(0.5, 11);
    auto step = runWith(app, apps::AppMode::Stitch,
                        SchedulerKind::Step, plan);
    for (auto kind :
         {SchedulerKind::Slice, SchedulerKind::Compiled}) {
        auto other = runWith(app, apps::AppMode::Stitch, kind, plan);
        EXPECT_EQ(reportOf(step), reportOf(other))
            << schedulerKindName(kind);
        EXPECT_EQ(step.stats.termination, other.stats.termination);
        ASSERT_EQ(step.stats.blockedTiles.size(),
                  other.stats.blockedTiles.size());
        for (std::size_t i = 0; i < step.stats.blockedTiles.size();
             ++i)
            EXPECT_EQ(step.stats.blockedTiles[i].tile,
                      other.stats.blockedTiles[i].tile);
    }
}

TEST(SchedulerParity, DeadlockOnBareSystemMatches)
{
    std::vector<std::string> reports;
    for (auto kind : {SchedulerKind::Step, SchedulerKind::Slice,
                      SchedulerKind::Compiled}) {
        SystemParams params;
        params.accel = AccelMode::None;
        params.scheduler = kind;
        System system(params);
        Assembler a("d0");
        a.li(t1, 1);
        a.recv(t2, t1, 0);
        a.halt();
        Assembler b("d1");
        b.li(t1, 0);
        b.recv(t2, t1, 0);
        b.halt();
        system.loadProgram(0, wrap(a.finish()));
        system.loadProgram(1, wrap(b.finish()));
        auto stats = system.run();
        EXPECT_EQ(stats.termination, fault::Termination::Deadlock);
        reports.push_back(runReport(stats).dump(2));
    }
    EXPECT_EQ(reports[0], reports[1]);
    EXPECT_EQ(reports[0], reports[2]);
}

TEST(SchedulerParity, InstructionLimitCutsAtTheSameInstruction)
{
    // A finite budget forces the slice scheduler into its exact
    // regime, so even the budget's mid-run cutoff point must agree
    // with the single-step reference.
    std::vector<RunStats> runs;
    for (auto kind : {SchedulerKind::Step, SchedulerKind::Slice,
                      SchedulerKind::Compiled}) {
        SystemParams params;
        params.accel = AccelMode::None;
        params.scheduler = kind;
        System system(params);
        for (TileId t = 0; t < 4; ++t) {
            Assembler a("loop");
            auto loop = a.newLabel();
            a.bind(loop);
            a.addi(t0, t0, 1);
            a.jmp(loop);
            a.halt();
            system.loadProgram(t, wrap(a.finish()));
        }
        runs.push_back(system.run(/*maxInstructions=*/1000));
    }
    for (const auto &run : runs) {
        EXPECT_EQ(run.termination,
                  fault::Termination::InstructionLimit);
        EXPECT_EQ(run.instructions, 1000u);
        for (TileId t = 0; t < 4; ++t)
            EXPECT_EQ(run.perTile[t].instructions,
                      runs[0].perTile[t].instructions)
                << "tile " << t;
    }
}

TEST(SchedulerParity, DeadPatchFaultTerminationMatches)
{
    // Healthy plan on faulty hardware: the first CUST landing on the
    // dead patch raises Termination::Fault mid-run. Partial stats are
    // order-sensitive, so the slice scheduler must detect the active
    // injector and fall back to its exact regime.
    const auto &apps_ = testApps();
    const auto &app = apps_[apps_.size() > 2 ? 2 : 0];
    auto plan = fault::FaultPlan::patchFailure(0);
    auto step = runWith(app, apps::AppMode::Stitch,
                        SchedulerKind::Step, plan);
    EXPECT_EQ(step.stats.termination, fault::Termination::Fault);
    for (auto kind :
         {SchedulerKind::Slice, SchedulerKind::Compiled}) {
        auto other = runWith(app, apps::AppMode::Stitch, kind, plan);
        EXPECT_EQ(reportOf(step), reportOf(other))
            << schedulerKindName(kind);
        EXPECT_EQ(step.stats.faultMessage, other.stats.faultMessage);
    }
}

// ---------------------------------------------------------------------
// Scheduler differential fuzzing: random multi-tile message-passing
// programs, each run under step, slice and compiled, must produce
// byte-identical run reports (component counter tree included).
// ---------------------------------------------------------------------

/** A generated scenario: one program per participating tile. */
struct FuzzScenario
{
    std::array<std::optional<isa::Program>, numTiles> programs;
    bool unmatchedRecv = false; ///< one tile ends in a RECV nobody answers
};

/** Registers the random compute may clobber. */
constexpr RegId fuzzTemps[] = {t3, t4, t5, t6, t7, a0, a1};

/** DRAM window each tile reads and writes (memory is tile-private). */
constexpr std::int32_t fuzzDramBase = 0x00100000;

/**
 * Tile-private work: random ALU/MUL runs, DRAM and scratchpad
 * loads/stores, counted loops and data-dependent forward branches.
 * Uses s0 (DRAM base), s1 (SPM base), t0 (loop counter) and t8
 * (addresses) besides fuzzTemps.
 */
void
emitPrivateWork(Assembler &a, Rng &rng)
{
    auto temp = [&] {
        return fuzzTemps[rng.range(0, std::size(fuzzTemps) - 1)];
    };
    auto word = [&](std::int64_t words) {
        return static_cast<std::int32_t>(4 * rng.range(0, words - 1));
    };
    for (auto piece = rng.range(1, 4); piece > 0; --piece) {
        switch (rng.range(0, 3)) {
          case 0:
            fuzz::emitRandomAlu(a, rng, fuzzTemps,
                                static_cast<int>(rng.range(1, 6)));
            break;
          case 1: {
            // One draw per statement keeps the program independent of
            // the compiler's argument evaluation order.
            RegId base = rng.range(0, 1) ? s0 : s1;
            RegId value = temp();
            a.sw(value, base, word(256));
            RegId dest = temp();
            if (base == s0 && rng.range(0, 1))
                a.lb(dest, base, word(256));
            else
                a.lw(dest, base, word(256));
            break;
          }
          case 2: {
            // Counted loop striding DRAM a cache line per trip.
            auto loop = a.newLabel();
            a.li(t0, static_cast<std::int32_t>(rng.range(1, 12)));
            a.bind(loop);
            fuzz::emitRandomAlu(a, rng, fuzzTemps,
                                static_cast<int>(rng.range(1, 4)));
            a.slli(t8, t0, 6);
            a.add(t8, s0, t8);
            if (rng.range(0, 1))
                a.sw(temp(), t8, 0);
            else
                a.lw(temp(), t8, 0);
            a.addi(t0, t0, -1);
            a.bne(t0, zero, loop);
            break;
          }
          case 3: {
            auto skip = a.newLabel();
            RegId x = temp();
            RegId y = temp();
            switch (rng.range(0, 2)) {
              case 0: a.beq(x, y, skip); break;
              case 1: a.bne(x, y, skip); break;
              case 2: a.blt(x, y, skip); break;
            }
            fuzz::emitRandomAlu(a, rng, fuzzTemps,
                                static_cast<int>(rng.range(1, 4)));
            a.bind(skip);
            break;
          }
        }
    }
}

/**
 * Random phases of matched SEND/RECV traffic between a random subset
 * of tiles. Each phase every tile does private work, sends its
 * messages (SEND never blocks), then receives its own, so the
 * matched program always completes; received values feed a
 * data-dependent loop. Some seeds append one unmatched RECV.
 */
FuzzScenario
randomScenario(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<TileId> tiles(numTiles);
    std::iota(tiles.begin(), tiles.end(), 0);
    for (std::int64_t i = numTiles - 1; i > 0; --i)
        std::swap(tiles[i], tiles[rng.range(0, i)]);
    tiles.resize(rng.range(2, numTiles));
    auto anyTile = [&] { return tiles[rng.range(0, tiles.size() - 1)]; };

    struct Message
    {
        TileId src, dst;
        std::int32_t count;
    };
    std::vector<std::vector<Message>> phases(rng.range(1, 3));
    for (auto &phase : phases) {
        for (auto m = rng.range(1, 2 * tiles.size()); m > 0; --m) {
            TileId src = anyTile();
            TileId dst = src;
            while (dst == src)
                dst = anyTile();
            phase.push_back(
                {src, dst, static_cast<std::int32_t>(rng.range(1, 4))});
        }
    }

    FuzzScenario sc;
    sc.unmatchedRecv = rng.range(0, 3) == 0;
    const TileId victim = anyTile();
    for (TileId t : tiles) {
        Assembler a("fuzz" + std::to_string(t));
        a.li(s0, fuzzDramBase);
        a.li(s1, static_cast<std::int32_t>(mem::spmBase));
        for (RegId r : fuzzTemps)
            a.li(r, static_cast<std::int32_t>(rng.range(-999, 999)));
        for (std::size_t p = 0; p < phases.size(); ++p) {
            const auto tag = static_cast<std::int32_t>(p);
            emitPrivateWork(a, rng);
            for (const auto &msg : phases[p]) {
                if (msg.src != t)
                    continue;
                auto loop = a.newLabel();
                a.li(t1, msg.dst);
                a.li(t2, msg.count);
                a.bind(loop);
                a.addi(a0, a0, 1);
                a.send(a0, t1, tag);
                a.addi(t2, t2, -1);
                a.bne(t2, zero, loop);
            }
            for (const auto &msg : phases[p]) {
                if (msg.dst != t)
                    continue;
                auto loop = a.newLabel();
                a.li(t1, msg.src);
                a.li(t2, msg.count);
                a.bind(loop);
                a.recv(t3, t1, tag);
                a.xor_(a0, a0, t3);
                a.addi(t2, t2, -1);
                a.bne(t2, zero, loop);
            }
            // Trip count taken from received data.
            auto loop = a.newLabel();
            a.andi(t0, a0, 3);
            a.addi(t0, t0, 1);
            a.bind(loop);
            fuzz::emitRandomAlu(a, rng, fuzzTemps,
                                static_cast<int>(rng.range(1, 3)));
            a.addi(t0, t0, -1);
            a.bne(t0, zero, loop);
        }
        if (sc.unmatchedRecv && t == victim) {
            a.li(t1, tiles[0] == t ? tiles[1] : tiles[0]);
            a.recv(t3, t1, static_cast<std::int32_t>(phases.size()));
        }
        a.halt();
        sc.programs[static_cast<std::size_t>(t)] = a.finish();
    }
    return sc;
}

/** Run `sc` once; returns the report with the counter tree. */
std::string
runScenario(const FuzzScenario &sc, SchedulerKind kind,
            const fault::FaultPlan &faults, std::uint64_t budget,
            RunStats *statsOut = nullptr)
{
    SystemParams params;
    params.accel = AccelMode::None;
    params.scheduler = kind;
    params.faults = faults;
    System system(params);
    for (TileId t = 0; t < numTiles; ++t)
        if (const auto &prog = sc.programs[static_cast<std::size_t>(t)])
            system.loadProgram(t, wrap(*prog));
    RunStats stats = system.run(budget);
    if (statsOut)
        *statsOut = stats;
    return runReport(stats, &system.registry()).dump(2);
}

/** Step's stats for one leg, after checking slice and compiled. */
RunStats
expectSchedulerParity(const FuzzScenario &sc, const char *leg,
                      const fault::FaultPlan &faults = {},
                      std::uint64_t budget =
                          System::runawayInstructionBudget)
{
    RunStats stats;
    const std::string step =
        runScenario(sc, SchedulerKind::Step, faults, budget, &stats);
    for (auto kind : {SchedulerKind::Slice, SchedulerKind::Compiled})
        EXPECT_EQ(step, runScenario(sc, kind, faults, budget))
            << leg << " / " << schedulerKindName(kind);
    return stats;
}

class SchedulerFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(SchedulerFuzz, ReportsAreByteIdenticalAcrossSchedulers)
{
    const auto seed = static_cast<std::uint64_t>(GetParam()) * 104729 + 3;
    const FuzzScenario sc = randomScenario(seed);

    // No observers: the compiled backend runs its own traces here.
    RunStats free = expectSchedulerParity(sc, "unobserved");
    EXPECT_EQ(free.termination, sc.unmatchedRecv
                                    ? fault::Termination::Deadlock
                                    : fault::Termination::Completed);
    EXPECT_EQ(free.blockedTiles.size(), sc.unmatchedRecv ? 1u : 0u);

    // A finite budget that cuts the run halfway.
    RunStats cut = expectSchedulerParity(
        sc, "budget", {}, std::max<std::uint64_t>(1, free.instructions / 2));
    EXPECT_EQ(cut.termination, fault::Termination::InstructionLimit);

    // Seeded network faults: drops may deadlock, delays reorder.
    expectSchedulerParity(sc, "drop",
                          fault::FaultPlan::messageDrop(0.05, seed));
    expectSchedulerParity(sc, "delay",
                          fault::FaultPlan::messageDelay(0.5, 40, seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFuzz, ::testing::Range(0, 48));

TEST(SweepRunner, ResultsDoNotDependOnWorkerCount)
{
    auto sweepReports = [](int jobs) {
        SweepRunner sweep(jobs);
        return sweep.map(8, [&](int i) {
            const auto &apps_ = testApps();
            const auto &app = apps_[static_cast<std::size_t>(i) %
                                    apps_.size()];
            auto mode = i % 2 == 0 ? apps::AppMode::Baseline
                                   : apps::AppMode::Stitch;
            return reportOf(sharedRunner().run(
                app, mode, sharedRunner().config()));
        });
    };
    auto serial = sweepReports(1);
    auto threaded = sweepReports(8);
    EXPECT_EQ(serial, threaded);
}

TEST(SweepRunner, LowestIndexExceptionWins)
{
    SweepRunner sweep(4);
    try {
        sweep.map(16, [](int i) {
            if (i == 11)
                throw std::runtime_error("late failure");
            if (i == 3)
                throw std::runtime_error("early failure");
            return i;
        });
        FAIL() << "map() swallowed the worker exceptions";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "early failure");
    }
}

TEST(SweepRunner, EveryTaskThrowingStillRethrowsIndexZero)
{
    // The degenerate concurrent case: all 32 tasks throw at once
    // under 8 workers. The contract is unchanged — the lowest index
    // wins, regardless of which worker failed first in wall time.
    SweepRunner sweep(8);
    try {
        sweep.map(32, [](int i) -> int {
            throw std::runtime_error("task " + std::to_string(i));
        });
        FAIL() << "map() swallowed the worker exceptions";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "task 0");
    }
}

TEST(SweepRunner, ZeroAndNegativeJobsClampToSerial)
{
    EXPECT_EQ(SweepRunner(0).jobs(), 1);
    EXPECT_EQ(SweepRunner(-3).jobs(), 1);
    auto out = SweepRunner(0).map(3, [](int i) { return i * i; });
    EXPECT_EQ(out, (std::vector<int>{0, 1, 4}));
}

} // namespace
} // namespace stitch::sim
