/**
 * @file
 * Attribution layer over the observability counters: roll the raw
 * per-tile cycle counters of one System::run() up into exact cycle
 * buckets, attribute tiles to pipeline stages (kernels) through the
 * stitch plan's stage->tile bindings, price everything with the
 * power-layer energy model, and diagnose the pipeline bottleneck.
 *
 * Exactness is the contract: for every loaded tile the six
 * sim::CycleBucket values sum bit-for-bit to the tile's local cycles
 * (the cpu/core.hh accounting identity), and buildProfile() asserts
 * it. Everything else — stage throughput, slack, energy, average
 * power — is derived arithmetic on those exact buckets.
 *
 * The layer sits above sim and power and below the harnesses; the
 * simulator itself never depends on it, which is why harnesses attach
 * profileJson() to the run report (v3 "profile" section) themselves.
 */

#ifndef STITCH_PROF_PROFILE_HH
#define STITCH_PROF_PROFILE_HH

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hh"
#include "power/power_model.hh"
#include "sim/system.hh"

namespace stitch::prof
{

/** Suggested --profile=N window: fine enough to see pipeline phases,
 *  coarse enough that per-window attribution skew is negligible. */
inline constexpr Cycles defaultProfileInterval = 1000;

/** One tile's attributed activity. */
struct TileProfile
{
    TileId tile = -1;
    std::string stage; ///< bound stage name; empty if unbound
    Cycles cycles = 0; ///< local time at halt
    std::array<Cycles, sim::numCycleBuckets> buckets{};
    Cycles idleCycles = 0; ///< makespan - cycles (halted early)
    double energyPj = 0.0;
    double avgPowerMw = 0.0; ///< energy over the whole makespan
};

/** One pipeline stage (kernel) of the application. */
struct StageProfile
{
    std::string name; ///< "kernel#k"
    TileId tile = -1;
    Cycles cycles = 0;
    std::array<Cycles, sim::numCycleBuckets> buckets{};
    Cycles slackCycles = 0; ///< headroom vs the limiting stage
    double throughputItemsPer1kCycles = 0.0; ///< 0 if items unknown
    double energyPj = 0.0;
    bool limiting = false; ///< the stage that sets the makespan
};

/** The full attribution of one run. */
struct Profile
{
    Cycles makespan = 0;
    std::vector<TileProfile> tiles;   ///< loaded tiles only
    std::vector<StageProfile> stages; ///< bound stages, stage order
    int limitingStage = -1; ///< index into stages; -1 if no stages
    double snocOccupancy = 0.0; ///< fused-chain hops per makespan cycle
    double totalEnergyPj = 0.0;
    double avgPowerMw = 0.0;
    power::EnergyModel model{};
};

/**
 * Build the attribution for `stats`. `stageBindings` maps stage names
 * to tiles (AppRunResult::stageBindings; empty for raw runs) and
 * `itemsPerStage` is the pipeline sample count each stage processed
 * (0 leaves stage throughput unset). Asserts the bucket exactness
 * invariant for every loaded tile.
 */
Profile buildProfile(
    const sim::RunStats &stats,
    const std::vector<std::pair<std::string, TileId>> &stageBindings =
        {},
    std::uint64_t itemsPerStage = 0,
    const power::EnergyModel &model = power::EnergyModel::standard());

/** Activity-scaled energy of one tile over `makespan` cycles. */
double tileEnergyPj(const power::EnergyModel &model,
                    const sim::TileStats &ts, Cycles makespan);

/**
 * Whole-run energy computed from the RunStats counters alone — the
 * independent cross-check the per-tile/per-kernel rollup must agree
 * with (tests hold them to <1%).
 */
double runEnergyPj(const power::EnergyModel &model,
                   const sim::RunStats &stats);

/** The report-v3 "profile" section. */
obs::Json profileJson(const Profile &p);

/**
 * A run's interval timeline (AppRunResult::timeline) as JSON: windows
 * per tile per bucket; Null if it sampled nothing. Attach next to the
 * profile.
 */
obs::Json samplerTimelineJson(const obs::Sampler &sampler);

} // namespace stitch::prof

#endif // STITCH_PROF_PROFILE_HH
