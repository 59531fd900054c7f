/**
 * @file
 * End-to-end application execution: compile every stage kernel for
 * every target, stitch (for the Stitch modes), place, wire the
 * message channels, and simulate the 16-tile system.
 *
 * The runner caches compiled kernels by (name, shape) — APP1's six
 * FFT stages compile once — because compile-and-measure across 13
 * targets is the expensive step.
 */

#ifndef STITCH_APPS_APP_RUNNER_HH
#define STITCH_APPS_APP_RUNNER_HH

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "apps/apps.hh"
#include "compiler/stitcher.hh"
#include "kernels/catalog.hh"
#include "obs/json.hh"
#include "sim/system.hh"
#include "telem/span.hh"

namespace stitch::apps
{

/** The four architecture configurations of Figure 12. */
enum class AppMode
{
    Baseline,       ///< 16-core message passing, no accelerators
    Locus,          ///< identical per-core SFU (LOCUS [51])
    StitchNoFusion, ///< patches, each kernel limited to its own tile
    Stitch,         ///< patches + fusion over the sNoC
};

const char *appModeName(AppMode mode);

/** Result of one application run. */
struct AppRunResult
{
    AppMode mode = AppMode::Baseline;
    sim::RunStats stats; ///< from the longer of the two runs
    int samples = 0;     ///< sample-count difference of the two runs
    double marginalCycles = 0.0;

    /**
     * Steady-state cycles per pipeline sample: the marginal cost of
     * the extra samples between a short and a long run, which cancels
     * the pipeline fill/drain and cold-cache transients exactly.
     */
    double perSampleCycles() const { return marginalCycles; }

    bool hasPlan = false;
    compiler::StitchPlan plan; ///< valid for the Stitch modes

    /** Samples the long (measured) run processed; lets profilers turn
     *  stage cycles into items/cycle without re-deriving run config. */
    int samplesLong = 0;

    /**
     * Stage name ("kernel#k") -> tile of the measured run, in stage
     * order and for every mode (the plan only covers Stitch modes).
     * This is all src/prof/ needs to attribute tiles to kernels, so
     * apps stays free of a prof dependency.
     */
    std::vector<std::pair<std::string, TileId>> stageBindings;

    /**
     * The long run's stats-registry tree (zero counters omitted),
     * captured before the System is torn down so harnesses can embed
     * it in reports (sim/report.hh).
     */
    obs::Json statsDump;

    /**
     * The long run's translated-trace dump (System::dumpTraces),
     * captured iff RunConfig::dumpTraces is set. Empty unless the run
     * used the compiled scheduler (smoke_app --dump-traces).
     */
    std::string traceDump;

    /**
     * The long run's interval timeline, sampled iff
     * RunConfig::profileInterval is set (hasData() is false
     * otherwise). Reports attach it as "profile_timeline".
     */
    obs::Sampler timeline;
};

/**
 * Everything that varies between runs of the same runner: the
 * ablation knobs (arch, policy), the fault scenario (health, faults)
 * and the simulator scheduler. Sweep workers build one per task and
 * pass it to the three-argument run() so concurrent scenarios never
 * race on runner state.
 */
struct RunConfig
{
    core::StitchArch arch = core::StitchArch::standard();
    compiler::StitchPolicy policy = compiler::StitchPolicy::Auto;
    fault::ArchHealth health = fault::ArchHealth::healthy();
    fault::FaultPlan faults;
    sim::SchedulerKind scheduler = sim::SchedulerKind::Slice;

    /**
     * Capture the long run's translation-cache dump into
     * AppRunResult::traceDump (diagnostics; off the measurement path).
     */
    bool dumpTraces = false;

    /**
     * Per-run instruction budget; 0 keeps the runaway backstop. The
     * service layer maps a job "timeout" onto this: a run that
     * exhausts the budget ends with Termination::InstructionLimit in
     * its report instead of hanging a worker forever.
     */
    std::uint64_t maxInstructions = 0;

    /**
     * Steady-state measurement points; 0 keeps the runner's
     * constructor values. Job specs carry them so one shared engine
     * runner can serve jobs with different measurement windows.
     */
    int samplesShort = 0;
    int samplesLong = 0;

    /**
     * Request-scoped telemetry context (svc::JobEngine sets it when
     * telemetry is on). The runner records compile/stitch/simulate
     * spans through it — at *stage* granularity, never inside the
     * simulator hot loop. The default disabled context costs one
     * branch per stage; not part of the cache identity.
     */
    telem::TraceContext trace;

    /**
     * Cooperative deadline token (svc::JobEngine's watchdog sets it
     * when the job's wall-clock deadline expires). Forwarded to
     * SystemParams::abortFlag; a tripped flag surfaces as
     * fault::DeadlineExceededError. Not part of the cache identity.
     */
    const std::atomic<bool> *abortFlag = nullptr;

    /**
     * Event trace of both simulated runs (SystemParams::tracer; null
     * = off). The compile step's standalone measurement runs are
     * never traced, so a trace does not depend on the kernel cache.
     * Not part of the cache identity.
     */
    obs::Tracer *tracer = nullptr;

    /**
     * Sample the long run's cycle buckets in windows of this many
     * cycles into AppRunResult::timeline (0 = off). Not part of the
     * cache identity.
     */
    Cycles profileInterval = 0;
};

/** Compiles, stitches, places, and simulates applications. */
class AppRunner
{
  public:
    /** Steady state is measured between runs of `samplesShort` and
     *  `samplesLong` pipeline samples. */
    explicit AppRunner(int samplesShort = 4, int samplesLong = 12);

    /** Run `app` under `mode` with the setter-configured state. */
    AppRunResult run(const AppSpec &app, AppMode mode);

    /**
     * Run `app` under `mode` with an explicit per-call configuration.
     * Thread-safe: concurrent calls on one runner share the compiled
     * kernel cache (internally locked) and touch no other state.
     */
    AppRunResult run(const AppSpec &app, AppMode mode,
                     const RunConfig &config);

    /** Snapshot of the setter-configured state as a RunConfig. */
    RunConfig config() const;

    /** Compiled kernel for a stage shape (cached, thread-safe). */
    const compiler::CompiledKernel &
    compiledFor(const std::string &kernel,
                const kernels::PipelineShape &shape);

    /** Override the patch placement (ablation studies). */
    void setArch(const core::StitchArch &arch) { arch_ = arch; }

    /** Override the stitching policy (ablation studies). */
    void
    setPolicy(compiler::StitchPolicy policy)
    {
        policy_ = policy;
    }

    /**
     * Stitch around known-bad hardware: the stitcher skips dead
     * patches and routes fusions away from failed links. The default
     * all-healthy mask reproduces the unconstrained plan exactly.
     */
    void setHealth(const fault::ArchHealth &health) { health_ = health; }

    /** Inject run-time faults (forwarded to SystemParams::faults). */
    void setFaultPlan(const fault::FaultPlan &plan) { faults_ = plan; }

    /** Select the simulator scheduler (SystemParams::scheduler). */
    void
    setScheduler(sim::SchedulerKind kind)
    {
        scheduler_ = kind;
    }

  private:
    int samplesShort_;
    int samplesLong_;
    core::StitchArch arch_ = core::StitchArch::standard();
    compiler::StitchPolicy policy_ = compiler::StitchPolicy::Auto;
    fault::ArchHealth health_ = fault::ArchHealth::healthy();
    fault::FaultPlan faults_;
    sim::SchedulerKind scheduler_ = sim::SchedulerKind::Slice;
    std::mutex cacheMutex_; ///< guards cache_ across sweep workers
    std::map<std::string, std::unique_ptr<compiler::CompiledKernel>>
        cache_;
};

} // namespace stitch::apps

#endif // STITCH_APPS_APP_RUNNER_HH
