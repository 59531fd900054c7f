/**
 * @file
 * The `stitch-job` v1 schema: one versioned JSON document that fully
 * describes one simulation run — application, architecture mode,
 * stitching policy, scheduler, measurement window, fault scenario,
 * health mask and requested artifacts. Clients (stitchq batches, the
 * stitchd socket loop, benches, CI) submit these to svc::JobEngine
 * instead of hand-rolling compile/stitch/simulate sequences.
 *
 * A spec has a *canonical form*: a JSON serialization with a fixed
 * key order, every default materialized, collections sorted and
 * deduplicated, and the fields that leave the report unchanged (the
 * label, the queue priority, the deadline and the scheduler)
 * stripped. Two specs describe the same simulation iff their
 * canonical forms are byte-identical, which makes the canonical form
 * the cache identity: cacheKey() is a splitmix64-based hash of those
 * bytes (see svc/cache.hh for the collision guard).
 */

#ifndef STITCH_SVC_JOB_HH
#define STITCH_SVC_JOB_HH

#include <cstdint>
#include <string>

#include "apps/app_runner.hh"
#include "apps/apps.hh"
#include "fault/fault.hh"
#include "obs/json.hh"

namespace stitch::svc
{

inline constexpr const char *jobSchema = "stitch-job";
inline constexpr int jobSchemaVersion = 1;

/** Which optional sections the job's report should carry. */
struct JobArtifacts
{
    bool profile = false; ///< report-v3 "profile" attribution section
    bool energy = false;  ///< compact "energy" section (pJ / avg mW)

    bool operator==(const JobArtifacts &) const = default;
};

/** Parse / print an AppMode token (baseline|locus|stitch_no_fusion|
 *  stitch); parse throws fault::ConfigError on unknown tokens. */
const char *appModeToken(apps::AppMode mode);
apps::AppMode appModeFromToken(const std::string &token);

/** Parse / print a StitchPolicy token (greedy|singles_only|auto). */
const char *stitchPolicyToken(compiler::StitchPolicy policy);
compiler::StitchPolicy
stitchPolicyFromToken(const std::string &token);

/** One fully-specified simulation job. */
struct JobSpec
{
    // Presentation / queueing only — NOT part of the cache identity.
    std::string name; ///< free-form label (report file naming)
    int priority = 0; ///< higher runs first; FIFO within a priority

    /**
     * Wall-clock deadline (ms) from claim to finish; 0 = none. Like
     * priority, a *service* property, not a simulation property: two
     * jobs differing only in deadline describe the same run and share
     * one cache entry, so this is NOT part of the cache identity.
     * Distinct from maxInstructions (a simulated-work budget): the
     * deadline bounds real time, and an expired one terminates the
     * job with the typed "deadline" failure kind.
     */
    std::uint64_t deadlineMs = 0;

    /**
     * Execution hint: how the simulator interleaves the tiles. All
     * schedulers produce byte-identical reports, so, like the
     * deadline, this is NOT part of the cache identity.
     */
    sim::SchedulerKind scheduler = sim::SchedulerKind::Slice;

    // The simulation itself — every field below is hashed.
    std::string app; ///< full catalog name (resolved at parse time)
    apps::AppMode mode = apps::AppMode::Stitch;
    compiler::StitchPolicy policy = compiler::StitchPolicy::Auto;
    int samplesShort = 4;
    int samplesLong = 12;

    /** Instruction budget per simulated run; 0 = runaway backstop.
     *  The engine's job "timeout": an exhausted budget terminates the
     *  run with Termination::InstructionLimit, never an error. */
    std::uint64_t maxInstructions = 0;

    fault::FaultPlan faults;

    /** false: stitch for healthy hardware (the "naive" run of a fault
     *  campaign); true: derive the ArchHealth mask from `faults` so
     *  the stitcher degrades around the scenario. */
    bool healthFromFaults = false;

    JobArtifacts artifacts;

    /**
     * Strict parse of a stitch-job document. Unknown keys, a wrong
     * schema/version stamp, malformed types, out-of-range tiles and
     * invalid fault probabilities all throw fault::ConfigError —
     * validation is eager, before the job ever reaches a worker.
     */
    static JobSpec fromJson(const obs::Json &doc);

    /** Full round-trippable document (label, priority, deadline and
     *  scheduler included). */
    obs::Json toJson() const;

    /** The canonical form (see the file comment). */
    obs::Json canonicalJson() const;

    /** 16-hex-digit content address of canonicalJson().dump(). */
    std::string cacheKey() const;

    /** Re-check every invariant fromJson() enforces (for specs built
     *  in code); throws fault::ConfigError. */
    void validate() const;

    /** Catalog spec for `app`; throws fault::ConfigError if the name
     *  no longer resolves. */
    const apps::AppSpec &resolveApp() const;

    /** The apps::RunConfig this spec describes. */
    apps::RunConfig runConfig() const;
};

/** splitmix64-chained hash of an arbitrary byte string; used for the
 *  content address and exposed for tests. */
std::uint64_t hashBytes(const std::string &bytes);

} // namespace stitch::svc

#endif // STITCH_SVC_JOB_HH
