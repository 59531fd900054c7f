/**
 * @file
 * The one way a run report document is assembled from an application
 * run. smoke_app, bench_common::writeObsArtifacts and the job engine
 * all built "runReport + stats (+ profile)" by hand; sharing the
 * builder is what makes a stitchq per-job report byte-identical to a
 * serial smoke_app run of the same spec — by construction, not by
 * convention.
 */

#ifndef STITCH_SVC_ARTIFACTS_HH
#define STITCH_SVC_ARTIFACTS_HH

#include "apps/app_runner.hh"
#include "obs/json.hh"

namespace stitch::svc
{

/** Which optional sections to attach to the base run report. */
struct ReportOptions
{
    /** Report-v3 "profile" attribution section, followed by the
     *  run's "profile_timeline" when it sampled one. */
    bool profile = false;

    bool energy = false; ///< compact "energy" section (pJ / avg mW)
};

/**
 * The run report document of one application run: the versioned
 * sim::runReport body, the run's stats-registry dump under "stats",
 * and the requested optional sections in fixed order ("profile",
 * "profile_timeline", "energy").
 */
obs::Json appReportJson(const apps::AppRunResult &res,
                        const ReportOptions &options = {});

/**
 * Derived scalars of a run that the report does not carry (they need
 * the two-run AppRunResult, not just RunStats): termination,
 * per-sample cycles, placement mix and the stitch plan. Service
 * clients (batch tables, fault campaigns) read these instead of
 * re-deriving them, and the result cache stores them next to the
 * report so a cache hit can feed the same tables.
 */
obs::Json derivedJson(const apps::AppRunResult &res);

} // namespace stitch::svc

#endif // STITCH_SVC_ARTIFACTS_HH
