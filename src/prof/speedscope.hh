/**
 * @file
 * Speedscope export of a Profile (https://www.speedscope.app — the
 * same format Firefox Profiler imports). Each loaded tile becomes one
 * "sampled" profile whose frames are the six attribution buckets and
 * whose sample weights are cycles, so the left-heavy and sandwich
 * views read directly as "where did this tile's time go".
 *
 * When the run's interval Sampler recorded a timeline (--profile=N),
 * the export carries one weighted sample per (window, bucket) pair
 * and the time axis is real simulated time; otherwise it degrades to
 * one aggregate sample per bucket, which still renders correctly (the
 * format is weight-based, not wall-clock-based).
 */

#ifndef STITCH_PROF_SPEEDSCOPE_HH
#define STITCH_PROF_SPEEDSCOPE_HH

#include <string>

#include "obs/json.hh"
#include "prof/profile.hh"

namespace stitch::prof
{

/** Build the speedscope document for `p` titled `name`, windowed by
 *  the run's `timeline` when it sampled anything. */
obs::Json speedscopeDocument(const Profile &p,
                             const obs::Sampler &timeline,
                             const std::string &name = "stitch run");

/** Pretty-print speedscopeDocument() to `path`; fatal on I/O. */
void writeSpeedscope(const std::string &path, const Profile &p,
                     const obs::Sampler &timeline,
                     const std::string &name = "stitch run");

} // namespace stitch::prof

#endif // STITCH_PROF_SPEEDSCOPE_HH
