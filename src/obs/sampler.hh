/**
 * @file
 * Fixed-window interval sampler for cycle-attribution timelines.
 *
 * Like the Tracer, an ordinary object a run is handed:
 * apps::AppRunner builds one for its measured run when
 * apps::RunConfig::profileInterval is set (--profile=INTERVAL), passes
 * it through sim::SystemParams::sampler (null = off, one predictable
 * branch) and keeps it as AppRunResult::timeline. The producer
 * (sim::System's run loop) feeds per-track cycle deltas tagged with a
 * small series index; the sampler bins them into fixed windows of
 * `interval` cycles.
 *
 * The sampler is deliberately generic — tracks are small integers
 * (tile ids) and series are named by the producer at beginRun() — so
 * obs stays ignorant of the attribution semantics that src/prof/
 * assigns to the series. Every delta is attributed in full to the
 * window containing the producing step's completion time, so window
 * sums per track equal the run's aggregate counters exactly (a step
 * spanning a window boundary is not split; with >=1k-cycle windows
 * and <=35-cycle steps the visual skew is negligible).
 */

#ifndef STITCH_OBS_SAMPLER_HH
#define STITCH_OBS_SAMPLER_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"

namespace stitch::obs
{

/** Interval profiler of one run (timeline of attribution buckets). */
class Sampler
{
  public:
    /** Upper bound on series per track (attribution buckets + spare). */
    static constexpr int maxSeries = 8;

    /** One window's cycles per series. */
    struct Window
    {
        std::array<std::uint64_t, maxSeries> cycles{};
    };

    /** Sample `interval`-cycle windows; fatal if `interval` is 0. */
    explicit Sampler(Cycles interval = 1000);

    /**
     * Producer handshake at the start of one simulated run: name the
     * series and drop any previous run's windows, so the timeline
     * always describes the most recent run.
     */
    void beginRun(const std::vector<std::string> &seriesNames);

    /** Add `cycles` of series `series` to track `track` at `time`. */
    void
    add(int track, Cycles time, int series, std::uint64_t cycles)
    {
        auto w = static_cast<std::size_t>(time / interval_);
        auto &windows = tracks_[track];
        if (windows.size() <= w)
            windows.resize(w + 1);
        windows[w].cycles[static_cast<std::size_t>(series)] += cycles;
    }

    Cycles interval() const { return interval_; }
    bool hasData() const { return !tracks_.empty(); }
    const std::vector<std::string> &seriesNames() const
    {
        return seriesNames_;
    }

    /** Windows of every track that recorded at least one delta. */
    const std::map<int, std::vector<Window>> &tracks() const
    {
        return tracks_;
    }

  private:
    Cycles interval_;
    std::vector<std::string> seriesNames_;
    std::map<int, std::vector<Window>> tracks_;
};

} // namespace stitch::obs

#endif // STITCH_OBS_SAMPLER_HH
