/**
 * @file
 * Continuous time-series telemetry: periodic snapshots of the
 * service counters turned into fixed-capacity windows of deltas.
 *
 * The batch-era telemetry (histograms, span rollups) materializes
 * once, at drain time. A long-running daemon instead needs to be
 * watched *while it runs*: a collector thread samples every counter,
 * gauge and latency histogram at a fixed interval, forms the
 * element-wise delta against the previous sample (`Window`), and
 * appends it to a bounded ring (`TimeSeries`). Windows inherit the
 * algebra of telem::Histogram — element-wise mergeable, order
 * independent — so two rings recorded by different shards (the
 * fleet work ahead) fold together by aligning sequence numbers and
 * merging window by window.
 *
 * Lock discipline: sampling happens on the collector thread at
 * window granularity (once per interval, never per job), and the
 * ring takes its own mutex only on push/snapshot — nothing here
 * runs on a worker's hot path.
 */

#ifndef STITCH_TELEM_TIMESERIES_HH
#define STITCH_TELEM_TIMESERIES_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json.hh"
#include "telem/histogram.hh"

namespace stitch::telem
{

/**
 * One cumulative snapshot of every service metric: monotone
 * counters, instantaneous gauges and cumulative latency histograms,
 * stamped with the sample time (sink-epoch µs). Names are the
 * exposition names minus the "stitch_" prefix and type suffix —
 * DESIGN.md §14 fixes the mapping to the v2-report counter tree.
 */
struct MetricSample
{
    std::uint64_t atUs = 0;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, Histogram>> histograms;

    std::uint64_t counter(const std::string &name) const;
    double gauge(const std::string &name) const;
    const Histogram *histogram(const std::string &name) const;

    /** Element-wise merge with another shard's sample: counters and
     *  histograms add, gauges add (the fleet-level gauge is the sum
     *  over shards), the timestamp is the latest. The fleet
     *  aggregation primitive — associative and commutative like
     *  Histogram::merge. */
    void merge(const MetricSample &other);

    /**
     * Lossless wire form: {"at_us", "counters":{...},
     * "gauges":{...}, "histograms":{name: bucketsJson}} using
     * Histogram::toBucketsJson, so a router can fromWireJson() a
     * shard's sample and merge() it with full bucket fidelity.
     */
    obs::Json toWireJson() const;
    static MetricSample fromWireJson(const obs::Json &doc);
};

/**
 * One closed window: the element-wise delta between two consecutive
 * samples of the same engine. Counters carry the per-window
 * increment, gauges the end-of-window value, histograms the
 * per-window sample population (Histogram::diffFrom).
 */
struct Window
{
    std::uint64_t seq = 0; ///< position in the series, 0-based
    std::uint64_t startUs = 0;
    std::uint64_t endUs = 0;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, Histogram>> histograms;

    std::uint64_t counter(const std::string &name) const;
    double gauge(const std::string &name) const;
    const Histogram *histogram(const std::string &name) const;

    double durationS() const
    {
        return static_cast<double>(endUs - startUs) / 1e6;
    }

    /** Per-second rate of `name` over this window. */
    double rate(const std::string &name) const;

    /** Element-wise merge with a window of the same seq recorded by
     *  another shard: counters and histograms add, gauges add (the
     *  fleet-level gauge is the sum over shards), the time span is
     *  the union. */
    void merge(const Window &other);

    obs::Json toJson() const;

    /** Lossless wire form (same layout as MetricSample::toWireJson
     *  plus seq/start_us/end_us) for cross-shard window merging. */
    obs::Json toWireJson() const;
    static Window fromWireJson(const obs::Json &doc);
};

/** Delta of two consecutive cumulative samples (later - earlier). */
Window windowBetween(const MetricSample &earlier,
                     const MetricSample &later);

/** Bounded ring of the most recent windows (oldest evicted first). */
class TimeSeries
{
  public:
    explicit TimeSeries(std::size_t capacity = 120);

    void push(Window window);

    std::size_t capacity() const { return capacity_; }
    std::size_t size() const;

    /** Windows recorded over the series' whole life (>= size()). */
    std::uint64_t totalWindows() const;

    /** Oldest-first copy of the retained windows. */
    std::vector<Window> snapshot() const;

    /** Fold another shard's ring into this one: windows with equal
     *  seq merge element-wise, unmatched windows are adopted, and
     *  the result is re-bounded to capacity. */
    void merge(const TimeSeries &other);

    /** {capacity, windows, retained, last: {...}} summary. */
    obs::Json toJson() const;

  private:
    void pushLocked(Window window);

    mutable std::mutex mutex_;
    std::size_t capacity_;
    std::deque<Window> windows_; ///< oldest first
    std::uint64_t total_ = 0;
};

/**
 * The sampling thread: calls `sample` every `intervalMs`, closes the
 * window against the previous snapshot, appends it to the owned
 * TimeSeries and hands it to `onWindow` (the SLO engine's evaluation
 * hook). Construction does not start the thread — call start();
 * stop() (and the destructor) joins it. tick() forces one sample
 * synchronously, which tests and drain paths use to close a final
 * window without waiting out the interval.
 */
class Collector
{
  public:
    using SampleFn = std::function<MetricSample()>;
    using WindowFn = std::function<void(const Window &)>;

    Collector(SampleFn sample, std::uint64_t intervalMs,
              WindowFn onWindow = {}, std::size_t capacity = 120);
    ~Collector();

    Collector(const Collector &) = delete;
    Collector &operator=(const Collector &) = delete;

    void start();
    void stop();

    /** Take one sample now (thread-safe against the timer thread). */
    void tick();

    const TimeSeries &series() const { return series_; }
    std::uint64_t intervalMs() const { return intervalMs_; }

  private:
    void loop();
    void sampleOnce();

    SampleFn sample_;
    WindowFn onWindow_;
    std::uint64_t intervalMs_;
    TimeSeries series_;

    std::mutex mutex_; ///< prev_ + stop flag; ring has its own lock
    std::condition_variable cv_;
    bool stop_ = false;
    bool havePrev_ = false;
    std::uint64_t nextSeq_ = 0;
    MetricSample prev_;
    std::thread thread_;
};

} // namespace stitch::telem

#endif // STITCH_TELEM_TIMESERIES_HH
