/**
 * @file
 * Cycle-level event tracer emitting Chrome trace_event JSON, loadable
 * in chrome://tracing or Perfetto (https://ui.perfetto.dev).
 *
 * A Tracer is an ordinary object that a run is handed: a harness
 * opens one per --trace=FILE (obs::CliOptions owns it) and passes its
 * address through apps::RunConfig / sim::SystemParams::tracer, and
 * sim::System hands it to the cores, caches and NoC model it owns.
 * Each hook is guarded by `if (tracer_)` — one predictable branch, so
 * an untraced run (null pointer) pays nothing else. Events stream
 * straight to the file, so arbitrarily long runs trace in O(1)
 * memory, and an internal mutex lets concurrent runs (sweep workers)
 * share one file: each event is written whole, and one run's events
 * keep their order.
 *
 * Track model: pid 1 ("tiles") carries one thread per tile with
 * coalesced exec slices (args: the `custs` and `fused` custom
 * instructions they retired), stall/wait slices, SEND/RECV instants
 * and cache-miss markers; pid 2 ("noc") carries per-source-tile
 * packet slices (src→dst, spanning injection to arrival).
 *
 * Timestamps are simulated cycles written in the `ts` microsecond
 * field verbatim: 1 µs in the viewer == 1 cycle.
 */

#ifndef STITCH_OBS_TRACE_HH
#define STITCH_OBS_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <mutex>
#include <string>

#include "common/types.hh"

namespace stitch::obs
{

/** Streaming Chrome trace_event writer for one trace file. */
class Tracer
{
  public:
    /** Well-known track (process) ids. */
    static constexpr int pidTiles = 1;
    static constexpr int pidNoc = 2;
    /** Service-layer job spans (telem::SpanSink exports); ts is wall
     *  microseconds here, not simulated cycles. */
    static constexpr int pidSvc = 4;

    /** One small integer event argument. */
    struct Arg
    {
        const char *key;
        std::uint64_t value;
    };

    /** Open `path` (fault::ConfigError if unwritable) and start the
     *  document. */
    explicit Tracer(const std::string &path);

    /** Finish the JSON document and close the file. */
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Make the on-disk trace a valid JSON document *without* ending
     * the recording: writes the closing brackets and flushes, then
     * rewinds over them before the next event. The simulator calls
     * this on abnormal run terminations (deadlock, surfaced fault,
     * instruction limit) so a trace truncated by a dying harness is
     * still loadable in the viewer.
     */
    void flush();

    /** Duration event [start, end) on a track. */
    void slice(int pid, int tid, const char *name, Cycles start,
               Cycles end, std::initializer_list<Arg> args = {});

    /** Zero-duration marker. */
    void instant(int pid, int tid, const char *name, Cycles ts,
                 std::initializer_list<Arg> args = {});

    /** Name a (pid, tid) lane — dynamic tracks (e.g. one lane per
     *  service job) whose count the header cannot know up front. */
    void nameTrack(int pid, int tid, const std::string &name);

  private:
    // Callers hold mutex_.
    void emitHeader();
    void retractTail();
    void metadata(int pid, int tid, const char *what,
                  const std::string &name);
    void event(char ph, int pid, int tid, const char *name, Cycles ts,
               Cycles dur, std::initializer_list<Arg> args);

    std::mutex mutex_;
    std::FILE *out_ = nullptr;
    bool first_ = true;

    /** Set while flush()'s provisional tail sits at tailPos_. */
    bool tailWritten_ = false;
    long tailPos_ = 0;
};

} // namespace stitch::obs

#endif // STITCH_OBS_TRACE_HH
