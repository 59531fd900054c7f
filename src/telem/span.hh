/**
 * @file
 * Request-scoped tracing for the service layer: every job submitted
 * to the engine gets a splitmix64 trace id, and the stages of its
 * life (submit → queue → claim → cache_probe → compile → stitch →
 * simulate → report → respond) are recorded as typed, wall-clock
 * spans through a thread-safe sink.
 *
 * Propagation is explicit — a small `TraceContext` value (trace id,
 * job id, sink pointer) rides along through JobEngine workers,
 * ResultCache probes and AppRunner, no thread-local magic — so a
 * disabled context (null sink) costs a pointer test and nothing
 * else, and a run with telemetry off is byte-identical to one that
 * predates the telemetry layer. The sink locks only on span *close*
 * (one append per stage per job, never inside the simulator), which
 * keeps it lock-cheap at job granularity.
 *
 * Exports: a valid Chrome trace (one lane per job, written through
 * the existing obs::Tracer so the viewer conventions match the
 * simulator traces) and a JSONL structured event log (one span
 * object per line, grep/jq-friendly).
 */

#ifndef STITCH_TELEM_SPAN_HH
#define STITCH_TELEM_SPAN_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace stitch::telem
{

/** The span taxonomy — one stage per step of a job's life. */
enum class Stage
{
    Submit,     ///< validate + enqueue (inside JobEngine::submit)
    Queue,      ///< enqueued, waiting for a worker claim
    Claim,      ///< the claim critical section
    CacheProbe, ///< memory/disk cache lookup
    Compile,    ///< per-stage kernel compilation (AppRunner)
    Stitch,     ///< stitch planning (AppRunner, Stitch modes)
    Simulate,   ///< the short + long simulated runs (AppRunner)
    Report,     ///< report/derived document construction
    Respond,    ///< serializing + writing the wire response (stitchd)
    Backoff,    ///< jittered retry wait before a re-enqueue/resend
    Job,        ///< the end-to-end envelope (submit → finish)
};

inline constexpr int numStages = static_cast<int>(Stage::Job) + 1;

const char *stageName(Stage stage);

/** One closed span. Times are microseconds since the sink's epoch. */
struct Span
{
    std::uint64_t traceId = 0;
    int jobId = -1;
    Stage stage = Stage::Job;
    std::uint64_t startUs = 0;
    std::uint64_t endUs = 0;
    int worker = -1; ///< claiming worker; -1 outside the worker pool

    std::uint64_t durationUs() const { return endUs - startUs; }
};

/** splitmix64 finalizer over (seed + index): a bijection per seed, so
 *  ids within one engine epoch are unique by construction. */
std::uint64_t traceIdFor(std::uint64_t seed, std::uint64_t index);

/** Render a trace id the way every export spells it (16 hex). */
std::string traceIdHex(std::uint64_t traceId);

/**
 * Thread-safe append-only store of closed spans, plus the batch
 * epoch every span timestamp is relative to.
 */
class SpanSink
{
  public:
    SpanSink();

    /** Microseconds since the sink's epoch (monotonic clock). */
    std::uint64_t nowUs() const;

    /** Append one closed span (locks; call at span close only). */
    void record(const Span &span);

    /**
     * Secondary consumer of every span close (the engine's span-fed
     * latency histograms and flight recorder). Called after the
     * append, outside the sink's lock — the observer takes its own
     * lock and must never call back into the sink. Set once at
     * engine construction, before any span flows.
     */
    void setObserver(std::function<void(const Span &)> observer);

    std::size_t count() const;
    std::vector<Span> snapshot() const;
    void clear();

    /**
     * Write every recorded span as a Chrome trace through an
     * obs::Tracer of its own: pid 4 ("svc"), one lane per job id,
     * stage slices nested inside the job envelope, trace id and
     * worker as event args. Throws fault::ConfigError on an
     * unwritable path.
     */
    void writeChromeTrace(const std::string &path) const;

    /** One JSON object per span, one per line (structured log). */
    void writeJsonl(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::function<void(const Span &)> observer_;
    std::chrono::steady_clock::time_point epoch_;
};

/**
 * The explicitly-propagated handle: which request this is and where
 * its spans go. A default-constructed context is disabled; every
 * instrumentation point tests `enabled()` first, so carrying a
 * disabled context through AppRunner costs one branch per *stage*,
 * never per instruction.
 */
struct TraceContext
{
    std::uint64_t traceId = 0;
    int jobId = -1;
    int worker = -1;
    SpanSink *sink = nullptr;

    bool enabled() const { return sink != nullptr; }

    std::uint64_t nowUs() const { return sink ? sink->nowUs() : 0; }

    /** Record a closed [startUs, endUs) span of `stage`. */
    void
    record(Stage stage, std::uint64_t startUs,
           std::uint64_t endUs) const
    {
        if (!sink)
            return;
        sink->record({traceId, jobId, stage, startUs, endUs, worker});
    }
};

/** RAII helper: opens at construction, records at destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(const TraceContext &ctx, Stage stage)
        : ctx_(ctx), stage_(stage),
          start_(ctx.enabled() ? ctx.nowUs() : 0)
    {}

    ~ScopedSpan() { close(); }

    /** Record now instead of at scope exit; idempotent. */
    void
    close()
    {
        if (!closed_ && ctx_.enabled())
            ctx_.record(stage_, start_, ctx_.nowUs());
        closed_ = true;
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    TraceContext ctx_;
    Stage stage_;
    std::uint64_t start_;
    bool closed_ = false;
};

} // namespace stitch::telem

#endif // STITCH_TELEM_SPAN_HH
