/**
 * @file
 * svc::JobEngine — the simulation job engine: a priority queue of
 * validated JobSpecs drained by a worker pool, fronted by the
 * content-addressed ResultCache.
 *
 * The engine generalizes sim::SweepRunner (same atomic-claim worker
 * idiom, same lowest-index failure reporting discipline) from "run
 * this vector of closures" to "run these described jobs": claims pop
 * in (priority desc, submit order asc), each popped job is resolved
 * against the cache *inside the claim critical section*, and
 * duplicate in-flight specs coalesce onto one simulation
 * (single-flight). Because resolution happens at claim time under the
 * lock, which jobs simulate and which count as cache hits is a pure
 * function of submit order and cache state — identical for any
 * `--jobs` value.
 *
 * Failures stay typed: a worker maps the exception hierarchy
 * (ConfigError / BinaryMismatchError / SimError / FatalError) to an
 * error kind in the JobResult instead of tearing down the batch, so a
 * mixed batch reports per-job outcomes. A job "timeout" is the
 * spec's max_instructions budget — it ends in a *completed* report
 * with Termination::InstructionLimit, never a worker hang.
 *
 * Telemetry (src/telem/) sits at job granularity, never inside the
 * simulator: every job gets a splitmix64 trace id at submit and the
 * engine always timestamps submit/claim/finish, feeding log-linear
 * latency histograms (queue wait, cache probe, report build,
 * end-to-end) that serviceReportJson() summarizes as exact
 * p50/p90/p99/max. With EngineOptions::telemetry on, the stages are
 * additionally recorded as typed spans through a telem::SpanSink —
 * propagated by explicit TraceContext through workers, the
 * ResultCache and AppRunner — exportable per batch as a Chrome trace
 * and a JSONL event log. With telemetry off nothing observable
 * changes: per-job reports are byte-identical either way.
 *
 * Resilience (this PR's layer; see DESIGN.md §13):
 *
 *  - Admission control: EngineOptions::maxQueueDepth bounds the
 *    pending queue. An over-limit submit either *sheds* the oldest
 *    job of the lowest pending priority band (when the newcomer
 *    outranks it — Status::Shed, typed, never a silent drop) or is
 *    rejected with the typed OverloadedError.
 *  - Deadlines: JobSpec::deadlineMs bounds claim-to-finish wall
 *    time. A watchdog thread trips the job's cooperative abort flag
 *    (SystemParams::abortFlag), the simulator unwinds with
 *    fault::DeadlineExceededError, and the job fails typed as
 *    "deadline" — the worker is never killed, only asked to stop.
 *  - Retry: chaos-injected transient failures (InjectedFaultError)
 *    are retried in place by the owning worker up to
 *    EngineOptions::retry.maxAttempts, with deterministic jittered
 *    exponential backoff recorded as Backoff spans/histogram.
 *    Deterministic failures (config/mismatch/sim) never retry.
 *  - Chaos: EngineOptions::chaos arms a ServiceFaultInjector shared
 *    with the ResultCache; every injection is a pure function of
 *    (plan, job id, attempt), so a single-worker engine replays a
 *    scenario exactly.
 */

#ifndef STITCH_SVC_ENGINE_HH
#define STITCH_SVC_ENGINE_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "apps/app_runner.hh"
#include "common/stats.hh"
#include "obs/json.hh"
#include "obs/registry.hh"
#include "svc/cache.hh"
#include "svc/chaos.hh"
#include "svc/job.hh"
#include "svc/remote_cache.hh"
#include "telem/flightrec.hh"
#include "telem/histogram.hh"
#include "telem/slo.hh"
#include "telem/span.hh"
#include "telem/timeseries.hh"

namespace stitch::svc
{

inline constexpr const char *serviceReportSchema =
    "stitch-service-report";
/** v3: build provenance plus, when the continuous-telemetry layer
 *  is armed, the SLO status, time-series summary and flight-recorder
 *  sections. v2 added the latency histograms and span rollup; v1
 *  carried counters only. */
inline constexpr int serviceReportVersion = 3;

/** Engine construction knobs. */
struct EngineOptions
{
    /** Worker threads; 0 = hardware concurrency. */
    int jobs = 1;

    /** On-disk cache directory; empty disables the disk layer. */
    std::string cacheDir;

    /** In-memory LRU capacity; 0 disables the memory layer (every
     *  submission simulates — useful for measurement harnesses). */
    std::size_t memCacheEntries = 256;

    /** Collect request-scoped spans (trace ids are assigned and the
     *  latency histograms fill either way; this gates only the span
     *  sink and its exports). */
    bool telemetry = false;

    /**
     * Admission limit on *pending* jobs; 0 = unbounded (the seed
     * behaviour). When the queue is full, a submit sheds the oldest
     * job of the lowest pending band if the newcomer outranks it,
     * and otherwise throws OverloadedError. Either way the outcome
     * is typed — nothing is ever dropped silently.
     */
    std::size_t maxQueueDepth = 0;

    /** Engine-side retry of chaos-transient failures (default: one
     *  attempt, i.e. no retry — the seed behaviour). */
    RetryPolicy retry;

    /** Deterministic service-tier fault injection (default: none). */
    ServiceFaultPlan chaos;

    /** Deadline watchdog poll period (ms). Only consulted while a
     *  claimed job carries a deadline. */
    std::uint64_t watchdogPollMs = 5;

    /**
     * Continuous-telemetry collector interval (ms); 0 keeps the
     * collector off — the batch default, under which reports and
     * behaviour are byte-identical to the pre-telemetry engine.
     * stitchd arms it (--metrics-interval-ms, default 1000).
     */
    std::uint64_t metricsIntervalMs = 0;

    /** SLO objectives evaluated per closed window; empty = no SLO
     *  engine (and nothing SLO-shaped in reports). */
    telem::SloConfig slo;

    /** Arm the per-job flight recorder (rings record even without a
     *  dump directory; implied by a non-empty flightDir). */
    bool flightRecorder = false;

    /** Flight-record dump directory; empty = record but never dump. */
    std::string flightDir;

    /**
     * Shared cache tier (fleet mode): peer shards consulted after a
     * local mem+disk miss (read-through) and notified after a fresh
     * simulation (write-behind). Empty peer list — the default —
     * keeps the engine byte-identical to the single-shard build.
     */
    RemoteCacheOptions remoteCache;
};

/**
 * Typed admission-control rejection: the queue is at
 * EngineOptions::maxQueueDepth and the submitted job does not
 * outrank any pending band. Callers (stitchd maps it to the
 * "overloaded" wire error) retry with backoff or surface it.
 */
class OverloadedError : public fault::SimError
{
  public:
    explicit OverloadedError(const std::string &what)
        : SimError(what)
    {}
};

/** Outcome of one submitted job. */
struct JobResult
{
    enum class Status
    {
        Pending,   ///< queued, not yet claimed
        Running,   ///< claimed by a worker
        Completed, ///< report + derived are valid
        Failed,    ///< error + errorKind are valid
        Cancelled, ///< cancelled before a worker claimed it
        Shed,      ///< evicted by admission control under overload
    };

    Status status = Status::Pending;

    /** Completed without simulating: memory hit, disk hit, or
     *  coalesced onto an identical in-flight job. */
    bool cached = false;

    std::string key;   ///< spec.cacheKey(), fixed at submit
    std::string error; ///< failure message (Status::Failed/Shed)
    /** config|mismatch|sim|internal|deadline|injected|overloaded */
    std::string errorKind;
    /** svc::appReportJson document and svc::derivedJson scalars,
     *  both frozen: shared with the cache entry, never copied. */
    obs::Json report;
    obs::Json derived;

    std::uint64_t traceId = 0; ///< request-scoped id, set at submit
    double latencyMs = 0;      ///< claim-to-finish wall time
    double queueMs = 0;        ///< submit-to-claim wall time
    double e2eMs = 0;          ///< submit-to-finish wall time
    int attempts = 1;          ///< worker attempts (retries + 1)
};

const char *jobStatusName(JobResult::Status status);

/** One entry of the failed-job ring buffer (live introspection). */
struct ErrorRecord
{
    int jobId = -1;
    std::uint64_t traceId = 0;
    std::string kind;
    std::string error;
    double atMs = 0; ///< ms since engine construction
};

/** Priority job queue + worker pool over one shared AppRunner and
 *  ResultCache (see the file comment). */
class JobEngine
{
  public:
    explicit JobEngine(const EngineOptions &options = {});
    ~JobEngine();

    JobEngine(const JobEngine &) = delete;
    JobEngine &operator=(const JobEngine &) = delete;

    /**
     * Validate and enqueue `spec`; returns the job id (dense,
     * submit-ordered). Throws fault::ConfigError on an invalid spec —
     * validation is eager, nothing invalid reaches a worker.
     */
    int submit(const JobSpec &spec);

    /** Parse, validate and enqueue a stitch-job document. */
    int submit(const obs::Json &doc);

    /**
     * Cancel a still-pending job. Returns false when the job was
     * already claimed, finished, or cancelled; a running simulation is
     * never interrupted.
     */
    bool cancel(int id);

    /** Drain the queue with the configured worker pool; returns when
     *  every non-cancelled job has finished. Re-entrant: submit more
     *  jobs afterwards and call run() again. */
    void run();

    int jobCount() const;
    const JobSpec &spec(int id) const;
    const JobResult &result(int id) const;

    ResultCache &cache() { return cache_; }
    const EngineOptions &options() const { return options_; }

    /** The shared-cache-tier client; null unless
     *  EngineOptions::remoteCache names peers. */
    RemoteCacheClient *remoteCache() { return remote_.get(); }

    /** Drain pending write-behind replication (graceful shutdown /
     *  deterministic tests); no-op without a remote tier. */
    void flushRemoteCache();

    /**
     * The service-level counters as a versioned document (v2):
     * submitted/completed/failed/cancelled, cache attribution
     * (cache_hits vs simulated), queue depth, the per-stage latency
     * histograms (queue / cache_probe / compile / stitch / simulate /
     * report / e2e with p50/p90/p99/max) and — with telemetry on —
     * the span rollup.
     */
    obs::Json serviceReportJson() const;

    /**
     * Live state for the introspection endpoints: queue depth,
     * in-flight jobs, per-priority-band backlog, cache hit/miss/evict
     * rates and the last-N failed-job ring buffer.
     */
    obs::Json introspectionJson() const;

    /** Pending and running job counts, read together under the
     *  engine lock: all a liveness probe (healthz) needs. */
    struct Load
    {
        std::uint64_t queueDepth = 0;
        std::uint64_t inFlight = 0;
    };
    Load load() const;

    /** The engine's counter registry (svc.jobs, svc.cache, svc.queue,
     *  svc.latency) for embedding in larger dumps. */
    const obs::Registry &registry() const { return registry_; }

    /** True when request-scoped span collection is on. */
    bool telemetryEnabled() const { return options_.telemetry; }

    /** The chaos injector built from EngineOptions::chaos (inactive
     *  for a default plan); shared with the ResultCache. */
    const ServiceFaultInjector &
    faultInjector() const
    {
        return injector_;
    }

    /** The span sink (empty unless telemetry is enabled). */
    const telem::SpanSink &spanSink() const { return spanSink_; }

    /**
     * One cumulative snapshot of every engine counter, gauge and
     * latency histogram — the continuous-telemetry sampling point,
     * also usable directly (stitchq --metrics-out scrapes the drained
     * engine once). Names follow the DESIGN.md §14 contract.
     */
    telem::MetricSample metricsSnapshot() const;

    /**
     * The Prometheus text exposition over a fresh snapshot, with SLO
     * status and build provenance riding along. `uptimeS` < 0 omits
     * the server-lifetime series (the non-daemon case).
     */
    std::string expositionText(double uptimeS = -1.0,
                               std::uint64_t served = 0) const;

    /** The collector's window ring; null when metricsIntervalMs is
     *  0. */
    const telem::Collector *collector() const
    {
        return collector_.get();
    }

    /** The SLO engine; null when no objectives were configured. */
    const telem::SloEngine *slo() const { return slo_.get(); }

    /** The flight recorder; null unless armed. */
    const telem::FlightRecorder *flightRecorder() const
    {
        return flight_.get();
    }

    /**
     * Record a request that failed before it could become a job (a
     * framing violation, a malformed document): attaches a synthetic
     * trace id and dumps a kind="protocol" flight record so even
     * jobless failures leave a black box. No-op unless the flight
     * recorder is armed.
     */
    void recordProtocolFailure(const std::string &message);

    /** Context for recording engine-adjacent spans (e.g. stitchd's
     *  respond stage) against job `id`; disabled when telemetry is
     *  off or the id is unknown. */
    telem::TraceContext traceContext(int id) const;

  private:
    /** Coalescing point for identical in-flight specs: the claim
     *  owner simulates and publishes; waiters block on `cv`. */
    struct Flight
    {
        std::mutex mutex;
        std::condition_variable cv;
        bool done = false;
        bool failed = false;
        std::string error;
        std::string errorKind;
        CacheEntry entry;
    };

    struct Job
    {
        int id = -1; ///< dense index into jobs_
        JobSpec spec;
        JobResult result;
        std::shared_ptr<Flight> flight; ///< set at claim time
        bool flightOwner = false;

        std::uint64_t submitUs = 0; ///< enqueue time (sink epoch)
        std::uint64_t claimUs = 0;  ///< worker claim time
        /** Worker-measured stage durations folded into the latency
         *  histograms at finish (µs). */
        std::uint64_t probeUs = 0;
        std::uint64_t reportUs = 0;

        /** Absolute deadline (sink epoch µs); 0 = none. Set at claim
         *  from spec.deadlineMs; the watchdog compares against it. */
        std::uint64_t deadlineAtUs = 0;

        /** Cooperative abort token: the watchdog sets it, the
         *  simulator (via RunConfig::abortFlag) and the chaos stall
         *  loop poll it. Jobs live behind unique_ptr, so the address
         *  is stable for the simulation's whole life. */
        std::atomic<bool> abortRequested{false};
    };

    /** Bookkeeping for a pending job leaving the queue (claimed,
     *  cancelled or shed); mutex_ held. */
    void leavePending(const Job &job);
    /** Bookkeeping for a running job finishing; mutex_ held. */
    void leaveRunning(const Job &job);
    bool claimAndRunOne(int worker);
    void runSimulation(Job &job, const telem::TraceContext &ctx,
                       CacheEntry &entry, bool &failed,
                       std::string &kind, std::string &error);
    void watchdogLoop();
    void finishCompleted(Job &job, const CacheEntry &entry,
                         bool cached);
    void finishFailed(Job &job, const std::string &kind,
                      const std::string &message);
    void recordLatency(Job &job, std::uint64_t finishUs);
    telem::TraceContext contextFor(const Job &job, int worker) const;
    /** Latency histograms by stage; mutex_ held. */
    obs::Json latencyJson() const;
    /** Per-stage span count and total duration (ms), from the
     *  span-fed histograms; mutex_ held. */
    obs::Json spanRollupJson() const;

    EngineOptions options_;
    ServiceFaultInjector injector_; ///< stateless; shared with cache_
    ResultCache cache_;
    /** Shared cache tier client; null unless peers configured. Own
     *  lock; lookups happen on the worker side outside mutex_. */
    std::unique_ptr<RemoteCacheClient> remote_;
    apps::AppRunner runner_;

    mutable std::mutex mutex_; ///< jobs_, queue_, inflight_, stats
    std::vector<std::unique_ptr<Job>> jobs_;

    /** Max-heap of (priority, -id): priority desc, submit order asc. */
    std::priority_queue<std::pair<int, int>> queue_;

    /** cacheKey -> in-flight simulation for single-flight dedup. */
    std::map<std::string, std::shared_ptr<Flight>> inflight_;

    /** priority -> still-pending jobs (live per-band backlog). */
    std::map<int, int, std::greater<int>> pendingPerBand_;
    int pendingJobs_ = 0; ///< sum of pendingPerBand_ (admission test)
    /** Pending jobs that carry a deadline: run() arms the watchdog
     *  only when this is positive. */
    int pendingDeadlineJobs_ = 0;
    int runningJobs_ = 0;
    /** Running jobs that carry a deadline: the watchdog's scan. */
    std::vector<Job *> runningDeadlineJobs_;

    /** Deadline watchdog (started lazily by run(), joined at drain).
     *  wdStop_/wdCv_ use mutex_; the loop holds it only to scan. */
    std::thread watchdog_;
    std::condition_variable wdCv_;
    bool wdStop_ = false;

    /** Engine-recorded latency histograms, guarded by mutex_:
     *  indexed by telem::Stage (queue, cache_probe, report, job). */
    telem::Histogram stageHist_[telem::numStages];

    /** Span-fed histograms, one per stage, filled by the span-sink
     *  observer as each span closes: the latency of the stages that
     *  reach the engine only as spans (compile, stitch, simulate,
     *  respond) and, for every stage, the span rollup. Their own lock,
     *  never mutex_: submit() and the claim path record spans while
     *  holding mutex_. Order: mutex_, then spanHistMutex_. */
    mutable std::mutex spanHistMutex_;
    telem::Histogram spanHist_[telem::numStages];

    /** The last errorRingEntries failed jobs, oldest first (guarded
     *  by mutex_). */
    static constexpr std::size_t errorRingEntries = 32;
    std::deque<ErrorRecord> errorRing_;

    /** Span store + the wall-clock epoch all timestamps share. The
     *  sink always exists (it is the clock); spans are appended only
     *  when options_.telemetry is set. */
    telem::SpanSink spanSink_;
    std::uint64_t traceSeed_ = 0;

    StatGroup jobStats_; ///< svc.jobs
    /** svc.cache / svc.queue: refreshed from live state inside the
     *  const serviceReportJson(), hence mutable. */
    mutable StatGroup cacheStats_;
    mutable StatGroup queueStats_;
    StatGroup latencyStats_;    ///< svc.latency buckets
    StatGroup resilienceStats_; ///< svc.resilience (admission/retry)
    /** svc.remote_cache — registered only in fleet mode so
     *  single-shard reports keep their exact shape. */
    mutable StatGroup remoteStats_;
    obs::Registry registry_;

    /** Continuous-telemetry organs (all optional; see
     *  EngineOptions). Own locks each — never taken under mutex_
     *  except flight event/dump appends, which nest safely (the
     *  recorder calls nothing back). */
    std::unique_ptr<telem::SloEngine> slo_;
    std::unique_ptr<telem::FlightRecorder> flight_;
    std::uint64_t protocolFailures_ = 0; ///< synthetic trace index
    /** Declared last: destroyed (and its thread joined) first. The
     *  destructor also stops it explicitly before members tear
     *  down. */
    std::unique_ptr<telem::Collector> collector_;
};

} // namespace stitch::svc

#endif // STITCH_SVC_ENGINE_HH
