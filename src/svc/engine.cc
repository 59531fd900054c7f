#include "svc/engine.hh"

#include <algorithm>
#include <thread>

#include "common/logging.hh"
#include "obs/buildinfo.hh"
#include "svc/artifacts.hh"
#include "telem/exposition.hh"

namespace stitch::svc
{

const char *
jobStatusName(JobResult::Status status)
{
    switch (status) {
    case JobResult::Status::Pending: return "pending";
    case JobResult::Status::Running: return "running";
    case JobResult::Status::Completed: return "completed";
    case JobResult::Status::Failed: return "failed";
    case JobResult::Status::Cancelled: return "cancelled";
    case JobResult::Status::Shed: return "shed";
    }
    return "?";
}

JobEngine::JobEngine(const EngineOptions &options)
    : options_(options), injector_(options.chaos),
      cache_(options.cacheDir, options.memCacheEntries)
{
    options_.retry.validate();
    if (injector_.active())
        cache_.setFaultInjector(&injector_);
    // Trace ids must be unique within the engine (splitmix64 over the
    // job index guarantees that) and unlikely to collide across
    // engines; fold the wall clock in for the latter.
    traceSeed_ = telem::traceIdFor(
        static_cast<std::uint64_t>(
            std::chrono::system_clock::now()
                .time_since_epoch()
                .count()),
        reinterpret_cast<std::uintptr_t>(this));

    registry_.add("svc.jobs", jobStats_);
    registry_.add("svc.cache", cacheStats_);
    registry_.add("svc.queue", queueStats_);
    registry_.add("svc.latency", latencyStats_);
    // Materialize the counter set so reports carry stable keys even
    // before the first job.
    for (const char *name :
         {"submitted", "completed", "failed", "cancelled", "shed",
          "cache_hits", "simulated"})
        jobStats_.counter(name);
    queueStats_.counter("peak_depth");
    for (const char *name : {"le_1ms", "le_10ms", "le_100ms", "le_1s",
                             "le_10s", "gt_10s"})
        latencyStats_.counter(name);
    registry_.add("svc.resilience", resilienceStats_);
    for (const char *name :
         {"rejected", "shed", "retries", "retry_exhausted",
          "injected_throws", "injected_stalls", "watchdog_trips",
          "deadline_exceeded"})
        resilienceStats_.counter(name);
    if (!options_.remoteCache.peers.empty()) {
        remote_ = std::make_unique<RemoteCacheClient>(
            options_.remoteCache);
        registry_.add("svc.remote_cache", remoteStats_);
        for (const char *name :
             {"hits", "misses", "errors", "invalidated", "stores",
              "store_failures"})
            remoteStats_.counter(name);
    }

    // The continuous-telemetry organs. All off by default so batch
    // behaviour (and its report bytes) are untouched; stitchd arms
    // them all.
    if (!options_.slo.empty())
        slo_ = std::make_unique<telem::SloEngine>(options_.slo);
    if (options_.flightRecorder || !options_.flightDir.empty()) {
        telem::FlightOptions flightOptions;
        flightOptions.dumpDir = options_.flightDir;
        flight_ =
            std::make_unique<telem::FlightRecorder>(flightOptions);
    }
    // Every span the sink closes feeds the per-stage span histograms
    // (the span-only latency stages and the span rollup) and, when
    // armed, the trace's black box.
    spanSink_.setObserver([this](const telem::Span &span) {
        {
            std::lock_guard<std::mutex> lock(spanHistMutex_);
            spanHist_[static_cast<int>(span.stage)].record(
                span.durationUs());
        }
        if (flight_)
            flight_->span(span);
    });
    if (options_.metricsIntervalMs > 0) {
        collector_ = std::make_unique<telem::Collector>(
            [this] { return metricsSnapshot(); },
            options_.metricsIntervalMs,
            [this](const telem::Window &window) {
                if (slo_)
                    slo_->observe(window);
            });
        collector_->start();
    }
}

JobEngine::~JobEngine()
{
    // The collector samples *this; it must be parked before any
    // member tears down.
    if (collector_)
        collector_->stop();
    // run() joins the watchdog on every exit path; this is only the
    // backstop against a future path that forgets.
    if (watchdog_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            wdStop_ = true;
        }
        wdCv_.notify_all();
        watchdog_.join();
    }
}

telem::TraceContext
JobEngine::contextFor(const Job &job, int worker) const
{
    telem::TraceContext ctx;
    ctx.traceId = job.result.traceId;
    ctx.jobId = job.id;
    ctx.worker = worker;
    ctx.sink = options_.telemetry
                   ? const_cast<telem::SpanSink *>(&spanSink_)
                   : nullptr;
    return ctx;
}

int
JobEngine::submit(const JobSpec &spec)
{
    const std::uint64_t t0 = spanSink_.nowUs();
    spec.validate();
    const std::string key = spec.cacheKey();

    std::lock_guard<std::mutex> lock(mutex_);

    if (options_.maxQueueDepth > 0 &&
        static_cast<std::size_t>(pendingJobs_) >=
            options_.maxQueueDepth) {
        // Admission control. Shedding policy: the *lowest* pending
        // band pays first, and only for a strictly higher-priority
        // newcomer — an equal-or-lower one is rejected outright.
        // Either way the outcome is typed, never a silent drop.
        const int lowestBand = std::prev(pendingPerBand_.end())->first;
        if (spec.priority <= lowestBand) {
            resilienceStats_.inc("rejected");
            throw OverloadedError(detail::formatMessage(
                "queue full (", pendingJobs_, "/",
                options_.maxQueueDepth,
                " pending) and priority ", spec.priority,
                " does not outrank band ", lowestBand));
        }
        // Shed the oldest pending job of the lowest band (dense ids
        // are submit-ordered, so the first match is the oldest).
        for (auto &victimPtr : jobs_) {
            Job &victim = *victimPtr;
            if (victim.result.status != JobResult::Status::Pending ||
                victim.spec.priority != lowestBand)
                continue;
            victim.result.status = JobResult::Status::Shed;
            victim.result.errorKind = "overloaded";
            victim.result.error = detail::formatMessage(
                "shed under overload by higher-priority job (band ",
                lowestBand, " -> ", spec.priority, ")");
            leavePending(victim);
            jobStats_.inc("shed");
            resilienceStats_.inc("shed");
            if (flight_) {
                flight_->event(victim.result.traceId,
                               spanSink_.nowUs(), "shed",
                               victim.result.error);
                const obs::Json build = obs::buildInfoJson();
                flight_->dump(victim.result.traceId, "overloaded",
                              victim.result.error, &build);
            }
            break;
        }
    }

    const int id = static_cast<int>(jobs_.size());
    auto job = std::make_unique<Job>();
    job->id = id;
    job->spec = spec;
    job->result.key = key;
    job->result.traceId =
        telem::traceIdFor(traceSeed_,
                          static_cast<std::uint64_t>(id));
    job->submitUs = spanSink_.nowUs();
    if (options_.telemetry)
        spanSink_.record({job->result.traceId, id,
                          telem::Stage::Submit, t0, job->submitUs,
                          /*worker=*/-1});
    if (flight_) {
        flight_->attach(job->result.traceId, id);
        flight_->event(job->result.traceId, job->submitUs,
                       "submitted",
                       detail::formatMessage("priority ",
                                             spec.priority));
    }
    jobs_.push_back(std::move(job));
    queue_.push({spec.priority, -id});
    ++pendingPerBand_[spec.priority];
    ++pendingJobs_;
    if (spec.deadlineMs > 0)
        ++pendingDeadlineJobs_;
    jobStats_.inc("submitted");
    queueStats_.set("peak_depth",
                    std::max<std::uint64_t>(
                        queueStats_.get("peak_depth"),
                        static_cast<std::uint64_t>(pendingJobs_)));
    return id;
}

int
JobEngine::submit(const obs::Json &doc)
{
    return submit(JobSpec::fromJson(doc));
}

bool
JobEngine::cancel(int id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (id < 0 || id >= static_cast<int>(jobs_.size()))
        return false;
    Job &job = *jobs_[static_cast<std::size_t>(id)];
    if (job.result.status != JobResult::Status::Pending)
        return false;
    job.result.status = JobResult::Status::Cancelled;
    leavePending(job);
    jobStats_.inc("cancelled");
    return true;
}

void
JobEngine::leavePending(const Job &job)
{
    --pendingJobs_;
    if (job.spec.deadlineMs > 0)
        --pendingDeadlineJobs_;
    if (auto it = pendingPerBand_.find(job.spec.priority);
        it != pendingPerBand_.end() && --it->second <= 0)
        pendingPerBand_.erase(it);
}

void
JobEngine::leaveRunning(const Job &job)
{
    --runningJobs_;
    if (job.deadlineAtUs > 0)
        std::erase(runningDeadlineJobs_, &job);
}

void
JobEngine::recordLatency(Job &job, std::uint64_t finishUs)
{
    JobResult &result = job.result;
    result.latencyMs =
        static_cast<double>(finishUs - job.claimUs) / 1000.0;
    result.queueMs =
        static_cast<double>(job.claimUs - job.submitUs) / 1000.0;
    result.e2eMs =
        static_cast<double>(finishUs - job.submitUs) / 1000.0;

    using telem::Stage;
    stageHist_[static_cast<int>(Stage::Queue)].record(job.claimUs -
                                                      job.submitUs);
    stageHist_[static_cast<int>(Stage::Job)].record(finishUs -
                                                    job.submitUs);
    if (cache_.enabled())
        stageHist_[static_cast<int>(Stage::CacheProbe)].record(
            job.probeUs);
    if (job.reportUs > 0)
        stageHist_[static_cast<int>(Stage::Report)].record(
            job.reportUs);

    const double ms = result.latencyMs;
    const char *bucket = ms <= 1.0      ? "le_1ms"
                         : ms <= 10.0   ? "le_10ms"
                         : ms <= 100.0  ? "le_100ms"
                         : ms <= 1e3    ? "le_1s"
                         : ms <= 1e4    ? "le_10s"
                                        : "gt_10s";
    latencyStats_.inc(bucket);
}

void
JobEngine::finishCompleted(Job &job, const CacheEntry &entry,
                           bool cached)
{
    job.result.report = entry.report;
    job.result.derived = entry.derived;
    job.result.cached = cached;
    job.result.status = JobResult::Status::Completed;
    leaveRunning(job);
    jobStats_.inc("completed");
    jobStats_.inc(cached ? "cache_hits" : "simulated");
    recordLatency(job, spanSink_.nowUs());
    // A healthy landing: the black box has nothing left to tell.
    if (flight_)
        flight_->forget(job.result.traceId);
}

void
JobEngine::finishFailed(Job &job, const std::string &kind,
                        const std::string &message)
{
    job.result.error = message;
    job.result.errorKind = kind;
    job.result.status = JobResult::Status::Failed;
    leaveRunning(job);
    jobStats_.inc("failed");
    const std::uint64_t finishUs = spanSink_.nowUs();
    recordLatency(job, finishUs);

    ErrorRecord record;
    record.jobId = job.id;
    record.traceId = job.result.traceId;
    record.kind = kind;
    record.error = message;
    record.atMs = static_cast<double>(finishUs) / 1000.0;
    errorRing_.push_back(std::move(record));
    while (errorRing_.size() > errorRingEntries)
        errorRing_.pop_front();

    // Every typed failure leaves a flight record behind.
    if (flight_) {
        flight_->event(job.result.traceId, finishUs, "failed",
                       detail::formatMessage(kind, ": ", message));
        const obs::Json build = obs::buildInfoJson();
        flight_->dump(job.result.traceId, kind, message, &build);
    }
}

/**
 * The worker attempt loop: chaos injection, the simulation itself,
 * the typed exception-to-kind mapping, and deterministic jittered
 * retry of chaos-transient failures. Runs without mutex_ held.
 */
void
JobEngine::runSimulation(Job &job, const telem::TraceContext &ctx,
                         CacheEntry &entry, bool &failed,
                         std::string &kind, std::string &error)
{
    for (int attempt = 1;; ++attempt) {
        failed = false;
        kind.clear();
        error.clear();
        try {
            if (injector_.active()) {
                // Stall first (a wedged worker), then maybe throw (a
                // crashed one). The stall polls the abort flag so a
                // deadline can cut it short — that is precisely how
                // the watchdog scenario terminates.
                std::uint64_t stall =
                    injector_.stallUs(job.id, attempt);
                if (stall > 0) {
                    {
                        std::lock_guard<std::mutex> lock(mutex_);
                        resilienceStats_.inc("injected_stalls");
                    }
                    if (flight_)
                        flight_->event(
                            job.result.traceId, spanSink_.nowUs(),
                            "injected_stall",
                            detail::formatMessage(stall, " us"));
                    const std::uint64_t until =
                        spanSink_.nowUs() + stall;
                    while (spanSink_.nowUs() < until) {
                        if (job.abortRequested.load(
                                std::memory_order_relaxed))
                            throw fault::DeadlineExceededError(
                                detail::formatMessage(
                                    "stalled worker aborted by the "
                                    "deadline watchdog (attempt ",
                                    attempt, ")"));
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(1));
                    }
                }
                if (injector_.throwOnAttempt(job.id, attempt)) {
                    {
                        std::lock_guard<std::mutex> lock(mutex_);
                        resilienceStats_.inc("injected_throws");
                    }
                    if (flight_)
                        flight_->event(
                            job.result.traceId, spanSink_.nowUs(),
                            "injected_throw",
                            detail::formatMessage("attempt ",
                                                  attempt));
                    throw InjectedFaultError(detail::formatMessage(
                        "injected worker fault (job ", job.id,
                        ", attempt ", attempt, ")"));
                }
            }

            const apps::AppSpec &app = job.spec.resolveApp();
            apps::RunConfig runConfig = job.spec.runConfig();
            runConfig.trace = ctx;
            runConfig.abortFlag = &job.abortRequested;
            apps::AppRunResult res =
                runner_.run(app, job.spec.mode, runConfig);
            const std::uint64_t reportStart = spanSink_.nowUs();
            {
                telem::ScopedSpan span(ctx, telem::Stage::Report);
                ReportOptions reportOptions;
                reportOptions.profile = job.spec.artifacts.profile;
                reportOptions.energy = job.spec.artifacts.energy;
                entry.report = obs::Json::freeze(
                    appReportJson(res, reportOptions));
                entry.derived = obs::Json::freeze(derivedJson(res));
                if (cache_.memEnabled() || cache_.diskEnabled())
                    cache_.store(job.spec, entry);
            }
            job.reportUs = spanSink_.nowUs() - reportStart;
        } catch (const InjectedFaultError &e) {
            // The only *retryable* kind: transient by construction.
            if (attempt < options_.retry.maxAttempts) {
                const std::uint64_t delay =
                    options_.retry.delayUsAfter(
                        static_cast<std::uint64_t>(job.id), attempt);
                const std::uint64_t t0 = spanSink_.nowUs();
                std::this_thread::sleep_for(
                    std::chrono::microseconds(delay));
                ctx.record(telem::Stage::Backoff, t0,
                           spanSink_.nowUs());
                if (flight_)
                    flight_->event(
                        job.result.traceId, spanSink_.nowUs(),
                        "retry",
                        detail::formatMessage("attempt ", attempt,
                                              " backed off ", delay,
                                              " us"));
                std::lock_guard<std::mutex> lock(mutex_);
                resilienceStats_.inc("retries");
                stageHist_[static_cast<int>(telem::Stage::Backoff)]
                    .record(delay);
                continue;
            }
            failed = true;
            kind = "injected";
            error = e.what();
            std::lock_guard<std::mutex> lock(mutex_);
            if (options_.retry.enabled())
                resilienceStats_.inc("retry_exhausted");
        } catch (const fault::DeadlineExceededError &e) {
            failed = true;
            kind = "deadline";
            error = e.what();
            std::lock_guard<std::mutex> lock(mutex_);
            resilienceStats_.inc("deadline_exceeded");
        } catch (const fault::ConfigError &e) {
            failed = true;
            kind = "config";
            error = e.what();
        } catch (const fault::BinaryMismatchError &e) {
            failed = true;
            kind = "mismatch";
            error = e.what();
        } catch (const fault::SimError &e) {
            failed = true;
            kind = "sim";
            error = e.what();
        } catch (const std::exception &e) {
            failed = true;
            kind = "internal";
            error = e.what();
        }
        job.result.attempts = attempt;
        return;
    }
}

bool
JobEngine::claimAndRunOne(int worker)
{
    Job *claimed = nullptr;
    telem::TraceContext ctx;

    {
        std::lock_guard<std::mutex> lock(mutex_);
        const std::uint64_t claimStart = spanSink_.nowUs();
        while (!queue_.empty()) {
            const int id = -queue_.top().second;
            queue_.pop();
            Job &job = *jobs_[static_cast<std::size_t>(id)];
            if (job.result.status == JobResult::Status::Cancelled ||
                job.result.status == JobResult::Status::Shed)
                continue; // cancelled/shed while queued; stale entry
            claimed = &job;
            break;
        }
        if (!claimed)
            return false;

        Job &job = *claimed;
        job.result.status = JobResult::Status::Running;
        job.claimUs = spanSink_.nowUs();
        if (job.spec.deadlineMs > 0) {
            job.deadlineAtUs =
                job.claimUs + job.spec.deadlineMs * 1000;
            runningDeadlineJobs_.push_back(&job);
        }
        ++runningJobs_;
        leavePending(job);

        ctx = contextFor(job, worker);
        // The queue span closes the moment a worker picks the job up.
        ctx.record(telem::Stage::Queue, job.submitUs, job.claimUs);
        if (flight_)
            flight_->event(job.result.traceId, job.claimUs,
                           "claimed",
                           detail::formatMessage("worker ", worker));

        if (cache_.memEnabled() || cache_.diskEnabled()) {
            // Resolve against the cache inside the claim critical
            // section: attribution (hit vs simulate) becomes a pure
            // function of submit order, independent of worker count.
            const std::uint64_t probeStart = spanSink_.nowUs();
            auto hit = cache_.memLookup(job.result.key, ctx);
            job.probeUs = spanSink_.nowUs() - probeStart;
            if (hit) {
                finishCompleted(job, *hit, /*cached=*/true);
                ctx.record(telem::Stage::Claim, claimStart,
                           spanSink_.nowUs());
                ctx.record(telem::Stage::Job, job.submitUs,
                           spanSink_.nowUs());
                return true;
            }
            if (flight_)
                flight_->event(job.result.traceId,
                               spanSink_.nowUs(), "cache_miss");
            if (auto it = inflight_.find(job.result.key);
                it != inflight_.end()) {
                job.flight = it->second; // coalesce: wait below
                if (flight_)
                    flight_->event(job.result.traceId,
                                   spanSink_.nowUs(), "coalesced",
                                   "waiting on in-flight twin");
            } else {
                job.flight = std::make_shared<Flight>();
                job.flightOwner = true;
                inflight_[job.result.key] = job.flight;
            }
        }
        ctx.record(telem::Stage::Claim, claimStart,
                   spanSink_.nowUs());
    }

    Job &job = *claimed;

    if (job.flight && !job.flightOwner) {
        // An identical spec is simulating right now; adopt its
        // outcome instead of simulating twice.
        std::unique_lock<std::mutex> flightLock(job.flight->mutex);
        job.flight->cv.wait(flightLock,
                            [&] { return job.flight->done; });
        const bool failed = job.flight->failed;
        const std::string error = job.flight->error;
        const std::string kind = job.flight->errorKind;
        const CacheEntry entry = job.flight->entry;
        flightLock.unlock();

        std::lock_guard<std::mutex> lock(mutex_);
        if (failed)
            finishFailed(job, kind, error);
        else
            finishCompleted(job, entry, /*cached=*/true);
        ctx.record(telem::Stage::Job, job.submitUs,
                   spanSink_.nowUs());
        return true;
    }

    // This worker owns the simulation (or caching is fully disabled).
    CacheEntry entry;
    bool failed = false;
    bool fromDisk = false;
    bool fromRemote = false;
    std::string error, kind;
    if (job.flightOwner) {
        const std::uint64_t probeStart = spanSink_.nowUs();
        auto hit = cache_.diskLookup(job.spec, ctx);
        job.probeUs += spanSink_.nowUs() - probeStart;
        if (hit) {
            entry = *hit;
            fromDisk = true;
        }
        if (!fromDisk && remote_) {
            // Read-through to the shared cache tier: a peer shard
            // that already simulated this spec saves us the run.
            // Probed outside mutex_ — this is network I/O.
            const std::uint64_t remoteStart = spanSink_.nowUs();
            auto remoteHit =
                remote_->lookup(job.spec, job.result.key);
            job.probeUs += spanSink_.nowUs() - remoteStart;
            if (remoteHit) {
                entry = *remoteHit;
                fromRemote = true;
                // Promote into the local layers so the next
                // duplicate is a mem hit at claim time.
                if (cache_.enabled())
                    cache_.store(job.spec, entry);
                if (flight_)
                    flight_->event(job.result.traceId,
                                   spanSink_.nowUs(),
                                   "remote_cache_hit");
            }
        }
    }
    const bool fromCache = fromDisk || fromRemote;
    if (!fromCache)
        runSimulation(job, ctx, entry, failed, kind, error);

    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (failed)
            finishFailed(job, kind, error);
        else
            finishCompleted(job, entry, /*cached=*/fromCache);
    }
    if (!failed && !fromCache && remote_)
        // Write-behind: replicate the fresh simulation to the peers
        // (async by default; never blocks or fails the job).
        remote_->storeBehind(job.spec, job.result.key, entry);
    ctx.record(telem::Stage::Job, job.submitUs, spanSink_.nowUs());

    if (job.flightOwner) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            inflight_.erase(job.result.key);
        }
        std::lock_guard<std::mutex> flightLock(job.flight->mutex);
        job.flight->failed = failed;
        job.flight->error = error;
        job.flight->errorKind = kind;
        job.flight->entry = entry;
        job.flight->done = true;
        job.flight->cv.notify_all();
    }
    return true;
}

/**
 * Deadline watchdog: wakes every watchdogPollMs, trips the abort
 * flag of any running job past its deadline. Detection is *stuck
 * worker* shaped — a worker that stops making progress (a stalled
 * simulation, an injected stall) is asked to unwind cooperatively;
 * the thread itself is never killed, so no lock or cache entry can
 * be orphaned mid-update.
 */
void
JobEngine::watchdogLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (!wdStop_) {
        const std::uint64_t now = spanSink_.nowUs();
        for (Job *job : runningDeadlineJobs_) {
            if (now < job->deadlineAtUs)
                continue;
            if (!job->abortRequested.exchange(
                    true, std::memory_order_relaxed)) {
                resilienceStats_.inc("watchdog_trips");
                if (flight_)
                    flight_->event(
                        job->result.traceId, now, "watchdog_trip",
                        "deadline passed; abort requested");
            }
        }
        wdCv_.wait_for(
            lock,
            std::chrono::milliseconds(options_.watchdogPollMs));
    }
}

void
JobEngine::run()
{
    // Arm the watchdog only when this drain can need it: a pending
    // job with a deadline (an armed chaos stall without a deadline
    // just runs long — nothing to abort).
    bool needWatchdog = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        wdStop_ = false;
        needWatchdog = pendingDeadlineJobs_ > 0;
    }
    if (needWatchdog)
        watchdog_ = std::thread([this] { watchdogLoop(); });

    struct WatchdogJoin
    {
        JobEngine *engine;
        ~WatchdogJoin()
        {
            if (!engine->watchdog_.joinable())
                return;
            {
                std::lock_guard<std::mutex> lock(engine->mutex_);
                engine->wdStop_ = true;
            }
            engine->wdCv_.notify_all();
            engine->watchdog_.join();
        }
    } joiner{this};

    int workers = options_.jobs;
    if (workers < 1)
        workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers < 1)
        workers = 1;

    std::size_t pending = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        pending = static_cast<std::size_t>(pendingJobs_);
    }
    workers = std::min<int>(workers, static_cast<int>(pending));

    if (workers <= 1) {
        while (claimAndRunOne(/*worker=*/0)) {}
        return;
    }

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w)
        pool.emplace_back([this, w] {
            while (claimAndRunOne(w)) {}
        });
    for (auto &t : pool)
        t.join();
}

int
JobEngine::jobCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int>(jobs_.size());
}

const JobSpec &
JobEngine::spec(int id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return jobs_.at(static_cast<std::size_t>(id))->spec;
}

const JobResult &
JobEngine::result(int id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return jobs_.at(static_cast<std::size_t>(id))->result;
}

telem::TraceContext
JobEngine::traceContext(int id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    telem::TraceContext ctx;
    if (id < 0 || id >= static_cast<int>(jobs_.size()))
        return ctx;
    ctx.traceId =
        jobs_[static_cast<std::size_t>(id)]->result.traceId;
    ctx.jobId = id;
    ctx.sink = options_.telemetry
                   ? const_cast<telem::SpanSink *>(&spanSink_)
                   : nullptr;
    return ctx;
}

obs::Json
JobEngine::latencyJson() const
{
    using telem::Stage;
    std::lock_guard<std::mutex> spanLock(spanHistMutex_);
    obs::Json doc = obs::Json::object();
    auto add = [&](Stage stage, const telem::Histogram &hist,
                   const char *label = nullptr) {
        if (hist.count() == 0 && stage != Stage::Queue &&
            stage != Stage::Job)
            return; // quiet stages only pad the document
        doc.set(label ? label : telem::stageName(stage),
                hist.toJson());
    };
    add(Stage::Queue, stageHist_[static_cast<int>(Stage::Queue)]);
    add(Stage::CacheProbe,
        stageHist_[static_cast<int>(Stage::CacheProbe)]);
    add(Stage::Compile, spanHist_[static_cast<int>(Stage::Compile)]);
    add(Stage::Stitch, spanHist_[static_cast<int>(Stage::Stitch)]);
    add(Stage::Simulate,
        spanHist_[static_cast<int>(Stage::Simulate)]);
    add(Stage::Report, stageHist_[static_cast<int>(Stage::Report)]);
    add(Stage::Respond, spanHist_[static_cast<int>(Stage::Respond)]);
    add(Stage::Backoff,
        stageHist_[static_cast<int>(Stage::Backoff)]);
    add(Stage::Job, stageHist_[static_cast<int>(Stage::Job)],
        "e2e");
    return doc;
}

obs::Json
JobEngine::spanRollupJson() const
{
    std::lock_guard<std::mutex> spanLock(spanHistMutex_);
    obs::Json doc = obs::Json::object();
    for (int s = 0; s < telem::numStages; ++s) {
        const telem::Histogram &hist = spanHist_[s];
        if (hist.count() == 0)
            continue;
        obs::Json entry = obs::Json::object();
        entry.set("spans", hist.count());
        entry.set("total_ms", static_cast<double>(hist.sum()) / 1000.0);
        doc.set(telem::stageName(static_cast<telem::Stage>(s)),
                std::move(entry));
    }
    return doc;
}

JobEngine::Load
JobEngine::load() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return {static_cast<std::uint64_t>(pendingJobs_),
            static_cast<std::uint64_t>(runningJobs_)};
}

telem::MetricSample
JobEngine::metricsSnapshot() const
{
    telem::MetricSample sample;
    sample.atUs = spanSink_.nowUs();
    // The cache keeps its own lock; read it before taking ours.
    const ResultCache::Stats cs = cache_.stats();

    std::lock_guard<std::mutex> lock(mutex_);
    auto counter = [&](std::string name, std::uint64_t value) {
        sample.counters.emplace_back(std::move(name), value);
    };
    for (const char *name :
         {"submitted", "completed", "failed", "cancelled", "shed",
          "cache_hits", "simulated"})
        counter(std::string("jobs_") + name, jobStats_.get(name));
    counter("cache_mem_hits", cs.memHits);
    counter("cache_disk_hits", cs.diskHits);
    counter("cache_misses", cs.misses);
    counter("cache_stores", cs.stores);
    counter("cache_invalidated", cs.invalidated);
    counter("cache_evictions", cs.evictions);
    counter("cache_write_failures", cs.writeFailures);
    counter("cache_torn_writes", cs.tornWrites);
    counter("cache_quarantined", cs.quarantined);
    counter("cache_tmp_swept", cs.tmpSwept);
    for (const char *name :
         {"rejected", "shed", "retries", "retry_exhausted",
          "injected_throws", "injected_stalls", "watchdog_trips",
          "deadline_exceeded"})
        counter(std::string("resilience_") + name,
                resilienceStats_.get(name));
    if (slo_) {
        counter("slo_violations", slo_->violations());
        counter("slo_alerts", slo_->alertsRaised());
    }
    if (flight_)
        counter("flight_dumps", flight_->dumps());
    if (remote_) {
        const RemoteCacheStats rs = remote_->stats();
        counter("remote_cache_hits", rs.hits);
        counter("remote_cache_misses", rs.misses);
        counter("remote_cache_errors", rs.errors);
        counter("remote_cache_invalidated", rs.invalidated);
        counter("remote_cache_stores", rs.stores);
        counter("remote_cache_store_failures", rs.storeFailures);
        sample.gauges.emplace_back(
            "remote_cache_pending",
            static_cast<double>(rs.pending));
    }

    sample.gauges.emplace_back(
        "queue_depth", static_cast<double>(pendingJobs_));
    sample.gauges.emplace_back(
        "in_flight", static_cast<double>(runningJobs_));
    sample.gauges.emplace_back("cache_degraded",
                               cs.degraded ? 1.0 : 0.0);
    if (slo_)
        sample.gauges.emplace_back(
            "slo_alerts_active",
            static_cast<double>(slo_->alertsActive()));

    using telem::Stage;
    // Engine-recorded stages only: snapshotting must stay cheap, so
    // no span-sink scan here (compile/stitch/simulate remain report
    // material, not scrape material).
    sample.histograms.emplace_back(
        "queue", stageHist_[static_cast<int>(Stage::Queue)]);
    sample.histograms.emplace_back(
        "cache_probe",
        stageHist_[static_cast<int>(Stage::CacheProbe)]);
    sample.histograms.emplace_back(
        "report", stageHist_[static_cast<int>(Stage::Report)]);
    sample.histograms.emplace_back(
        "backoff", stageHist_[static_cast<int>(Stage::Backoff)]);
    sample.histograms.emplace_back(
        "e2e", stageHist_[static_cast<int>(Stage::Job)]);
    return sample;
}

std::string
JobEngine::expositionText(double uptimeS,
                          std::uint64_t served) const
{
    telem::ExpositionExtras extras;
    extras.uptimeS = uptimeS;
    extras.served = served;
    const obs::Json build = obs::buildInfoJson();
    extras.buildInfo = &build;
    obs::Json sloStatus;
    if (slo_) {
        sloStatus = slo_->statusJson();
        extras.sloStatus = &sloStatus;
    }
    return telem::prometheusText(metricsSnapshot(), extras);
}

void
JobEngine::recordProtocolFailure(const std::string &message)
{
    if (!flight_)
        return;
    std::uint64_t traceId = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // High bit keeps the synthetic index clear of job ids.
        traceId = telem::traceIdFor(
            traceSeed_,
            (1ull << 63) | protocolFailures_++);
    }
    flight_->attach(traceId, /*jobId=*/-1);
    flight_->event(traceId, spanSink_.nowUs(), "protocol_error",
                   message);
    const obs::Json build = obs::buildInfoJson();
    flight_->dump(traceId, "protocol", message, &build);
}

void
JobEngine::flushRemoteCache()
{
    if (remote_)
        remote_->flush();
}

obs::Json
JobEngine::serviceReportJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Mirror the cache's own counters into the registry group so the
    // report is one coherent tree.
    const ResultCache::Stats cs = cache_.stats();
    cacheStats_.set("mem_hits", cs.memHits);
    cacheStats_.set("disk_hits", cs.diskHits);
    cacheStats_.set("misses", cs.misses);
    cacheStats_.set("stores", cs.stores);
    cacheStats_.set("invalidated", cs.invalidated);
    cacheStats_.set("evictions", cs.evictions);
    cacheStats_.set("write_failures", cs.writeFailures);
    cacheStats_.set("torn_writes", cs.tornWrites);
    cacheStats_.set("quarantined", cs.quarantined);
    cacheStats_.set("tmp_swept", cs.tmpSwept);
    cacheStats_.set("degraded", cs.degraded ? 1 : 0);
    queueStats_.set("depth",
                    static_cast<std::uint64_t>(pendingJobs_));
    if (remote_) {
        const RemoteCacheStats rs = remote_->stats();
        remoteStats_.set("hits", rs.hits);
        remoteStats_.set("misses", rs.misses);
        remoteStats_.set("errors", rs.errors);
        remoteStats_.set("invalidated", rs.invalidated);
        remoteStats_.set("stores", rs.stores);
        remoteStats_.set("store_failures", rs.storeFailures);
    }

    obs::Json doc = obs::Json::object();
    doc.set("schema", serviceReportSchema);
    doc.set("version", serviceReportVersion);
    doc.set("jobs", static_cast<std::uint64_t>(jobs_.size()));
    doc.set("telemetry", options_.telemetry);
    doc.set("counters", registry_.toJson(/*skipZero=*/false));
    doc.set("latency", latencyJson());
    if (options_.telemetry)
        doc.set("spans", spanRollupJson());
    // v3: provenance on every service report; the continuous-
    // telemetry sections only when their organ is armed.
    doc.set("build", obs::buildInfoJson());
    if (slo_) {
        obs::Json slo = obs::Json::object();
        slo.set("objectives", slo_->statusJson());
        slo.set("violations", slo_->violations());
        slo.set("alerts_raised", slo_->alertsRaised());
        slo.set("alerts_active", slo_->alertsActive());
        doc.set("slo", std::move(slo));
    }
    if (collector_)
        doc.set("series", collector_->series().toJson());
    if (flight_)
        doc.set("flight", flight_->statsJson());
    return doc;
}

obs::Json
JobEngine::introspectionJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);

    obs::Json doc = obs::Json::object();
    std::uint64_t depth = 0;
    obs::Json bands = obs::Json::object();
    for (const auto &[priority, count] : pendingPerBand_) {
        depth += static_cast<std::uint64_t>(count);
        bands.set(std::to_string(priority), count);
    }
    doc.set("queue_depth", depth);
    doc.set("in_flight",
            static_cast<std::uint64_t>(runningJobs_));
    doc.set("per_band_backlog", std::move(bands));

    obs::Json jobs = obs::Json::object();
    for (const char *name :
         {"submitted", "completed", "failed", "cancelled", "shed",
          "cache_hits", "simulated"})
        jobs.set(name, jobStats_.get(name));
    doc.set("jobs", std::move(jobs));

    obs::Json admission = obs::Json::object();
    admission.set("max_queue_depth",
                  static_cast<std::uint64_t>(
                      options_.maxQueueDepth));
    for (const char *name :
         {"rejected", "shed", "retries", "retry_exhausted",
          "injected_throws", "injected_stalls", "watchdog_trips",
          "deadline_exceeded"})
        admission.set(name, resilienceStats_.get(name));
    doc.set("resilience", std::move(admission));

    const ResultCache::Stats cs = cache_.stats();
    obs::Json cache = obs::Json::object();
    cache.set("mem_hits", cs.memHits);
    cache.set("disk_hits", cs.diskHits);
    cache.set("misses", cs.misses);
    cache.set("stores", cs.stores);
    cache.set("invalidated", cs.invalidated);
    cache.set("evictions", cs.evictions);
    cache.set("hit_rate", cs.hitRate());
    cache.set("write_failures", cs.writeFailures);
    cache.set("torn_writes", cs.tornWrites);
    cache.set("quarantined", cs.quarantined);
    cache.set("tmp_swept", cs.tmpSwept);
    cache.set("degraded", cs.degraded);
    doc.set("cache", std::move(cache));

    if (remote_) {
        const RemoteCacheStats rs = remote_->stats();
        obs::Json remote = obs::Json::object();
        remote.set("peers", static_cast<std::uint64_t>(
                                remote_->peers().size()));
        remote.set("hits", rs.hits);
        remote.set("misses", rs.misses);
        remote.set("errors", rs.errors);
        remote.set("invalidated", rs.invalidated);
        remote.set("stores", rs.stores);
        remote.set("store_failures", rs.storeFailures);
        remote.set("pending", rs.pending);
        doc.set("remote_cache", std::move(remote));
    }

    doc.set("latency", latencyJson());

    if (slo_) {
        obs::Json slo = obs::Json::object();
        slo.set("objectives", slo_->statusJson());
        slo.set("violations", slo_->violations());
        slo.set("alerts_raised", slo_->alertsRaised());
        slo.set("alerts_active", slo_->alertsActive());
        doc.set("slo", std::move(slo));
    }
    if (collector_)
        doc.set("series", collector_->series().toJson());
    if (flight_)
        doc.set("flight", flight_->statsJson());

    obs::Json errors = obs::Json::array();
    for (const ErrorRecord &record : errorRing_) {
        obs::Json entry = obs::Json::object();
        entry.set("job", record.jobId);
        entry.set("trace_id", telem::traceIdHex(record.traceId));
        entry.set("kind", record.kind);
        entry.set("error", record.error);
        entry.set("at_ms", record.atMs);
        errors.push(std::move(entry));
    }
    doc.set("errors", std::move(errors));
    return doc;
}

} // namespace stitch::svc
