/**
 * @file
 * Service-tier chaos tests: the ServiceFaultPlan / ServiceFaultInjector
 * keyed-draw machinery (purity, stream independence, seed
 * reproducibility), the deterministic RetryPolicy backoff schedule,
 * and every injectable scenario end to end — worker throws retried in
 * place, retry exhaustion, deadline watchdog trips, cache write
 * failures and torn entries, and wire-level resets and malformed
 * frames against a live in-process Server. Plus the drain
 * regression: stopping the server mid-chaos-request must still yield
 * a complete, valid v2 service report.
 */

#include <chrono>
#include <cmath>
#include <filesystem>
#include <thread>

#include <gtest/gtest.h>

#include "obs/json.hh"
#include "svc/chaos.hh"
#include "svc/engine.hh"
#include "svc/server.hh"

namespace stitch::svc
{
namespace
{

namespace fs = std::filesystem;

std::string
scratchDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + "stitch_chaos_" + name;
    fs::remove_all(dir);
    return dir;
}

JobSpec
cheapSpec(int variant = 0)
{
    JobSpec spec;
    spec.app = "APP1-gesture";
    spec.mode = apps::AppMode::Baseline;
    spec.samplesShort = 1;
    spec.samplesLong = 2 + variant;
    return spec;
}

obs::Json
cheapJobDoc(int variant = 0)
{
    return cheapSpec(variant).toJson();
}

const obs::Json &
resilienceCounters(const obs::Json &report)
{
    return report.get("counters").get("svc").get("resilience");
}

// ---------------------------------------------------------------- //
// ServiceFaultPlan / ServiceFaultInjector

TEST(ServiceFaultPlan, ValidationRejectsBadProbabilities)
{
    ServiceFaultPlan plan;
    EXPECT_NO_THROW(plan.validate());
    EXPECT_FALSE(plan.anyFault());

    plan.workerThrowProb = 1.5;
    EXPECT_THROW(plan.validate(), fault::ConfigError);
    plan.workerThrowProb = -0.1;
    EXPECT_THROW(plan.validate(), fault::ConfigError);

    // A stall probability without a stall length is meaningless.
    plan = ServiceFaultPlan{};
    plan.workerStallProb = 0.5;
    plan.stallMs = 0;
    EXPECT_THROW(plan.validate(), fault::ConfigError);

    // The injector validates eagerly at construction.
    plan.workerStallProb = 2.0;
    EXPECT_THROW(ServiceFaultInjector{plan}, fault::ConfigError);
}

TEST(ServiceFaultPlan, NamedConstructorsArmExactlyOneMechanism)
{
    EXPECT_TRUE(ServiceFaultPlan::workerThrows(0.5, 1)
                    .anyWorkerFault());
    EXPECT_FALSE(ServiceFaultPlan::workerThrows(0.5, 1)
                     .anyCacheFault());
    EXPECT_TRUE(ServiceFaultPlan::workerStalls(0.5, 10, 1)
                    .anyWorkerFault());
    EXPECT_TRUE(ServiceFaultPlan::cacheWriteFailures(0.5, 1)
                    .anyCacheFault());
    EXPECT_TRUE(ServiceFaultPlan::tornCacheEntries(0.5, 1)
                    .anyCacheFault());
    EXPECT_TRUE(ServiceFaultPlan::connectionResets(0.5, 1)
                    .anyWireFault());
    EXPECT_TRUE(ServiceFaultPlan::malformedFrames(0.5, 1)
                    .anyWireFault());
    EXPECT_FALSE(ServiceFaultPlan::none().anyFault());
    EXPECT_FALSE(ServiceFaultPlan::none().describe().empty());
    EXPECT_NE(ServiceFaultPlan::workerThrows(0.5, 1).describe(),
              ServiceFaultPlan::none().describe());
}

TEST(ServiceFaultInjector, DrawsArePureFunctionsOfPlanAndIdentity)
{
    ServiceFaultPlan plan;
    plan.seed = 1234;
    plan.workerThrowProb = 0.5;
    plan.workerStallProb = 0.5;
    plan.stallMs = 5;
    plan.cacheWriteFailProb = 0.5;
    plan.connResetProb = 0.5;

    const ServiceFaultInjector a(plan), b(plan);
    for (int i = 0; i < 64; ++i) {
        // Same plan, same identity -> same verdict, in any order,
        // from any instance. This is what makes a multi-worker
        // engine replay a scenario exactly.
        EXPECT_EQ(a.throwOnAttempt(i, 1), b.throwOnAttempt(i, 1));
        EXPECT_EQ(a.throwOnAttempt(i, 2), b.throwOnAttempt(i, 2));
        EXPECT_EQ(a.stallUs(i, 1), b.stallUs(i, 1));
        EXPECT_EQ(a.failCacheWrite(static_cast<std::uint64_t>(i)),
                  b.failCacheWrite(static_cast<std::uint64_t>(i)));
        EXPECT_EQ(a.resetConnection(static_cast<std::uint64_t>(i)),
                  b.resetConnection(static_cast<std::uint64_t>(i)));
    }
}

TEST(ServiceFaultInjector, StreamsAndSeedsAreIndependent)
{
    ServiceFaultPlan plan;
    plan.seed = 99;
    plan.workerThrowProb = 0.5;
    plan.cacheWriteFailProb = 0.5;
    const ServiceFaultInjector injector(plan);

    ServiceFaultPlan other = plan;
    other.seed = 100;
    const ServiceFaultInjector reseeded(other);

    // Each mechanism draws from its own stream and each seed from its
    // own sequence: over 64 identities the patterns must diverge.
    bool streamsDiffer = false, seedsDiffer = false;
    for (int i = 0; i < 64; ++i) {
        if (injector.throwOnAttempt(i, 1) !=
            injector.failCacheWrite(static_cast<std::uint64_t>(i)))
            streamsDiffer = true;
        if (injector.throwOnAttempt(i, 1) !=
            reseeded.throwOnAttempt(i, 1))
            seedsDiffer = true;
    }
    EXPECT_TRUE(streamsDiffer);
    EXPECT_TRUE(seedsDiffer);

    // And the attempt is part of the identity: retries get fresh
    // draws, not a replay of the first attempt.
    bool attemptsDiffer = false;
    for (int i = 0; i < 64 && !attemptsDiffer; ++i)
        attemptsDiffer =
            injector.throwOnAttempt(i, 1) !=
            injector.throwOnAttempt(i, 2);
    EXPECT_TRUE(attemptsDiffer);
}

TEST(ServiceFaultInjector, ProbabilityExtremesAreCertainties)
{
    const ServiceFaultInjector always(
        ServiceFaultPlan::workerThrows(1.0, 5));
    const ServiceFaultInjector never(ServiceFaultPlan::none());
    for (int i = 0; i < 16; ++i) {
        EXPECT_TRUE(always.throwOnAttempt(i, 1));
        EXPECT_FALSE(never.throwOnAttempt(i, 1));
        EXPECT_EQ(never.stallUs(i, 1), 0u);
        EXPECT_FALSE(
            never.failCacheWrite(static_cast<std::uint64_t>(i)));
    }
}

// ---------------------------------------------------------------- //
// RetryPolicy

TEST(RetryPolicy, ValidatesItsKnobs)
{
    RetryPolicy policy;
    EXPECT_NO_THROW(policy.validate());
    EXPECT_FALSE(policy.enabled()); // one attempt = no retry

    policy.maxAttempts = 0;
    EXPECT_THROW(policy.validate(), fault::ConfigError);
    policy = RetryPolicy{};
    policy.baseDelayMs = -1.0;
    EXPECT_THROW(policy.validate(), fault::ConfigError);
    policy = RetryPolicy{};
    policy.multiplier = 0.5; // backoff must not shrink
    EXPECT_THROW(policy.validate(), fault::ConfigError);
}

TEST(RetryPolicy, BackoffIsDeterministicJitteredAndCapped)
{
    RetryPolicy policy;
    policy.maxAttempts = 8;
    policy.baseDelayMs = 2.0;
    policy.maxDelayMs = 10.0;
    policy.multiplier = 2.0;
    policy.seed = 77;

    RetryPolicy same = policy;
    bool anyNonZero = false;
    for (int attempt = 1; attempt < 8; ++attempt) {
        const std::uint64_t us = policy.delayUsAfter(3, attempt);
        // Reproducible: the schedule is a pure function of
        // (policy, key, attempt).
        EXPECT_EQ(us, same.delayUsAfter(3, attempt));
        // Full jitter within the capped ceiling.
        const double ceilMs = std::min(
            policy.maxDelayMs,
            policy.baseDelayMs *
                std::pow(policy.multiplier, attempt - 1));
        EXPECT_LE(us, static_cast<std::uint64_t>(ceilMs * 1000.0));
        anyNonZero = anyNonZero || us > 0;
    }
    EXPECT_TRUE(anyNonZero);

    // Different keys get different schedules (no thundering herd).
    bool keysDiffer = false;
    for (std::uint64_t key = 0; key < 32 && !keysDiffer; ++key)
        keysDiffer = policy.delayUsAfter(key, 2) !=
                     policy.delayUsAfter(key + 100, 2);
    EXPECT_TRUE(keysDiffer);
}

// ---------------------------------------------------------------- //
// Engine-path chaos

TEST(ChaosEngine, InjectedThrowIsRetriedInPlaceToCompletion)
{
    // Find a seed whose job-0 draw throws on attempt 1 but not on
    // attempt 2 — self-contained, no magic constants.
    std::uint64_t seed = 0;
    for (std::uint64_t s = 1; s < 200; ++s) {
        ServiceFaultInjector probe(
            ServiceFaultPlan::workerThrows(0.5, s));
        if (probe.throwOnAttempt(0, 1) &&
            !probe.throwOnAttempt(0, 2)) {
            seed = s;
            break;
        }
    }
    ASSERT_NE(seed, 0u);

    EngineOptions options;
    options.chaos = ServiceFaultPlan::workerThrows(0.5, seed);
    options.retry.maxAttempts = 2;
    options.retry.baseDelayMs = 0.05;
    options.retry.maxDelayMs = 0.5;
    JobEngine engine(options);
    const int id = engine.submit(cheapSpec());
    engine.run();

    const JobResult &result = engine.result(id);
    ASSERT_EQ(result.status, JobResult::Status::Completed);
    EXPECT_EQ(result.attempts, 2);

    const obs::Json report = engine.serviceReportJson();
    EXPECT_EQ(resilienceCounters(report).get("retries").asUint(), 1u);
    EXPECT_GE(resilienceCounters(report)
                  .get("injected_throws")
                  .asUint(),
              1u);
}

TEST(ChaosEngine, RetryExhaustionFailsTypedAsInjected)
{
    EngineOptions options;
    options.chaos = ServiceFaultPlan::workerThrows(1.0, 11);
    options.retry.maxAttempts = 3;
    options.retry.baseDelayMs = 0.05;
    options.retry.maxDelayMs = 0.5;
    JobEngine engine(options);
    const int id = engine.submit(cheapSpec());
    engine.run();

    const JobResult &result = engine.result(id);
    ASSERT_EQ(result.status, JobResult::Status::Failed);
    EXPECT_EQ(result.errorKind, "injected");
    EXPECT_EQ(result.attempts, 3);
    const obs::Json report = engine.serviceReportJson();
    EXPECT_EQ(
        resilienceCounters(report).get("retry_exhausted").asUint(),
        1u);
}

TEST(ChaosEngine, WithoutRetryBudgetInjectedThrowFailsFirstAttempt)
{
    EngineOptions options;
    options.chaos = ServiceFaultPlan::workerThrows(1.0, 12);
    JobEngine engine(options);
    const int id = engine.submit(cheapSpec());
    engine.run();
    const JobResult &result = engine.result(id);
    ASSERT_EQ(result.status, JobResult::Status::Failed);
    EXPECT_EQ(result.errorKind, "injected");
    EXPECT_EQ(result.attempts, 1);
}

TEST(ChaosEngine, SameSeedReproducesTheSameOutcomes)
{
    auto outcomes = [](std::uint64_t seed) {
        EngineOptions options;
        options.chaos = ServiceFaultPlan::workerThrows(0.5, seed);
        JobEngine engine(options);
        std::vector<int> ids;
        for (int i = 0; i < 6; ++i)
            ids.push_back(engine.submit(cheapSpec(i)));
        engine.run();
        std::string signature;
        for (int id : ids) {
            const JobResult &r = engine.result(id);
            signature += jobStatusName(r.status);
            signature += ":" + r.errorKind + ";";
        }
        return signature;
    };
    EXPECT_EQ(outcomes(21), outcomes(21));
    // ... and the seed matters (some seed in a short range differs).
    bool anyDiffers = false;
    const std::string base = outcomes(21);
    for (std::uint64_t s = 22; s < 30 && !anyDiffers; ++s)
        anyDiffers = outcomes(s) != base;
    EXPECT_TRUE(anyDiffers);
}

TEST(ChaosEngine, StalledWorkerTripsDeadlineWatchdog)
{
    EngineOptions options;
    options.chaos = ServiceFaultPlan::workerStalls(1.0, 2000, 31);
    options.watchdogPollMs = 2;
    JobEngine engine(options);
    JobSpec spec = cheapSpec();
    spec.deadlineMs = 30;
    const int id = engine.submit(spec);
    const auto start = std::chrono::steady_clock::now();
    engine.run();
    const double tookMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();

    const JobResult &result = engine.result(id);
    ASSERT_EQ(result.status, JobResult::Status::Failed);
    EXPECT_EQ(result.errorKind, "deadline");
    // The watchdog freed the worker long before the 2 s stall.
    EXPECT_LT(tookMs, 1500.0);

    const obs::Json report = engine.serviceReportJson();
    EXPECT_EQ(
        resilienceCounters(report).get("watchdog_trips").asUint(),
        1u);
    EXPECT_EQ(
        resilienceCounters(report).get("deadline_exceeded").asUint(),
        1u);
}

TEST(ChaosEngine, DeadlineAfterManyRetiredJobsStillTripsTheWatchdog)
{
    // run() arms the watchdog from a count of pending deadline jobs,
    // not a scan of every job ever admitted: a long history of
    // completed and cancelled jobs (some of them with deadlines) must
    // neither hide a new deadline nor leave a stale count behind.
    EngineOptions options;
    options.chaos = ServiceFaultPlan::workerStalls(1.0, 2000, 31);
    options.watchdogPollMs = 2;
    JobEngine engine(options);
    // Pre-seed the cache so the history never simulates (and so never
    // stalls): every completed job is a memory hit.
    engine.cache().store(cheapSpec(), {obs::Json::object(),
                                       obs::Json::object()});
    for (int i = 0; i < 500; ++i) {
        JobSpec hit = cheapSpec();
        hit.deadlineMs = i % 2 ? 30 : 0;
        const int id = engine.submit(hit);
        engine.run();
        ASSERT_EQ(engine.result(id).status,
                  JobResult::Status::Completed);
        ASSERT_TRUE(engine.result(id).cached);
    }
    for (int i = 0; i < 500; ++i) {
        JobSpec doomed = cheapSpec(1);
        doomed.deadlineMs = i % 2 ? 30 : 0;
        ASSERT_TRUE(engine.cancel(engine.submit(doomed)));
    }
    engine.run();

    JobSpec spec = cheapSpec(2);
    spec.deadlineMs = 30;
    const int id = engine.submit(spec);
    const auto start = std::chrono::steady_clock::now();
    engine.run();
    const double tookMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();

    ASSERT_EQ(engine.result(id).status, JobResult::Status::Failed);
    EXPECT_EQ(engine.result(id).errorKind, "deadline");
    EXPECT_LT(tookMs, 1500.0);
    EXPECT_EQ(resilienceCounters(engine.serviceReportJson())
                  .get("watchdog_trips")
                  .asUint(),
              1u);
}

TEST(ChaosEngine, ShortStallWithoutDeadlineCompletes)
{
    EngineOptions options;
    options.chaos = ServiceFaultPlan::workerStalls(1.0, 3, 32);
    JobEngine engine(options);
    const int id = engine.submit(cheapSpec());
    engine.run();
    EXPECT_EQ(engine.result(id).status, JobResult::Status::Completed);
    const obs::Json report = engine.serviceReportJson();
    EXPECT_GE(
        resilienceCounters(report).get("injected_stalls").asUint(),
        1u);
}

TEST(ChaosEngine, GenerousDeadlineNeverTrips)
{
    JobEngine engine;
    JobSpec spec = cheapSpec();
    spec.deadlineMs = 60000;
    const int id = engine.submit(spec);
    engine.run();
    EXPECT_EQ(engine.result(id).status, JobResult::Status::Completed);
    const obs::Json report = engine.serviceReportJson();
    EXPECT_EQ(
        resilienceCounters(report).get("watchdog_trips").asUint(),
        0u);
}

TEST(ChaosEngine, CacheWriteFailuresDegradeWithoutFailingJobs)
{
    const std::string dir = scratchDir("engine_degrade");
    EngineOptions options;
    options.cacheDir = dir;
    options.chaos = ServiceFaultPlan::cacheWriteFailures(1.0, 41);
    JobEngine engine(options);
    std::vector<int> ids;
    for (int i = 0; i < 4; ++i)
        ids.push_back(engine.submit(cheapSpec(i)));
    engine.run();

    for (int id : ids)
        EXPECT_EQ(engine.result(id).status,
                  JobResult::Status::Completed);
    EXPECT_TRUE(engine.cache().memoryOnly());
    EXPECT_EQ(engine.cache().stats().writeFailures,
              ResultCache::writeFailureLimit);

    // The degradation is visible in the service report and the
    // introspection document.
    const obs::Json report = engine.serviceReportJson();
    const obs::Json &cache =
        report.get("counters").get("svc").get("cache");
    EXPECT_EQ(cache.get("write_failures").asUint(),
              ResultCache::writeFailureLimit);
    EXPECT_EQ(cache.get("degraded").asUint(), 1u);
    EXPECT_TRUE(engine.introspectionJson()
                    .get("cache")
                    .get("degraded")
                    .asBool());
}

TEST(ChaosEngine, TornWritesAreQuarantinedOnRestart)
{
    const std::string dir = scratchDir("engine_torn");
    std::string key;
    {
        EngineOptions options;
        options.cacheDir = dir;
        options.chaos = ServiceFaultPlan::tornCacheEntries(1.0, 51);
        JobEngine engine(options);
        const int id = engine.submit(cheapSpec());
        engine.run();
        EXPECT_EQ(engine.result(id).status,
                  JobResult::Status::Completed);
        key = engine.result(id).key;
        EXPECT_EQ(engine.cache().stats().tornWrites, 1u);
    }
    ASSERT_TRUE(fs::exists(dir + "/" + key + ".json"));

    // A restarted engine's recovery scan quarantines the torn entry
    // and the job simulates again instead of reading garbage.
    EngineOptions fresh;
    fresh.cacheDir = dir;
    JobEngine engine(fresh);
    EXPECT_EQ(engine.cache().stats().quarantined, 1u);
    const int id = engine.submit(cheapSpec());
    engine.run();
    EXPECT_EQ(engine.result(id).status, JobResult::Status::Completed);
    EXPECT_FALSE(engine.result(id).cached);
}

// ---------------------------------------------------------------- //
// Wire-path chaos

TEST(ChaosWire, InjectedResetThrowsHereAndServerSurvives)
{
    EngineOptions engineOptions;
    JobEngine engine(engineOptions);
    Server server(engine, /*port=*/0);
    std::thread loop([&] { server.serve(/*maxRequests=*/2); });

    const ServiceFaultInjector chaos(
        ServiceFaultPlan::connectionResets(1.0, 61));
    EXPECT_THROW(requestReport("127.0.0.1", server.port(),
                               cheapJobDoc(), &chaos,
                               /*requestIndex=*/0),
                 fault::ConfigError);

    // The server answered the torn frame typed and kept serving.
    obs::Json health = requestReport(
        "127.0.0.1", server.port(), [] {
            obs::Json doc = obs::Json::object();
            doc.set("cmd", "healthz");
            return doc;
        }());
    EXPECT_EQ(health.get("status").asString(), "ok");
    loop.join();
}

TEST(ChaosWire, RetryingClientRecoversFromTransientReset)
{
    // Find a seed where request 0 resets on attempt 1 but not on
    // attempt 2 (the client folds the attempt into the chaos key).
    std::uint64_t seed = 0;
    for (std::uint64_t s = 1; s < 200; ++s) {
        ServiceFaultInjector probe(
            ServiceFaultPlan::connectionResets(0.5, s));
        if (probe.resetConnection(0) &&
            !probe.resetConnection(std::uint64_t{1} << 32)) {
            seed = s;
            break;
        }
    }
    ASSERT_NE(seed, 0u);

    EngineOptions engineOptions;
    JobEngine engine(engineOptions);
    Server server(engine, /*port=*/0);
    std::thread loop([&] { server.serve(/*maxRequests=*/2); });

    const ServiceFaultInjector chaos(
        ServiceFaultPlan::connectionResets(0.5, seed));
    RetryPolicy policy;
    policy.maxAttempts = 3;
    policy.baseDelayMs = 0.05;
    policy.maxDelayMs = 0.5;
    int attempts = 0;
    obs::Json response = requestReportWithRetry(
        "127.0.0.1", server.port(), cheapJobDoc(), policy,
        /*requestIndex=*/0, &chaos, &attempts);
    EXPECT_EQ(response.get("status").asString(), "ok");
    EXPECT_EQ(attempts, 2);

    server.stop();
    loop.join();
}

TEST(ChaosWire, MalformedFrameAnswersTypedConfigError)
{
    EngineOptions engineOptions;
    JobEngine engine(engineOptions);
    Server server(engine, /*port=*/0);
    std::thread loop([&] { server.serve(/*maxRequests=*/1); });

    const ServiceFaultInjector chaos(
        ServiceFaultPlan::malformedFrames(1.0, 71));
    obs::Json response =
        requestReport("127.0.0.1", server.port(), cheapJobDoc(),
                      &chaos, /*requestIndex=*/0);
    EXPECT_EQ(response.get("status").asString(), "error");
    EXPECT_EQ(response.get("error_kind").asString(), "config");
    loop.join();
}

TEST(ChaosWire, DrainMidChaosStillYieldsValidV2Report)
{
    // The stitchd shutdown path: stop() lands while a chaos-stalled
    // request is in flight. The in-flight request must complete (the
    // drain) and the final service report must be a full v2 document
    // — this is exactly what the SIGINT/SIGTERM handler triggers.
    EngineOptions engineOptions;
    engineOptions.chaos = ServiceFaultPlan::workerStalls(1.0, 80, 81);
    JobEngine engine(engineOptions);
    Server server(engine, /*port=*/0);
    std::thread loop([&] { server.serve(); });

    obs::Json response;
    std::thread client([&] {
        response = requestReport("127.0.0.1", server.port(),
                                 cheapJobDoc());
    });
    // Let the request reach its 80 ms injected stall, then "signal".
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server.stop();
    loop.join(); // returns only after the in-flight request drained
    client.join();

    EXPECT_EQ(response.get("status").asString(), "ok");
    obs::Json report = engine.serviceReportJson();
    EXPECT_EQ(report.get("schema").asString(),
              "stitch-service-report");
    EXPECT_EQ(report.get("version").asUint(), serviceReportVersion);
    const obs::Json &jobs =
        report.get("counters").get("svc").get("jobs");
    EXPECT_EQ(jobs.get("completed").asUint(), 1u);
    EXPECT_GE(
        resilienceCounters(report).get("injected_stalls").asUint(),
        1u);
}

} // namespace
} // namespace stitch::svc
