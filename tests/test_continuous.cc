/**
 * @file
 * Continuous-telemetry tests: the sample/window/ring algebra
 * (deltas, shard merges), the SLO engine's multi-window burn-rate
 * alerting (a stall must alert within two windows), the Prometheus
 * exposition contract, the flight recorder's black-box artifacts,
 * and the whole stack wired through a live JobEngine — including
 * the "scrape" introspection verb and the collector-off
 * byte-identity guarantee.
 */

#include <fstream>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.hh"
#include "obs/buildinfo.hh"
#include "svc/engine.hh"
#include "svc/server.hh"
#include "telem/exposition.hh"
#include "telem/flightrec.hh"
#include "telem/slo.hh"
#include "telem/timeseries.hh"

namespace stitch::telem
{
namespace
{

/** A cumulative sample with one of everything. */
MetricSample
sampleAt(std::uint64_t atUs, std::uint64_t completed,
         std::uint64_t failed, double depth,
         std::vector<std::uint64_t> e2eValuesUs = {})
{
    MetricSample s;
    s.atUs = atUs;
    s.counters.emplace_back("jobs_completed", completed);
    s.counters.emplace_back("jobs_failed", failed);
    s.gauges.emplace_back("queue_depth", depth);
    Histogram e2e;
    for (std::uint64_t v : e2eValuesUs)
        e2e.record(v);
    s.histograms.emplace_back("e2e", e2e);
    return s;
}

// ---------------------------------------------------------------- //
// Windows

TEST(Window, DeltaOfConsecutiveSamples)
{
    const MetricSample t0 =
        sampleAt(1'000'000, 10, 1, 3.0, {100, 200});
    const MetricSample t1 =
        sampleAt(2'000'000, 15, 1, 5.0, {100, 200, 900, 900, 900});

    const Window w = windowBetween(t0, t1);
    EXPECT_EQ(w.counter("jobs_completed"), 5u); // increment
    EXPECT_EQ(w.counter("jobs_failed"), 0u);
    EXPECT_DOUBLE_EQ(w.gauge("queue_depth"), 5.0); // end value
    EXPECT_DOUBLE_EQ(w.durationS(), 1.0);
    EXPECT_DOUBLE_EQ(w.rate("jobs_completed"), 5.0);
    // The histogram delta holds exactly the three new samples.
    ASSERT_NE(w.histogram("e2e"), nullptr);
    EXPECT_EQ(w.histogram("e2e")->count(), 3u);
    EXPECT_EQ(w.histogram("e2e")->quantile(0.5), 900u);
}

TEST(Window, ShardMergeAddsCountersAndUnionsTime)
{
    Window a = windowBetween(sampleAt(0, 0, 0, 1.0),
                             sampleAt(1'000'000, 4, 1, 1.0, {50}));
    const Window b =
        windowBetween(sampleAt(500'000, 0, 0, 2.0),
                      sampleAt(2'000'000, 6, 0, 2.0, {70, 90}));
    a.merge(b);
    EXPECT_EQ(a.counter("jobs_completed"), 10u);
    EXPECT_EQ(a.counter("jobs_failed"), 1u);
    EXPECT_DOUBLE_EQ(a.gauge("queue_depth"), 3.0); // sum over shards
    EXPECT_EQ(a.startUs, 0u);
    EXPECT_EQ(a.endUs, 2'000'000u);
    EXPECT_EQ(a.histogram("e2e")->count(), 3u);
}

TEST(TimeSeries, RingEvictsOldestAndCountsTotal)
{
    TimeSeries series(3);
    for (std::uint64_t i = 0; i < 5; ++i) {
        Window w;
        w.seq = i;
        series.push(w);
    }
    EXPECT_EQ(series.size(), 3u);
    EXPECT_EQ(series.totalWindows(), 5u);
    const std::vector<Window> kept = series.snapshot();
    EXPECT_EQ(kept.front().seq, 2u);
    EXPECT_EQ(kept.back().seq, 4u);
}

TEST(TimeSeries, MergeAlignsBySequenceNumber)
{
    TimeSeries mine(8), theirs(8);
    for (std::uint64_t i = 0; i < 3; ++i) {
        Window w = windowBetween(
            sampleAt(i * 1'000'000, i * 10, 0, 1.0),
            sampleAt((i + 1) * 1'000'000, (i + 1) * 10, 0, 1.0));
        w.seq = i;
        mine.push(w);
        if (i > 0) // the other shard missed window 0
            theirs.push(w);
    }
    mine.merge(theirs);
    const std::vector<Window> merged = mine.snapshot();
    ASSERT_EQ(merged.size(), 3u);
    EXPECT_EQ(merged[0].counter("jobs_completed"), 10u); // unmatched
    EXPECT_EQ(merged[1].counter("jobs_completed"), 20u); // doubled
    EXPECT_EQ(merged[2].counter("jobs_completed"), 20u);
}

TEST(Collector, SyntheticSamplerClosesWindowsOnTick)
{
    std::uint64_t fakeClock = 0;
    std::uint64_t completed = 0;
    Collector collector(
        [&] {
            fakeClock += 1'000'000;
            completed += 7;
            return sampleAt(fakeClock, completed, 0, 1.0);
        },
        /*intervalMs=*/60'000, /*onWindow=*/{}, /*capacity=*/4);
    collector.start(); // takes the baseline sample
    collector.tick();
    collector.tick();
    collector.stop();
    EXPECT_GE(collector.series().totalWindows(), 2u);
    const std::vector<Window> windows =
        collector.series().snapshot();
    // Every closed window saw exactly one sampler step.
    for (const Window &w : windows)
        EXPECT_EQ(w.counter("jobs_completed"), 7u);
    // Sequence numbers are dense from zero.
    EXPECT_EQ(windows.front().seq, 0u);
}

// ---------------------------------------------------------------- //
// SLO burn-rate

SloObjective
errorBudgetObjective()
{
    SloObjective o;
    o.name = "error_rate";
    o.metric = "error_rate";
    o.op = SloObjective::Op::Le;
    o.target = 0.01;
    return o; // defaults: budget 0.1, short 2, long 12, 5x/1x
}

Window
windowWithErrorRate(std::uint64_t completed, std::uint64_t failed)
{
    static std::uint64_t clock = 0;
    const Window w = windowBetween(
        sampleAt(clock, 0, 0, 0.0),
        sampleAt(clock + 1'000'000, completed, failed, 0.0));
    clock += 1'000'000;
    return w;
}

TEST(SloEngine, AlertsWithinTwoBadWindows)
{
    SloConfig config;
    config.objectives.push_back(errorBudgetObjective());
    SloEngine slo(config);

    // Healthy traffic: no violations, no burn.
    for (int i = 0; i < 4; ++i)
        slo.observe(windowWithErrorRate(100, 0));
    EXPECT_EQ(slo.violations(), 0u);
    EXPECT_EQ(slo.alertsActive(), 0u);

    // The injected stall: every job in the window fails. One bad
    // window out of the short span of 2 burns 0.5/0.1 = 5x — the
    // acceptance criterion is an alert within two windows.
    slo.observe(windowWithErrorRate(10, 10));
    EXPECT_GE(slo.violations(), 1u);
    slo.observe(windowWithErrorRate(10, 10));
    EXPECT_EQ(slo.alertsActive(), 1u);
    EXPECT_GE(slo.alertsRaised(), 1u);

    // Recovery clears the alert once the short window drains.
    for (int i = 0; i < 3; ++i)
        slo.observe(windowWithErrorRate(100, 0));
    EXPECT_EQ(slo.alertsActive(), 0u);

    const obs::Json status = slo.statusJson();
    ASSERT_EQ(status.size(), 1u);
    EXPECT_EQ(status.at(0).get("name").asString(), "error_rate");
    EXPECT_TRUE(status.at(0).has("burn_short"));
    EXPECT_TRUE(status.at(0).get("history").isArray());
}

TEST(SloEngine, SignallessWindowsAreSkippedNotScored)
{
    SloConfig config;
    config.objectives.push_back(errorBudgetObjective());
    SloEngine slo(config);
    // An idle daemon: windows with zero finished jobs carry no
    // error-rate signal and must neither violate nor heal.
    for (int i = 0; i < 5; ++i)
        slo.observe(windowWithErrorRate(0, 0));
    EXPECT_EQ(slo.violations(), 0u);
    const obs::Json status = slo.statusJson();
    EXPECT_FALSE(status.at(0).get("value_valid").asBool());
    EXPECT_EQ(status.at(0).get("windows").asUint(), 0u);
}

TEST(SloConfig, RoundTripsAndValidates)
{
    const SloConfig defaults = SloConfig::defaults();
    EXPECT_EQ(defaults.objectives.size(), 3u);
    const SloConfig reparsed =
        SloConfig::fromJson(defaults.toJson());
    EXPECT_EQ(reparsed.objectives.size(), 3u);
    EXPECT_EQ(reparsed.toJson().dump(), defaults.toJson().dump());

    obs::Json bad = defaults.toJson();
    bad.set("schema", "not-slo");
    EXPECT_THROW(SloConfig::fromJson(bad), fault::ConfigError);

    SloObjective o = errorBudgetObjective();
    o.metric = "no_such_metric";
    EXPECT_THROW(o.validate(), fault::ConfigError);
    o = errorBudgetObjective();
    o.budget = 0.0;
    EXPECT_THROW(o.validate(), fault::ConfigError);
}

// ---------------------------------------------------------------- //
// Exposition

TEST(Exposition, EmitsWellFormedSeries)
{
    const MetricSample sample =
        sampleAt(1'000'000, 42, 3, 2.0, {100, 5000, 250'000});
    ExpositionExtras extras;
    extras.uptimeS = 12.5;
    extras.served = 99;
    const obs::Json build = obs::buildInfoJson();
    extras.buildInfo = &build;
    const std::string text = prometheusText(sample, extras);

    EXPECT_NE(text.find("stitch_jobs_completed_total 42\n"),
              std::string::npos);
    EXPECT_NE(text.find("stitch_jobs_failed_total 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("stitch_queue_depth 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("stitch_uptime_seconds 12.5\n"),
              std::string::npos);
    EXPECT_NE(text.find("stitch_requests_served_total 99\n"),
              std::string::npos);
    // Histogram: cumulative buckets, +Inf closes at the count.
    EXPECT_NE(text.find("stitch_latency_e2e_ms_bucket{le=\"+Inf\"} "
                        "3\n"),
              std::string::npos);
    EXPECT_NE(text.find("stitch_latency_e2e_ms_count 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE stitch_latency_e2e_ms histogram"),
              std::string::npos);
    // Build info rides along as the conventional info metric.
    EXPECT_NE(text.find("stitch_build_info{"), std::string::npos);

    // Every sample line is NAME{labels}? SP VALUE; counting them
    // matches the helper CI uses.
    std::size_t lines = 0, samples = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        const std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        ++lines;
        if (line.empty() || line[0] == '#')
            continue;
        ++samples;
        const auto space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_TRUE(line.rfind("stitch_", 0) == 0) << line;
    }
    EXPECT_EQ(samples, expositionSeriesCount(text));
    EXPECT_GT(lines, samples); // headers present
}

TEST(Exposition, BucketCountsAreCumulative)
{
    MetricSample sample;
    Histogram h;
    for (int i = 0; i < 10; ++i)
        h.record(10);
    for (int i = 0; i < 5; ++i)
        h.record(1'000'000);
    sample.histograms.emplace_back("queue", h);
    const std::string text = prometheusText(sample);

    // Two non-empty buckets: the first carries 10, the second must
    // read 15 (cumulative), and +Inf equals the total count.
    EXPECT_NE(text.find("} 10\n"), std::string::npos);
    EXPECT_NE(text.find("} 15\n"), std::string::npos);
    EXPECT_NE(
        text.find("stitch_latency_queue_ms_bucket{le=\"+Inf\"} 15"),
        std::string::npos);
}

// ---------------------------------------------------------------- //
// Flight recorder

TEST(FlightRecorder, DumpsTypedFailureAsJsonl)
{
    FlightOptions options;
    options.dumpDir = ::testing::TempDir() + "stitch_flight_t1";
    FlightRecorder rec(options);

    rec.attach(0xabc, 7);
    rec.event(0xabc, 100, "submitted", "priority 0");
    rec.event(0xabc, 200, "claimed", "worker 0");
    Span span;
    span.traceId = 0xabc;
    span.jobId = 7;
    span.stage = Stage::Queue;
    span.startUs = 100;
    span.endUs = 200;
    rec.span(span);

    const obs::Json build = obs::buildInfoJson();
    const std::string path =
        rec.dump(0xabc, "deadline", "watchdog tripped", &build);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(rec.dumps(), 1u);

    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    const obs::Json head = obs::Json::parse(line);
    EXPECT_EQ(head.get("schema").asString(), flightRecordSchema);
    EXPECT_EQ(head.get("kind").asString(), "deadline");
    EXPECT_EQ(head.get("job").asUint(), 7u);
    EXPECT_EQ(head.get("events").asUint(), 3u);
    EXPECT_TRUE(head.has("build"));

    std::vector<obs::Json> events;
    while (std::getline(in, line))
        events.push_back(obs::Json::parse(line));
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].get("type").asString(), "state");
    EXPECT_EQ(events[0].get("what").asString(), "submitted");
    EXPECT_EQ(events[2].get("type").asString(), "span");
    EXPECT_EQ(events[2].get("stage").asString(), "queue");
    EXPECT_EQ(events[2].get("dur_us").asUint(), 100u);

    // Dumping forgets: a second dump of the same trace is a no-op.
    EXPECT_EQ(rec.dump(0xabc, "deadline", "again"), "");
}

TEST(FlightRecorder, RingsAreBoundedAndForgetIsClean)
{
    FlightOptions options;
    options.eventsPerJob = 4;
    options.maxJobs = 2;
    options.dumpDir = ::testing::TempDir() + "stitch_flight_t2";
    FlightRecorder rec(options);

    rec.attach(1, 0);
    for (int i = 0; i < 10; ++i)
        rec.event(1, static_cast<std::uint64_t>(i), "tick");
    // Oldest events dropped but counted.
    const std::string path = rec.dump(1, "sim", "boom");
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    const obs::Json head = obs::Json::parse(line);
    EXPECT_EQ(head.get("events").asUint(), 4u);
    EXPECT_EQ(head.get("events_dropped").asUint(), 6u);

    // maxJobs bounds concurrent rings: the oldest attach is evicted.
    rec.attach(10, 1);
    rec.attach(11, 2);
    rec.attach(12, 3);
    EXPECT_EQ(rec.statsJson().get("tracked").asUint(), 2u);
    EXPECT_GE(rec.statsJson().get("evicted").asUint(), 1u);

    // forget() leaves nothing to dump.
    rec.forget(12);
    EXPECT_EQ(rec.dump(12, "sim", "gone"), "");
}

} // namespace
} // namespace stitch::telem

// ---------------------------------------------------------------- //
// The stack wired through a live engine

namespace stitch::svc
{
namespace
{

JobSpec
cheapSpec(int samplesLong = 2)
{
    JobSpec spec;
    spec.app = "APP1-gesture";
    spec.mode = apps::AppMode::Baseline;
    spec.samplesShort = 1;
    spec.samplesLong = samplesLong;
    return spec;
}

TEST(ContinuousEngine, SnapshotMatchesServiceReportCounters)
{
    EngineOptions options;
    options.telemetry = true;
    JobEngine engine(options);
    engine.submit(cheapSpec());
    engine.submit(cheapSpec()); // duplicate: cache hit
    engine.run();

    const telem::MetricSample sample = engine.metricsSnapshot();
    const obs::Json report = engine.serviceReportJson();
    const obs::Json &jobs =
        report.get("counters").get("svc").get("jobs");
    // The scrape names map 1:1 onto the report counter tree.
    EXPECT_EQ(sample.counter("jobs_submitted"),
              jobs.get("submitted").asUint());
    EXPECT_EQ(sample.counter("jobs_completed"),
              jobs.get("completed").asUint());
    EXPECT_EQ(sample.counter("jobs_cache_hits"),
              jobs.get("cache_hits").asUint());
    ASSERT_NE(sample.histogram("e2e"), nullptr);
    EXPECT_EQ(sample.histogram("e2e")->count(), 2u);

    // v3 report carries provenance.
    ASSERT_TRUE(report.has("build"));
    EXPECT_TRUE(report.get("build").has("git"));
    EXPECT_TRUE(report.get("build").has("compiler"));
}

TEST(ContinuousEngine, CollectorAndSloRideTheEngine)
{
    EngineOptions options;
    options.telemetry = true;
    // A huge interval: the timer never fires during the test; the
    // constructor's baseline sample plus the destructor's stop keep
    // the thread lifecycle honest, and windows close via the
    // collector's own clock only if the test outlives the interval
    // (it doesn't).
    options.metricsIntervalMs = 3'600'000;
    options.slo = telem::SloConfig::defaults();
    JobEngine engine(options);

    ASSERT_NE(engine.collector(), nullptr);
    ASSERT_NE(engine.slo(), nullptr);
    engine.submit(cheapSpec());
    engine.run();

    const obs::Json report = engine.serviceReportJson();
    ASSERT_TRUE(report.has("slo"));
    EXPECT_EQ(report.get("slo").get("objectives").size(), 3u);
    ASSERT_TRUE(report.has("series"));
    EXPECT_TRUE(report.get("series").has("capacity"));

    const std::string text = engine.expositionText(1.0, 2);
    EXPECT_GE(telem::expositionSeriesCount(text), 30u);
    EXPECT_NE(text.find("stitch_slo_burn_rate_short"),
              std::string::npos);
}

TEST(ContinuousEngine, TypedFailureDumpsAFlightRecord)
{
    EngineOptions options;
    options.flightRecorder = true;
    options.flightDir =
        ::testing::TempDir() + "stitch_flight_engine";
    options.chaos = ServiceFaultPlan::workerThrows(1.0, 42);
    JobEngine engine(options);

    const int id = engine.submit(cheapSpec());
    engine.run();
    ASSERT_EQ(engine.result(id).status, JobResult::Status::Failed);
    EXPECT_EQ(engine.result(id).errorKind, "injected");
    ASSERT_NE(engine.flightRecorder(), nullptr);
    EXPECT_EQ(engine.flightRecorder()->dumps(), 1u);

    const std::string path =
        options.flightDir + "/flight-" +
        telem::traceIdHex(engine.result(id).traceId) + ".jsonl";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    const obs::Json head = obs::Json::parse(line);
    EXPECT_EQ(head.get("kind").asString(), "injected");
    EXPECT_EQ(head.get("job").asUint(),
              static_cast<std::uint64_t>(id));
    // The ring holds the full life of the job: submit, claim, the
    // injected throw and the terminal failure all made it in.
    std::vector<std::string> whats;
    while (std::getline(in, line)) {
        const obs::Json e = obs::Json::parse(line);
        if (e.get("type").asString() == "state")
            whats.push_back(e.get("what").asString());
    }
    auto saw = [&](const char *what) {
        for (const std::string &w : whats)
            if (w == what)
                return true;
        return false;
    };
    EXPECT_TRUE(saw("submitted"));
    EXPECT_TRUE(saw("claimed"));
    EXPECT_TRUE(saw("injected_throw"));
    EXPECT_TRUE(saw("failed"));
}

TEST(ContinuousEngine, HealthyJobsLeaveNoFlightRecords)
{
    EngineOptions options;
    options.flightRecorder = true;
    options.flightDir =
        ::testing::TempDir() + "stitch_flight_healthy";
    JobEngine engine(options);
    engine.submit(cheapSpec());
    engine.run();
    EXPECT_EQ(engine.flightRecorder()->dumps(), 0u);
    EXPECT_EQ(
        engine.flightRecorder()->statsJson().get("tracked").asUint(),
        0u); // forgotten on completion, not leaked
}

TEST(ContinuousEngine, ScrapeVerbAnswersExposition)
{
    EngineOptions options;
    options.telemetry = true;
    options.slo = telem::SloConfig::defaults();
    JobEngine engine(options);
    engine.submit(cheapSpec());
    engine.run();

    const obs::Json doc =
        introspectionResponse(engine, "scrape", 3.5, 8);
    EXPECT_EQ(doc.get("schema").asString(), "stitchd-scrape");
    EXPECT_EQ(doc.get("content_type").asString(),
              telem::expositionContentType);
    const std::string text = doc.get("exposition").asString();
    EXPECT_GE(telem::expositionSeriesCount(text), 30u);
    EXPECT_NE(text.find("stitch_jobs_completed_total 1"),
              std::string::npos);
    EXPECT_NE(text.find("stitch_uptime_seconds 3.5"),
              std::string::npos);
    EXPECT_NE(text.find("stitch_build_info{"), std::string::npos);

    // healthz now carries provenance too.
    const obs::Json healthz =
        introspectionResponse(engine, "healthz", 3.5, 8);
    EXPECT_TRUE(healthz.has("build"));
}

TEST(ContinuousEngine, CollectorOffKeepsReportsByteIdentical)
{
    // The batch guarantee: with the continuous layer dark (the
    // default), run reports are byte-identical to an engine that
    // never heard of it. Provenance lives in the *service* report
    // only, never in a job's run report.
    EngineOptions plain;
    JobEngine a(plain);
    const int ja = a.submit(cheapSpec());
    a.run();

    EngineOptions armed;
    armed.metricsIntervalMs = 3'600'000;
    armed.slo = telem::SloConfig::defaults();
    armed.flightRecorder = true;
    JobEngine b(armed);
    const int jb = b.submit(cheapSpec());
    b.run();

    EXPECT_EQ(a.result(ja).report.dump(2),
              b.result(jb).report.dump(2));
    EXPECT_EQ(a.result(ja).derived.dump(2),
              b.result(jb).derived.dump(2));
}

TEST(ContinuousEngine, ProtocolFailuresGetSyntheticBlackBoxes)
{
    EngineOptions options;
    options.flightRecorder = true;
    options.flightDir =
        ::testing::TempDir() + "stitch_flight_proto";
    JobEngine engine(options);
    engine.recordProtocolFailure("torn frame from 127.0.0.1");
    engine.recordProtocolFailure("garbage length prefix");
    EXPECT_EQ(engine.flightRecorder()->dumps(), 2u);
}

} // namespace
} // namespace stitch::svc
