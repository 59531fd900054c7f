/**
 * @file
 * Telemetry-layer tests: the log-linear histogram against a
 * sorted-vector oracle (quantile error bounded by one bucket, merge
 * associativity, edge cases), trace-id uniqueness, span-tree
 * well-formedness over a real engine batch, the disabled-telemetry
 * byte-identity guarantee, the span exports, and the introspection
 * documents (pure-function and over the wire).
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "svc/engine.hh"
#include "svc/server.hh"
#include "telem/histogram.hh"
#include "telem/span.hh"

namespace stitch::telem
{
namespace
{

/** Deterministic sample stream (no std::random in tests). */
std::uint64_t
nextSample(std::uint64_t &state)
{
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
}

/** Oracle: exact order statistic at quantile q (rank ceil(q*n)). */
std::uint64_t
oracleQuantile(std::vector<std::uint64_t> sorted, double q)
{
    if (sorted.empty())
        return 0;
    std::sort(sorted.begin(), sorted.end());
    if (q <= 0.0)
        return sorted.front();
    if (q >= 1.0)
        return sorted.back();
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    if (rank == 0)
        rank = 1;
    return sorted[rank - 1];
}

// ---------------------------------------------------------------- //
// Histogram geometry

TEST(Histogram, BucketBoundsPartitionTheDomain)
{
    // Every bucket's [lo, hi) must be non-empty, contiguous with its
    // neighbor, and round-trip through bucketIndex.
    for (int i = 0; i < Histogram::numBuckets - 1; ++i) {
        const std::uint64_t lo = Histogram::bucketLo(i);
        const std::uint64_t hi = Histogram::bucketHi(i);
        ASSERT_LT(lo, hi) << "bucket " << i;
        ASSERT_EQ(hi, Histogram::bucketLo(i + 1)) << "bucket " << i;
        ASSERT_EQ(Histogram::bucketIndex(lo), i);
        ASSERT_EQ(Histogram::bucketIndex(hi - 1), i);
    }
    EXPECT_EQ(Histogram::bucketIndex(0), 0);
    EXPECT_EQ(Histogram::bucketIndex(~0ull),
              Histogram::numBuckets - 1);
}

TEST(Histogram, RelativeBucketWidthIsBounded)
{
    // Above the linear range a bucket spans at most lo/16 — the
    // 6.25% relative-error contract the quantiles inherit.
    for (int i = static_cast<int>(Histogram::linearMax);
         i < Histogram::numBuckets - 1; ++i) {
        const double lo =
            static_cast<double>(Histogram::bucketLo(i));
        const double width = static_cast<double>(
            Histogram::bucketHi(i) - Histogram::bucketLo(i));
        ASSERT_LE(width / lo,
                  1.0 / Histogram::subPerOctave + 1e-12)
            << "bucket " << i;
    }
}

// ---------------------------------------------------------------- //
// Histogram quantiles vs the oracle

TEST(Histogram, QuantilesLandInTheOracleBucket)
{
    Histogram hist;
    std::vector<std::uint64_t> samples;
    std::uint64_t state = 42;
    for (int i = 0; i < 10000; ++i) {
        // Mix magnitudes: sub-linear, mid, and large values.
        const std::uint64_t v =
            nextSample(state) % (i % 3 == 0 ? 20ull
                                 : i % 3 == 1 ? 100000ull
                                              : 3000000000ull);
        samples.push_back(v);
        hist.record(v);
    }
    EXPECT_EQ(hist.count(), samples.size());
    for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999}) {
        const std::uint64_t oracle = oracleQuantile(samples, q);
        const std::uint64_t got = hist.quantile(q);
        // The reported value must sit in the same bucket as the true
        // order statistic and never under-report it.
        EXPECT_EQ(Histogram::bucketIndex(got),
                  Histogram::bucketIndex(oracle))
            << "q=" << q;
        EXPECT_GE(got, oracle) << "q=" << q;
    }
    // The extremes are tracked exactly, not bucket-rounded.
    EXPECT_EQ(hist.quantile(1.0), oracleQuantile(samples, 1.0));
    EXPECT_EQ(hist.min(), oracleQuantile(samples, 0.0));
}

TEST(Histogram, SingleValueCollapsesEveryQuantile)
{
    Histogram hist;
    for (int i = 0; i < 100; ++i)
        hist.record(777);
    for (double q : {0.0, 0.5, 0.99, 1.0})
        EXPECT_EQ(hist.quantile(q), 777u) << "q=" << q;
    EXPECT_EQ(hist.min(), 777u);
    EXPECT_EQ(hist.max(), 777u);
    EXPECT_DOUBLE_EQ(hist.mean(), 777.0);
    EXPECT_EQ(hist.nonEmptyBuckets(), 1);
}

TEST(Histogram, EmptyHistogramIsAllZero)
{
    Histogram hist;
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.quantile(0.5), 0u);
    EXPECT_EQ(hist.min(), 0u);
    EXPECT_EQ(hist.max(), 0u);
    EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
}

TEST(Histogram, MergeIsAssociativeAndOrderBlind)
{
    std::uint64_t state = 7;
    Histogram parts[3];
    Histogram all;
    for (int p = 0; p < 3; ++p)
        for (int i = 0; i < 1000; ++i) {
            const std::uint64_t v =
                nextSample(state) % (1ull << (10 + 8 * p));
            parts[p].record(v);
            all.record(v);
        }

    // (a + b) + c
    Histogram left = parts[0];
    left.merge(parts[1]);
    left.merge(parts[2]);
    // a + (b + c)
    Histogram right = parts[1];
    right.merge(parts[2]);
    Histogram rightOuter = parts[0];
    rightOuter.merge(right);

    EXPECT_EQ(left.toJson().dump(), rightOuter.toJson().dump());
    // Merging partials is indistinguishable from recording the
    // union stream directly.
    EXPECT_EQ(left.toJson().dump(), all.toJson().dump());
    EXPECT_EQ(left.count(), 3000u);
}

TEST(Histogram, MergingAnEmptyHistogramIsIdentity)
{
    Histogram hist, empty;
    hist.record(5);
    hist.record(123456);
    const std::string before = hist.toJson().dump();
    hist.merge(empty);
    EXPECT_EQ(hist.toJson().dump(), before);
}

TEST(Histogram, MergeIdentityHoldsInBothDirections)
{
    // The other direction of the identity: folding a populated
    // histogram *into* an empty one must be indistinguishable from
    // the populated one itself — min/max must come across, not be
    // clobbered by the empty side's sentinels.
    Histogram hist;
    hist.record(5);
    hist.record(123456);
    Histogram empty;
    empty.merge(hist);
    EXPECT_EQ(empty.toJson().dump(), hist.toJson().dump());
    EXPECT_EQ(empty.min(), 5u);
    EXPECT_EQ(empty.max(), 123456u);

    // And merging two empties stays empty (all-zero summary).
    Histogram a, b;
    a.merge(b);
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.quantile(0.5), 0u);
}

TEST(Histogram, EmptyQuantileIsZeroForEveryQ)
{
    // Regression pin: quantile() on an empty histogram is 0 at every
    // q, including the 0.0/1.0 edges — never a read of the ~0 min
    // sentinel or a scan past the last bucket.
    Histogram hist;
    for (double q : {0.0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0})
        EXPECT_EQ(hist.quantile(q), 0u) << "q=" << q;
}

TEST(Histogram, DiffFromRecoversTheIncrement)
{
    // The window algebra: cumulative snapshot at t0, more samples,
    // snapshot at t1 — diffFrom must reproduce exactly the samples
    // recorded in between.
    std::uint64_t state = 99;
    Histogram cumulative, incrementOracle;
    for (int i = 0; i < 500; ++i)
        cumulative.record(nextSample(state) % 100000);
    const Histogram earlier = cumulative;
    for (int i = 0; i < 300; ++i) {
        const std::uint64_t v = nextSample(state) % 100000;
        cumulative.record(v);
        incrementOracle.record(v);
    }

    const Histogram delta = cumulative.diffFrom(earlier);
    EXPECT_EQ(delta.count(), 300u);
    EXPECT_EQ(delta.sum(), incrementOracle.sum());
    for (double q : {0.5, 0.9, 0.99})
        EXPECT_EQ(delta.quantile(q), incrementOracle.quantile(q))
            << "q=" << q;
    // Bucketed extrema: exact when the cumulative extremum falls in
    // the delta's range, bucket-edge-bounded otherwise.
    EXPECT_LE(delta.min(), incrementOracle.min());
    EXPECT_GE(delta.max(), incrementOracle.max());
}

TEST(Histogram, DiffFromSelfAndFromEmptyAreTheEdgeCases)
{
    Histogram hist;
    hist.record(42);
    hist.record(9000);

    // x - x = empty.
    const Histogram none = hist.diffFrom(hist);
    EXPECT_EQ(none.count(), 0u);
    EXPECT_EQ(none.quantile(0.99), 0u);

    // x - empty = x (count/sum/buckets; min/max are re-derived and
    // tightened by the cumulative extrema, so they are exact here).
    const Histogram all = hist.diffFrom(Histogram());
    EXPECT_EQ(all.count(), 2u);
    EXPECT_EQ(all.sum(), hist.sum());
    EXPECT_EQ(all.min(), 42u);
    EXPECT_EQ(all.max(), 9000u);
}

// ---------------------------------------------------------------- //
// Trace ids

TEST(TraceId, UniqueAcrossAThousandJobs)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1000; ++i)
        seen.insert(traceIdFor(0xdeadbeef, i));
    EXPECT_EQ(seen.size(), 1000u);
    // Different seeds relabel, never collapse.
    EXPECT_NE(traceIdFor(1, 0), traceIdFor(2, 0));
}

TEST(TraceId, HexIsSixteenDigits)
{
    EXPECT_EQ(traceIdHex(0), "0000000000000000");
    EXPECT_EQ(traceIdHex(0xabcdef0123456789ull),
              "abcdef0123456789");
}

// ---------------------------------------------------------------- //
// Span sink + scoped spans

TEST(SpanSink, ScopedSpanRecordsOnceEvenWhenClosedEarly)
{
    SpanSink sink;
    TraceContext ctx{1, 0, -1, &sink};
    {
        ScopedSpan span(ctx, Stage::Compile);
        span.close();
        span.close(); // idempotent
    }                 // destructor must not double-record
    EXPECT_EQ(sink.count(), 1u);
    EXPECT_EQ(sink.snapshot()[0].stage, Stage::Compile);
}

TEST(SpanSink, DisabledContextRecordsNothing)
{
    TraceContext off;
    EXPECT_FALSE(off.enabled());
    {
        ScopedSpan span(off, Stage::Simulate);
    }
    off.record(Stage::Job, 0, 10); // no sink: must be a no-op
    SUCCEED();
}

} // namespace
} // namespace stitch::telem

namespace stitch::svc
{
namespace
{

/** The cheapest legal spec (shared idiom with test_svc.cc). */
JobSpec
cheapSpec(apps::AppMode mode = apps::AppMode::Baseline,
          int samplesLong = 2)
{
    JobSpec spec;
    spec.app = "APP1-gesture";
    spec.mode = mode;
    spec.samplesShort = 1;
    spec.samplesLong = samplesLong;
    return spec;
}

std::string
scratchFile(const std::string &name)
{
    return ::testing::TempDir() + "stitch_telem_" + name;
}

// ---------------------------------------------------------------- //
// Engine integration

TEST(EngineTelemetry, TraceIdsAreUniquePerBatch)
{
    JobEngine engine;
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        JobSpec spec = cheapSpec();
        spec.priority = i % 7;
        const int id = engine.submit(spec);
        seen.insert(engine.result(id).traceId);
    }
    EXPECT_EQ(seen.size(), 1000u);
}

TEST(EngineTelemetry, SpanTreeIsWellFormed)
{
    EngineOptions options;
    options.telemetry = true;
    JobEngine engine(options);
    const int n = 4;
    for (int i = 0; i < n; ++i) {
        // Distinct specs so every job truly simulates.
        JobSpec spec = cheapSpec(apps::AppMode::Baseline, 2 + i);
        engine.submit(spec);
    }
    engine.run();

    const auto spans = engine.spanSink().snapshot();
    ASSERT_FALSE(spans.empty());
    for (const auto &span : spans) {
        EXPECT_GE(span.endUs, span.startUs); // every span is closed
        EXPECT_GE(span.jobId, 0);
        EXPECT_LT(span.jobId, n);
        EXPECT_NE(span.traceId, 0u);
    }

    for (int id = 0; id < n; ++id) {
        const telem::Span *envelope = nullptr;
        for (const auto &span : spans)
            if (span.jobId == id && span.stage == telem::Stage::Job)
                envelope = &span;
        ASSERT_NE(envelope, nullptr) << "job " << id;
        EXPECT_EQ(envelope->traceId, engine.result(id).traceId);

        std::uint64_t stageSum = 0;
        for (const auto &span : spans) {
            if (span.jobId != id || span.stage == telem::Stage::Job)
                continue;
            if (span.stage == telem::Stage::Submit) {
                // Submit covers validate+enqueue and hands off to
                // the envelope, which starts when the job is queued.
                EXPECT_LE(span.endUs, envelope->startUs);
                continue;
            }
            // Parent starts before (or with) every child, and no
            // child outlives the envelope.
            EXPECT_GE(span.startUs, envelope->startUs)
                << telem::stageName(span.stage);
            EXPECT_LE(span.endUs, envelope->endUs)
                << telem::stageName(span.stage);
            EXPECT_EQ(span.traceId, envelope->traceId);
            if (span.stage == telem::Stage::Compile ||
                span.stage == telem::Stage::Stitch ||
                span.stage == telem::Stage::Simulate ||
                span.stage == telem::Stage::Report ||
                span.stage == telem::Stage::Queue)
                stageSum += span.durationUs();
        }
        // Non-overlapping stages cannot sum past the envelope.
        EXPECT_LE(stageSum, envelope->durationUs()) << "job " << id;
    }
}

TEST(EngineTelemetry, DisabledTelemetryIsByteIdentical)
{
    JobEngine quiet;          // telemetry off (default)
    EngineOptions withTelem;
    withTelem.telemetry = true;
    JobEngine loud(withTelem);

    const int a = quiet.submit(cheapSpec());
    const int b = loud.submit(cheapSpec());
    quiet.run();
    loud.run();

    ASSERT_EQ(quiet.result(a).status, JobResult::Status::Completed);
    ASSERT_EQ(loud.result(b).status, JobResult::Status::Completed);
    // The job report never carries telemetry, whatever the setting.
    EXPECT_EQ(quiet.result(a).report.dump(2),
              loud.result(b).report.dump(2));
    EXPECT_EQ(quiet.result(a).derived.dump(2),
              loud.result(b).derived.dump(2));
    EXPECT_EQ(quiet.spanSink().count(), 0u);
    EXPECT_GT(loud.spanSink().count(), 0u);
}

TEST(EngineTelemetry, ServiceReportCarriesQuantiles)
{
    EngineOptions options;
    options.telemetry = true;
    JobEngine engine(options);
    engine.submit(cheapSpec());
    engine.submit(cheapSpec()); // duplicate: cache hit
    engine.run();

    obs::Json report = engine.serviceReportJson();
    EXPECT_EQ(report.get("version").asUint(),
              static_cast<std::uint64_t>(serviceReportVersion));
    // v1 consumers keep working: the counters subtree is intact.
    const obs::Json &jobs =
        report.get("counters").get("svc").get("jobs");
    EXPECT_EQ(jobs.get("completed").asUint(), 2u);
    EXPECT_EQ(jobs.get("cache_hits").asUint(), 1u);

    const obs::Json &latency = report.get("latency");
    ASSERT_TRUE(latency.has("e2e"));
    EXPECT_EQ(latency.get("e2e").get("count").asUint(), 2u);
    ASSERT_TRUE(latency.has("simulate"));
    EXPECT_EQ(latency.get("simulate").get("count").asUint(), 1u);
    // p50 <= p99 <= max, and a simulated job is not free.
    const obs::Json &e2e = latency.get("e2e");
    EXPECT_LE(e2e.get("p50_ms").asDouble(),
              e2e.get("p99_ms").asDouble());
    EXPECT_LE(e2e.get("p99_ms").asDouble(),
              e2e.get("max_ms").asDouble());
    EXPECT_GT(e2e.get("max_ms").asDouble(), 0.0);
    EXPECT_TRUE(report.has("spans"));
}

TEST(EngineTelemetry, SpanStageLatencyEqualsTheSpansHistograms)
{
    EngineOptions options;
    options.telemetry = true;
    options.jobs = 2;
    JobEngine engine(options);
    for (int i = 0; i < 3; ++i) {
        // Stitch mode compiles and stitches; each duplicate is a hit.
        engine.submit(cheapSpec(apps::AppMode::Stitch, 2 + i));
        engine.submit(cheapSpec(apps::AppMode::Stitch, 2 + i));
    }
    engine.run();
    // The server records respond spans after a job finishes.
    for (int id = 0; id < engine.jobCount(); ++id) {
        const std::uint64_t t0 = engine.spanSink().nowUs();
        engine.traceContext(id).record(telem::Stage::Respond, t0,
                                       t0 + 40 + 7 * id);
    }

    const obs::Json report = engine.serviceReportJson();
    EXPECT_EQ(report.get("counters")
                  .get("svc")
                  .get("jobs")
                  .get("cache_hits")
                  .asUint(),
              3u);
    telem::Histogram expected[telem::numStages];
    for (const telem::Span &span : engine.spanSink().snapshot())
        expected[static_cast<int>(span.stage)].record(
            span.durationUs());
    const obs::Json &latency = report.get("latency");
    for (telem::Stage stage :
         {telem::Stage::Compile, telem::Stage::Stitch,
          telem::Stage::Simulate, telem::Stage::Respond}) {
        const char *name = telem::stageName(stage);
        const telem::Histogram &hist =
            expected[static_cast<int>(stage)];
        ASSERT_GT(hist.count(), 0u) << name;
        ASSERT_TRUE(latency.has(name)) << name;
        EXPECT_EQ(latency.get(name).dump(), hist.toJson().dump())
            << name;
    }
}

TEST(EngineTelemetry, SpanRollupEqualsOneRebuiltFromTheSpans)
{
    EngineOptions options;
    options.telemetry = true;
    options.jobs = 2;
    JobEngine engine(options);
    for (int i = 0; i < 3; ++i) {
        // Each pair is a simulation and a cache hit.
        engine.submit(cheapSpec(apps::AppMode::Stitch, 2 + i));
        engine.submit(cheapSpec(apps::AppMode::Stitch, 2 + i));
    }
    engine.run();

    using telem::numStages;
    std::uint64_t counts[numStages] = {};
    std::uint64_t totalUs[numStages] = {};
    for (const telem::Span &span : engine.spanSink().snapshot()) {
        ++counts[static_cast<int>(span.stage)];
        totalUs[static_cast<int>(span.stage)] += span.durationUs();
    }
    obs::Json expected = obs::Json::object();
    for (int s = 0; s < numStages; ++s) {
        if (counts[s] == 0)
            continue;
        obs::Json entry = obs::Json::object();
        entry.set("spans", counts[s]);
        entry.set("total_ms", static_cast<double>(totalUs[s]) / 1000.0);
        expected.set(telem::stageName(static_cast<telem::Stage>(s)),
                     std::move(entry));
    }

    const obs::Json report = engine.serviceReportJson();
    const obs::Json &jobs = report.get("counters").get("svc").get("jobs");
    EXPECT_EQ(jobs.get("cache_hits").asUint(), 3u);
    EXPECT_EQ(jobs.get("simulated").asUint(), 3u);
    ASSERT_TRUE(expected.has("simulate"));
    EXPECT_EQ(report.get("spans").dump(), expected.dump());
}

TEST(EngineTelemetry, ExportsAreValidDocuments)
{
    EngineOptions options;
    options.telemetry = true;
    JobEngine engine(options);
    engine.submit(cheapSpec());
    engine.run();

    const std::string tracePath = scratchFile("trace.json");
    const std::string eventsPath = scratchFile("events.jsonl");
    engine.spanSink().writeChromeTrace(tracePath);
    engine.spanSink().writeJsonl(eventsPath);

    // The Chrome trace parses and its slices cover the job lanes.
    std::ifstream traceIn(tracePath);
    std::string traceText(
        (std::istreambuf_iterator<char>(traceIn)),
        std::istreambuf_iterator<char>());
    obs::Json trace = obs::Json::parse(traceText);
    ASSERT_TRUE(trace.has("traceEvents"));
    EXPECT_GE(trace.get("traceEvents").size(),
              engine.spanSink().count());

    // The JSONL log holds one well-formed object per span.
    std::ifstream eventsIn(eventsPath);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(eventsIn, line)) {
        obs::Json event = obs::Json::parse(line);
        EXPECT_TRUE(event.has("trace_id"));
        EXPECT_TRUE(event.has("stage"));
        EXPECT_TRUE(event.has("dur_us"));
        ++lines;
    }
    EXPECT_EQ(lines, engine.spanSink().count());
}

// ---------------------------------------------------------------- //
// Introspection

TEST(Introspection, MetricsAndHealthzRoundTrip)
{
    EngineOptions options;
    options.telemetry = true;
    JobEngine engine(options);
    engine.submit(cheapSpec());
    engine.run();

    obs::Json healthz =
        introspectionResponse(engine, "healthz", 1.5, 3);
    EXPECT_EQ(healthz.get("schema").asString(), "stitchd-healthz");
    EXPECT_EQ(healthz.get("status").asString(), "ok");
    EXPECT_EQ(healthz.get("queue_depth").asUint(), 0u);
    EXPECT_EQ(healthz.get("in_flight").asUint(), 0u);
    EXPECT_DOUBLE_EQ(healthz.get("uptime_s").asDouble(), 1.5);

    obs::Json metrics =
        introspectionResponse(engine, "metrics", 1.5, 3);
    EXPECT_EQ(metrics.get("schema").asString(), "stitchd-metrics");
    EXPECT_EQ(metrics.get("jobs").get("completed").asUint(), 1u);
    EXPECT_TRUE(metrics.get("cache").has("hit_rate"));
    EXPECT_TRUE(metrics.get("latency").has("e2e"));
    EXPECT_TRUE(metrics.has("errors"));

    obs::Json statz = introspectionResponse(engine, "statz", 1.5, 3);
    EXPECT_EQ(statz.get("schema").asString(), "stitchd-statz");
    EXPECT_EQ(statz.get("service").get("version").asUint(),
              static_cast<std::uint64_t>(serviceReportVersion));

    obs::Json bogus = introspectionResponse(engine, "nope", 0, 0);
    EXPECT_EQ(bogus.get("status").asString(), "error");
}

TEST(Introspection, HealthzCountersEqualTheMetricsCounters)
{
    JobEngine engine;
    auto expectSame = [&](std::uint64_t depth) {
        const obs::Json healthz =
            introspectionResponse(engine, "healthz", 1.0, 0);
        const obs::Json metrics =
            introspectionResponse(engine, "metrics", 1.0, 0);
        EXPECT_EQ(healthz.get("queue_depth").dump(),
                  metrics.get("queue_depth").dump());
        EXPECT_EQ(healthz.get("in_flight").dump(),
                  metrics.get("in_flight").dump());
        EXPECT_EQ(healthz.get("queue_depth").asUint(), depth);
        EXPECT_EQ(healthz.get("in_flight").asUint(), 0u);
    };
    expectSame(0);
    engine.submit(cheapSpec());
    JobSpec urgent = cheapSpec(apps::AppMode::Baseline, 3);
    urgent.priority = 5; // a second band
    engine.submit(urgent);
    expectSame(2); // queued, not yet run
    engine.run();
    expectSame(0);
}

TEST(Introspection, ErrorRingRecordsFailedJobs)
{
    // The naive half of a dead-link scenario fails inside the worker
    // (same idiom as JobEngine.TypedFailureDoesNotSinkTheBatch) and
    // must surface in the error ring with its trace id.
    JobEngine engine;
    JobSpec naive;
    naive.app = "APP3-svm-enc";
    naive.mode = apps::AppMode::Stitch;
    naive.samplesShort = 1;
    naive.samplesLong = 2;
    for (const auto &link : fault::allSnocLinks())
        if (link.name() == "t9-t10")
            naive.faults = fault::FaultPlan::linkFailure(link);
    naive.healthFromFaults = false; // keep the healthy plan

    const int ok = engine.submit(cheapSpec());
    const int bad = engine.submit(naive);
    engine.run();
    ASSERT_EQ(engine.result(ok).status, JobResult::Status::Completed);
    ASSERT_EQ(engine.result(bad).status, JobResult::Status::Failed);

    obs::Json live = engine.introspectionJson();
    ASSERT_EQ(live.get("errors").size(), 1u);
    const obs::Json &entry = live.get("errors").at(0);
    EXPECT_EQ(entry.get("job").asUint(),
              static_cast<std::uint64_t>(bad));
    EXPECT_EQ(entry.get("kind").asString(), "config");
    EXPECT_EQ(entry.get("trace_id").asString(),
              telem::traceIdHex(engine.result(bad).traceId));
    EXPECT_EQ(live.get("queue_depth").asUint(), 0u);
    EXPECT_EQ(live.get("in_flight").asUint(), 0u);
    EXPECT_TRUE(live.get("cache").has("hit_rate"));
}

TEST(Introspection, WireRoundTripAgainstLiveServer)
{
    EngineOptions options;
    options.telemetry = true;
    JobEngine engine(options);
    Server server(engine, 0);
    std::thread serving([&] { server.serve(/*maxRequests=*/2); });

    obs::Json job = obs::Json::object();
    job.set("schema", jobSchema);
    job.set("version", jobSchemaVersion);
    job.set("app", "APP1-gesture");
    job.set("samples_short", 1);
    job.set("samples_long", 2);
    job.set("mode", "baseline");
    obs::Json response =
        requestReport("127.0.0.1", server.port(), job);
    EXPECT_EQ(response.get("status").asString(), "ok");

    obs::Json probe = obs::Json::object();
    probe.set("cmd", "metrics");
    obs::Json metrics =
        requestReport("127.0.0.1", server.port(), probe);
    serving.join();

    EXPECT_EQ(metrics.get("schema").asString(), "stitchd-metrics");
    EXPECT_EQ(metrics.get("jobs").get("completed").asUint(), 1u);
    EXPECT_GE(metrics.get("served").asUint(), 2u);
    EXPECT_GT(metrics.get("uptime_s").asDouble(), 0.0);
    // The respond stage of the job request was recorded as a span.
    bool sawRespond = false;
    for (const auto &span : engine.spanSink().snapshot())
        sawRespond |= span.stage == telem::Stage::Respond;
    EXPECT_TRUE(sawRespond);
}

TEST(Introspection, BacklogTracksPendingBands)
{
    JobEngine engine;
    JobSpec low = cheapSpec();
    low.priority = 0;
    JobSpec high = cheapSpec(apps::AppMode::Locus);
    high.priority = 5;
    engine.submit(low);
    engine.submit(high);
    const int cancelled = engine.submit(high);

    obs::Json live = engine.introspectionJson();
    EXPECT_EQ(live.get("queue_depth").asUint(), 3u);
    EXPECT_EQ(
        live.get("per_band_backlog").get("5").asUint(), 2u);
    EXPECT_EQ(
        live.get("per_band_backlog").get("0").asUint(), 1u);

    engine.cancel(cancelled);
    live = engine.introspectionJson();
    EXPECT_EQ(live.get("queue_depth").asUint(), 2u);
    EXPECT_EQ(
        live.get("per_band_backlog").get("5").asUint(), 1u);

    engine.run();
    live = engine.introspectionJson();
    EXPECT_EQ(live.get("queue_depth").asUint(), 0u);
}

} // namespace
} // namespace stitch::svc
