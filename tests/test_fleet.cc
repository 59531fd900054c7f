/**
 * @file
 * Fleet-layer tests (DESIGN.md §16): the consistent-hash ring
 * (uniformity over 1k keys, bounded remapping on shard add/remove,
 * cross-process determinism pinned by a golden digest), the shared
 * cache tier (cacheget/cacheput verb contract incl. the stamp and
 * key-canonicality guards, read-through and write-behind through two
 * live engines), the stitchrouter core (routing annotation, failover
 * past a killed shard, the typed "unavailable" terminal error,
 * fleet-wide statz aggregation) and the stitchload harness (seeded
 * schedule determinism, closed-loop replay against a live daemon).
 * The telemetry wire forms the router merges (Histogram buckets,
 * MetricSample) get their lossless round-trip pinned here too.
 */

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.hh"
#include "fleet/load.hh"
#include "fleet/ring.hh"
#include "fleet/router.hh"
#include "obs/json.hh"
#include "svc/cache.hh"
#include "svc/engine.hh"
#include "svc/job.hh"
#include "svc/server.hh"
#include "telem/histogram.hh"
#include "telem/timeseries.hh"

namespace stitch::fleet
{
namespace
{

/** The 1k synthetic keys every ring test shares. */
std::vector<std::string>
syntheticKeys(int n = 1000)
{
    std::vector<std::string> keys;
    keys.reserve(n);
    for (int i = 0; i < n; ++i)
        keys.push_back("key-" + std::to_string(i));
    return keys;
}

HashRing
threeShardRing()
{
    HashRing ring;
    ring.addShard("alpha");
    ring.addShard("beta");
    ring.addShard("gamma");
    return ring;
}

/** A cheap spec (smallest legal sample window); distinct `salt`
 *  values produce distinct cache identities without changing what
 *  actually runs (the budget is hashed but never reached). */
svc::JobSpec
cheapSpec(std::uint64_t salt = 0)
{
    svc::JobSpec spec;
    spec.app = "APP1-gesture";
    spec.samplesShort = 1;
    spec.samplesLong = 2;
    if (salt)
        spec.maxInstructions = 50'000'000 + salt;
    return spec;
}

// ---------------------------------------------------------------- //
// consistent-hash ring

TEST(HashRing, DistributionStaysNearUniform)
{
    HashRing ring = threeShardRing();
    std::map<std::string, int> share;
    for (const auto &key : syntheticKeys())
        ++share[ring.ownerOf(key)];
    ASSERT_EQ(share.size(), 3u);
    for (const auto &[shard, n] : share) {
        // 1/3 of 1000 ± a generous vnode-smoothing band.
        EXPECT_GT(n, 150) << shard;
        EXPECT_LT(n, 550) << shard;
    }
}

TEST(HashRing, PlacementIsDeterministicAcrossProcesses)
{
    // Golden digest: pinned from an independent standalone binary,
    // so any change to the point-hash scheme, the search, or
    // svc::hashBytes shows up as a cross-process disagreement here.
    HashRing ring = threeShardRing();
    EXPECT_EQ(ring.assignmentDigest(syntheticKeys()),
              3383876001848120797ull);

    // And two independently built rings agree key-for-key.
    HashRing again = threeShardRing();
    for (const auto &key : syntheticKeys(100))
        EXPECT_EQ(ring.ownerOf(key), again.ownerOf(key));
}

TEST(HashRing, AddingAShardMovesFewKeys)
{
    HashRing before = threeShardRing();
    HashRing after = threeShardRing();
    after.addShard("delta");

    const auto keys = syntheticKeys();
    int moved = 0;
    for (const auto &key : keys) {
        const std::string &now = after.ownerOf(key);
        if (now != before.ownerOf(key)) {
            ++moved;
            // Every moved key must have moved *to* the new shard —
            // consistent hashing never shuffles between survivors.
            EXPECT_EQ(now, "delta") << key;
        }
    }
    // Expected churn is ~1/N = 250 of 1000; assert the < 2/N bound.
    EXPECT_GT(moved, 0);
    EXPECT_LT(moved, 500);
}

TEST(HashRing, RemovingAShardMovesOnlyItsKeys)
{
    HashRing four = threeShardRing();
    four.addShard("delta");
    HashRing three = threeShardRing();

    int moved = 0;
    for (const auto &key : syntheticKeys()) {
        const std::string &was = four.ownerOf(key);
        if (was == "delta")
            ++moved;
        else
            EXPECT_EQ(three.ownerOf(key), was) << key;
    }
    EXPECT_GT(moved, 0);
    EXPECT_LT(moved, 500); // < 2/N of 1000, N = 4
}

TEST(HashRing, PreferenceListIsDistinctAndOwnerFirst)
{
    HashRing ring = threeShardRing();
    for (const auto &key : syntheticKeys(50)) {
        auto prefs = ring.preferenceList(key, 3);
        ASSERT_EQ(prefs.size(), 3u);
        EXPECT_EQ(prefs[0], ring.ownerOf(key));
        std::set<std::string> distinct(prefs.begin(), prefs.end());
        EXPECT_EQ(distinct.size(), 3u);
    }
    // n clamps to size().
    EXPECT_EQ(ring.preferenceList("key-0", 99).size(), 3u);
}

TEST(HashRing, ValidatesItsInputs)
{
    HashRing ring;
    EXPECT_THROW(ring.ownerOf("anything"), fault::ConfigError);
    EXPECT_THROW(ring.addShard(""), fault::ConfigError);
    EXPECT_THROW(HashRing(0), fault::ConfigError);

    ring.addShard("alpha");
    ring.addShard("alpha"); // idempotent
    EXPECT_EQ(ring.size(), 1u);
    EXPECT_EQ(ring.ownerOf("k"), "alpha");
    ring.removeShard("never-added"); // ignored
    ring.removeShard("alpha");
    EXPECT_TRUE(ring.empty());
}

// ---------------------------------------------------------------- //
// shared cache tier: the wire verbs

obs::Json
cacheGetDoc(const svc::JobSpec &spec)
{
    obs::Json doc = svc::encodeCacheQuery(spec, spec.cacheKey());
    doc.set("cmd", "cacheget");
    return doc;
}

obs::Json
cachePutDoc(const svc::JobSpec &spec)
{
    svc::CacheEntry entry;
    entry.report = obs::Json::object();
    entry.report.set("marker", "from-peer");
    entry.derived = obs::Json::object();
    obs::Json doc =
        svc::encodeCacheRecord(spec, spec.cacheKey(), entry);
    doc.set("cmd", "cacheput");
    return doc;
}

TEST(CacheVerbs, GetMissesThenHitsAfterPut)
{
    svc::JobEngine engine(svc::EngineOptions{});
    const svc::JobSpec spec = cheapSpec(1);

    obs::Json miss = svc::cacheVerbResponse(engine, cacheGetDoc(spec));
    EXPECT_EQ(miss.get("status").asString(), "miss");

    obs::Json put = svc::cacheVerbResponse(engine, cachePutDoc(spec));
    EXPECT_EQ(put.get("status").asString(), "ok");

    obs::Json hit = svc::cacheVerbResponse(engine, cacheGetDoc(spec));
    ASSERT_EQ(hit.get("status").asString(), "hit");
    // The hit is the cache record: the serving side's own canonical
    // spec, which the client compares byte-exact against its own.
    EXPECT_EQ(hit.get("spec").dump(), spec.canonicalJson().dump());
    EXPECT_EQ(hit.get("report").get("marker").asString(),
              "from-peer");
}

TEST(CacheVerbs, PutWithStaleStampIsRejectedTyped)
{
    svc::JobEngine engine(svc::EngineOptions{});
    const svc::JobSpec spec = cheapSpec(2);
    obs::Json doc = cachePutDoc(spec);
    doc.set("stamp", "stale-stamp");
    obs::Json resp = svc::cacheVerbResponse(engine, doc);
    EXPECT_EQ(resp.get("status").asString(), "error");
    EXPECT_EQ(resp.get("error_kind").asString(), "mismatch");
    // Nothing was stored.
    EXPECT_EQ(svc::cacheVerbResponse(engine, cacheGetDoc(spec))
                  .get("status")
                  .asString(),
              "miss");
}

TEST(CacheVerbs, KeyMustMatchTheSpecsCanonicalForm)
{
    svc::JobEngine engine(svc::EngineOptions{});
    obs::Json doc = cacheGetDoc(cheapSpec(3));
    doc.set("key", "not-the-canonical-key");
    obs::Json resp = svc::cacheVerbResponse(engine, doc);
    EXPECT_EQ(resp.get("status").asString(), "error");
    EXPECT_EQ(resp.get("error_kind").asString(), "config");
}

// ---------------------------------------------------------------- //
// shared cache tier: read-through / write-behind between engines

TEST(RemoteCache, ReadThroughAdoptsAPeersEntry)
{
    // Shard 1 simulates; shard 2, peered at it, must hit remotely.
    svc::JobEngine e1{svc::EngineOptions{}};
    const svc::JobSpec spec = cheapSpec(10);
    const int id1 = e1.submit(spec);
    e1.run();
    ASSERT_EQ(e1.result(id1).status,
              svc::JobResult::Status::Completed);

    svc::Server s1(e1, /*port=*/0);
    std::thread serving([&] { s1.serve(); });

    svc::EngineOptions o2;
    o2.remoteCache.peers = {"127.0.0.1:" +
                            std::to_string(s1.port())};
    o2.remoteCache.writeBehind = false;
    svc::JobEngine e2(o2);
    const int id2 = e2.submit(spec);
    e2.run();

    const svc::JobResult &r2 = e2.result(id2);
    ASSERT_EQ(r2.status, svc::JobResult::Status::Completed);
    EXPECT_TRUE(r2.cached);
    ASSERT_NE(e2.remoteCache(), nullptr);
    EXPECT_EQ(e2.remoteCache()->stats().hits, 1u);
    EXPECT_EQ(e2.remoteCache()->stats().errors, 0u);
    // Byte-identical to the peer's own report.
    EXPECT_EQ(r2.report.dump(), e1.result(id1).report.dump());

    s1.stop();
    serving.join();
}

TEST(RemoteCache, WriteBehindReplicatesAFreshSimulation)
{
    svc::JobEngine e1{svc::EngineOptions{}};
    svc::Server s1(e1, /*port=*/0);
    std::thread serving([&] { s1.serve(); });

    svc::EngineOptions o2;
    o2.remoteCache.peers = {"127.0.0.1:" +
                            std::to_string(s1.port())};
    o2.remoteCache.writeBehind = false; // inline, for determinism
    svc::JobEngine e2(o2);
    const svc::JobSpec spec = cheapSpec(11);
    const int id = e2.submit(spec);
    e2.run();
    ASSERT_EQ(e2.result(id).status,
              svc::JobResult::Status::Completed);
    EXPECT_FALSE(e2.result(id).cached);

    // The fresh result must now live in the peer's own cache.
    EXPECT_TRUE(e1.cache().lookup(spec).has_value());
    EXPECT_EQ(e2.remoteCache()->stats().stores, 1u);

    s1.stop();
    serving.join();
}

// ---------------------------------------------------------------- //
// router

/** Three live stitchd shards (engine-mode servers on free ports)
 *  plus a Router fronting them. */
class RouterFixture : public ::testing::Test
{
  protected:
    static constexpr int kShards = 3;

    void
    SetUp() override
    {
        for (int i = 0; i < kShards; ++i) {
            engines_.push_back(std::make_unique<svc::JobEngine>(
                svc::EngineOptions{}));
            servers_.push_back(std::make_unique<svc::Server>(
                *engines_.back(), /*port=*/0));
        }
        RouterOptions options;
        for (const auto &server : servers_)
            options.shards.push_back(
                "127.0.0.1:" + std::to_string(server->port()));
        options.retry.maxAttempts = kShards;
        options.retry.baseDelayMs = 0.5;
        router_ = std::make_unique<Router>(options);
        for (const auto &server : servers_)
            threads_.emplace_back(
                [srv = server.get()] { srv->serve(); });
    }

    void
    TearDown() override
    {
        for (int i = 0; i < kShards; ++i)
            stopShard(i);
    }

    /** Kill shard `i`'s serving loop; its port then refuses. */
    void
    stopShard(int i)
    {
        if (!threads_[i].joinable())
            return;
        servers_[i]->stop();
        threads_[i].join();
    }

    std::string
    shardName(int i) const
    {
        return "127.0.0.1:" +
               std::to_string(servers_[i]->port());
    }

    int
    shardIndexByName(const std::string &name) const
    {
        for (int i = 0; i < kShards; ++i)
            if (shardName(i) == name)
                return i;
        return -1;
    }

    std::vector<std::unique_ptr<svc::JobEngine>> engines_;
    std::vector<std::unique_ptr<svc::Server>> servers_;
    std::vector<std::thread> threads_;
    std::unique_ptr<Router> router_;
};

TEST_F(RouterFixture, RoutesByRingOwnerAndAnnotates)
{
    const svc::JobSpec spec = cheapSpec(20);
    obs::Json resp = router_->handle(spec.toJson());
    ASSERT_EQ(resp.get("status").asString(), "ok");
    EXPECT_EQ(resp.get("shard").asString(),
              router_->ring().ownerOf(spec.cacheKey()));
    EXPECT_EQ(resp.get("router_attempts").asUint(), 1u);

    // A duplicate lands on the same shard — and hits its cache.
    obs::Json again = router_->handle(spec.toJson());
    ASSERT_EQ(again.get("status").asString(), "ok");
    EXPECT_EQ(again.get("shard").asString(),
              resp.get("shard").asString());
    EXPECT_TRUE(again.get("cached").asBool());

    // So does one asking for another scheduler: an execution hint
    // outside the cache identity.
    svc::JobSpec hinted = spec;
    hinted.scheduler = sim::SchedulerKind::Compiled;
    obs::Json compiled = router_->handle(hinted.toJson());
    ASSERT_EQ(compiled.get("status").asString(), "ok");
    EXPECT_EQ(compiled.get("shard").asString(),
              resp.get("shard").asString());
    EXPECT_TRUE(compiled.get("cached").asBool());

    EXPECT_EQ(router_->stats().jobsRouted, 3u);
    EXPECT_EQ(router_->stats().failoverReroutes, 0u);
}

TEST_F(RouterFixture, FailsOverPastADeadShard)
{
    const svc::JobSpec spec = cheapSpec(21);
    obs::Json first = router_->handle(spec.toJson());
    ASSERT_EQ(first.get("status").asString(), "ok");
    const std::string owner = first.get("shard").asString();
    const int ownerIdx = shardIndexByName(owner);
    ASSERT_GE(ownerIdx, 0);

    stopShard(ownerIdx);

    obs::Json rerouted = router_->handle(spec.toJson());
    ASSERT_EQ(rerouted.get("status").asString(), "ok")
        << rerouted.dump();
    EXPECT_NE(rerouted.get("shard").asString(), owner);
    EXPECT_GE(rerouted.get("router_attempts").asUint(), 2u);
    EXPECT_GE(router_->stats().failoverReroutes, 1u);
    EXPECT_GE(router_->stats().shardFailures, 1u);
}

TEST_F(RouterFixture, AggregatesFleetWideStatz)
{
    for (std::uint64_t salt = 30; salt < 33; ++salt)
        ASSERT_EQ(router_->handle(cheapSpec(salt).toJson())
                      .get("status")
                      .asString(),
                  "ok");

    obs::Json statz = router_->handle([] {
        obs::Json doc = obs::Json::object();
        doc.set("cmd", "statz");
        return doc;
    }());
    EXPECT_EQ(statz.get("schema").asString(), routerStatzSchema);
    const obs::Json &fleet = statz.get("fleet");
    EXPECT_EQ(fleet.get("healthy_shards").asUint(),
              static_cast<std::uint64_t>(kShards));
    EXPECT_EQ(fleet.get("jobs_submitted").asUint(), 3u);
    EXPECT_EQ(fleet.get("jobs_completed").asUint(), 3u);
    EXPECT_EQ(fleet.get("jobs_failed").asUint(), 0u);
    EXPECT_EQ(statz.get("router").get("jobs_routed").asUint(), 3u);
    ASSERT_EQ(statz.get("shards").size(),
              static_cast<std::size_t>(kShards));

    // The merged e2e histogram is a real population: its count is
    // the fleet-wide completed total, not an average of averages.
    EXPECT_GE(fleet.get("e2e_p99_ms").asDouble(),
              fleet.get("e2e_p50_ms").asDouble());

    obs::Json health = router_->handle([] {
        obs::Json doc = obs::Json::object();
        doc.set("cmd", "healthz");
        return doc;
    }());
    EXPECT_EQ(health.get("schema").asString(), routerHealthzSchema);
    EXPECT_EQ(health.get("healthy_shards").asUint(),
              static_cast<std::uint64_t>(kShards));
}

TEST_F(RouterFixture, RelayedFrameIsTheShardsResponsePlusTwoKeys)
{
    const svc::JobSpec spec = cheapSpec(22);
    ASSERT_EQ(router_->handle(spec.toJson()).get("status").asString(),
              "ok");
    const obs::Json relayed = router_->handle(spec.toJson());
    const int owner =
        shardIndexByName(router_->ring().ownerOf(spec.cacheKey()));
    ASSERT_GE(owner, 0);
    const obs::Json direct = svc::requestReport(
        "127.0.0.1", servers_[owner]->port(), spec.toJson());
    ASSERT_TRUE(direct.get("cached").asBool());

    // The relay parses to the shard's response (keys in order, same
    // values but the per-request trace id) plus exactly two keys.
    const auto &got = relayed.items();
    const auto &want = direct.items();
    ASSERT_EQ(got.size(), want.size() + 2);
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].first, want[i].first);
        if (want[i].first != "trace_id") {
            EXPECT_EQ(got[i].second.dump(), want[i].second.dump())
                << want[i].first;
        }
    }
    EXPECT_EQ(got[want.size()].first, "shard");
    EXPECT_EQ(got[want.size()].second.asString(), shardName(owner));
    EXPECT_EQ(got[want.size() + 1].first, "router_attempts");
    EXPECT_EQ(got[want.size() + 1].second.asUint(), 1u);
}

TEST(Router, NonObjectShardFrameAnswersTypedInternal)
{
    svc::Server shard([](const obs::Json &) { return obs::Json::array(); });
    std::thread loop([&] { shard.serve(/*maxRequests=*/1); });
    RouterOptions options;
    options.shards = {"127.0.0.1:" + std::to_string(shard.port())};
    Router router(options);
    const obs::Json resp = router.handle(cheapSpec(23).toJson());
    loop.join();
    EXPECT_EQ(resp.get("status").asString(), "error");
    EXPECT_EQ(resp.get("error_kind").asString(), "internal");
    EXPECT_EQ(router.stats().jobsRouted, 1u);
    EXPECT_EQ(router.stats().failoverReroutes, 0u);
}

TEST(Router, ExhaustionAnswersTypedUnavailable)
{
    // Grab a port that refuses: bind, read it back, close.
    std::uint16_t deadPort = 0;
    {
        svc::JobEngine scratch{svc::EngineOptions{}};
        svc::Server ephemeral(scratch, 0);
        deadPort = ephemeral.port();
    }
    RouterOptions options;
    options.shards = {"127.0.0.1:" + std::to_string(deadPort)};
    options.retry.maxAttempts = 1;
    Router router(options);

    obs::Json resp = router.handle(cheapSpec(40).toJson());
    EXPECT_EQ(resp.get("status").asString(), "error");
    EXPECT_EQ(resp.get("error_kind").asString(), "unavailable");
    EXPECT_EQ(router.stats().unavailable, 1u);
}

TEST(Router, ValidatesItsOptions)
{
    EXPECT_THROW(Router{RouterOptions{}}, fault::ConfigError);

    RouterOptions dup;
    dup.shards = {"127.0.0.1:9001", "127.0.0.1:9001"};
    EXPECT_THROW(Router{dup}, fault::ConfigError);

    RouterOptions bad;
    bad.shards = {"no-port-here"};
    EXPECT_THROW(Router{bad}, fault::ConfigError);
}

// ---------------------------------------------------------------- //
// stitchload: the seeded mix

TEST(LoadSchedule, IsAPureFunctionOfTheMix)
{
    LoadMix mix;
    mix.seed = 42;
    mix.requests = 64;
    auto a = buildSchedule(mix);
    auto b = buildSchedule(mix);
    ASSERT_EQ(a.size(), 64u);
    EXPECT_EQ(scheduleDigest(a), scheduleDigest(b));
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].doc.dump(), b[i].doc.dump()) << i;

    mix.seed = 43;
    EXPECT_NE(scheduleDigest(buildSchedule(mix)),
              scheduleDigest(a));
}

TEST(LoadSchedule, MixesHotDuplicatesAndUniqueTail)
{
    LoadMix mix;
    mix.seed = 7;
    mix.requests = 100;
    mix.hotFraction = 0.6;
    mix.hotSetSize = 4;
    auto schedule = buildSchedule(mix);

    std::map<std::string, int> byKey;
    int hot = 0;
    for (const auto &req : schedule) {
        ++byKey[req.key];
        hot += req.hot;
        EXPECT_GE(req.priority, 0);
        EXPECT_LE(req.priority, 2);
    }
    // The hot set produced real duplicates; the tail is unique.
    EXPECT_GT(hot, 20);
    EXPECT_LT(hot, 95);
    int duplicated = 0;
    for (const auto &[key, n] : byKey)
        duplicated += n > 1;
    EXPECT_GT(duplicated, 0);
    EXPECT_LE(duplicated, mix.hotSetSize);
}

TEST(LoadSchedule, ValidatesTheMix)
{
    LoadMix bad;
    bad.requests = 0;
    EXPECT_THROW(bad.validate(), fault::ConfigError);
    bad = LoadMix{};
    bad.hotFraction = 1.5;
    EXPECT_THROW(bad.validate(), fault::ConfigError);
    bad = LoadMix{};
    bad.clients = 0;
    EXPECT_THROW(bad.validate(), fault::ConfigError);
}

TEST(LoadHarness, ClosedLoopReplayAgainstALiveDaemon)
{
    svc::JobEngine engine(svc::EngineOptions{});
    svc::Server server(engine, /*port=*/0);
    std::thread serving([&] { server.serve(); });

    LoadMix mix;
    mix.seed = 5;
    mix.requests = 12;
    mix.clients = 3;
    mix.hotFraction = 1.0; // every request replays one hot job
    mix.hotSetSize = 1;
    LoadReport report = runLoad(mix, "127.0.0.1", server.port());

    EXPECT_EQ(report.ok, 12u);
    EXPECT_EQ(report.untypedFailures, 0u);
    EXPECT_EQ(report.transportFailures, 0u);
    // The single-threaded serve loop serializes the duplicates, so
    // exactly the first simulates and the rest hit.
    EXPECT_EQ(report.cached, 11u);
    EXPECT_EQ(report.latency.count(), 12u);
    EXPECT_EQ(report.digest,
              scheduleDigest(buildSchedule(mix)));

    obs::Json doc = report.toJson();
    EXPECT_EQ(doc.get("schema").asString(), loadReportSchema);
    EXPECT_EQ(doc.get("ok").asUint(), 12u);
    EXPECT_NEAR(doc.get("fleet_hit_rate").asDouble(), 11.0 / 12.0,
                1e-9);

    server.stop();
    serving.join();
}

// ---------------------------------------------------------------- //
// the telemetry wire forms the router merges

TEST(FleetWire, HistogramBucketsRoundTripLosslessly)
{
    telem::Histogram h;
    for (std::uint64_t v : {1u, 10u, 100u, 1000u, 10000u, 100000u})
        h.record(v);
    telem::Histogram back =
        telem::Histogram::fromBucketsJson(h.toBucketsJson());
    EXPECT_EQ(back.count(), h.count());
    for (double q : {0.5, 0.9, 0.99})
        EXPECT_EQ(back.quantile(q), h.quantile(q));

    // Merging a wire copy doubles every bucket.
    h.merge(back);
    EXPECT_EQ(h.count(), 12u);
}

TEST(FleetWire, MetricSampleRoundTripsAndMerges)
{
    telem::MetricSample a;
    a.counters.emplace_back("jobs_completed", 5u);
    a.gauges.emplace_back("queue_depth", 2.0);
    telem::Histogram h;
    h.record(500);
    h.record(1500);
    a.histograms.emplace_back("e2e", h);

    telem::MetricSample b =
        telem::MetricSample::fromWireJson(a.toWireJson());
    EXPECT_EQ(b.counter("jobs_completed"), 5u);
    EXPECT_EQ(b.gauge("queue_depth"), 2.0);
    ASSERT_NE(b.histogram("e2e"), nullptr);
    EXPECT_EQ(b.histogram("e2e")->count(), 2u);

    // The fleet fold: counters and histogram populations add.
    a.merge(b);
    EXPECT_EQ(a.counter("jobs_completed"), 10u);
    EXPECT_EQ(a.histogram("e2e")->count(), 4u);
    EXPECT_EQ(a.gauge("queue_depth"), 4.0);
}

} // namespace
} // namespace stitch::fleet
