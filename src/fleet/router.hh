/**
 * @file
 * The stitchrouter core: one svc::Server::RequestHandler that fronts
 * a fleet of stitchd shards (DESIGN.md §16).
 *
 * Job path: a stitch-job document routes by its canonical cacheKey()
 * through the consistent-hash ring (fleet/ring.hh), so duplicates of
 * a job always land on the same shard and dedup there. The route is
 * decided once, from the key; the shard's response frame then passes
 * through as bytes (Json::fromCompact), with `shard` and
 * `router_attempts` spliced in and nothing parsed. A shard that
 * fails at the transport level (connect refused, framing failure,
 * socket timeout) is marked dead and the job regains its place on
 * the ring's preference list — the failover hop is counted
 * (`failover_reroutes`) and the total attempts per job are bounded
 * by RouterOptions::retry (svc::RetryPolicy), with the policy's
 * deterministic jittered backoff between attempts. Dead shards are
 * re-probed after `holdoffMs` (the next routed job doubles as the
 * probe), so a restarted shard rejoins without operator action.
 * When every attempt is exhausted the client gets the typed
 * "unavailable" error — never a dropped connection, never an
 * untyped failure.
 *
 * Introspection path: "cmd" documents are answered fleet-wide.
 * healthz probes every shard and reports per-shard liveness; statz /
 * metrics fetch each live shard's "fleetz" snapshot (the lossless
 * MetricSample + retained windows wire form) and fold them with the
 * telemetry merge algebra — Histogram::merge bucket-by-bucket,
 * windows aligned by seq — so fleet-level p50/p99 are computed from
 * real merged populations, not averaged quantiles. scrape renders
 * the merged sample as one Prometheus exposition for the whole
 * fleet.
 */

#ifndef STITCH_FLEET_ROUTER_HH
#define STITCH_FLEET_ROUTER_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "fleet/ring.hh"
#include "obs/json.hh"
#include "svc/chaos.hh"
#include "svc/remote_cache.hh"

namespace stitch::fleet
{

/** Schema stamps for the router's own documents. */
inline constexpr const char *routerStatzSchema = "stitchrouter-statz";
inline constexpr const char *routerHealthzSchema =
    "stitchrouter-healthz";
inline constexpr int routerSchemaVersion = 1;

struct RouterOptions
{
    /** Shard endpoints ("host:port"); at least one required. */
    std::vector<std::string> shards;

    /** Ring points per shard. */
    int vnodes = defaultVnodes;

    /** Bounds the *total* attempts per routed job (first try
     *  included) and shapes the backoff between them. The default
     *  gives each job up to three shards before "unavailable". */
    svc::RetryPolicy retry{/*maxAttempts=*/3, /*baseDelayMs=*/2.0,
                           /*maxDelayMs=*/250.0, /*multiplier=*/2.0,
                           /*seed=*/0};

    /** Per-request socket timeout toward a shard (ms); a hung shard
     *  must surface as a failover, not a wedged router. */
    std::uint64_t shardTimeoutMs = 5000;

    /** How long a shard marked dead is skipped before the next job
     *  re-probes it. */
    std::uint64_t holdoffMs = 1000;
};

/** Router-level counters (shard-level live in statzJson()). */
struct RouterStats
{
    std::uint64_t jobsRouted = 0;      ///< job documents forwarded
    std::uint64_t failoverReroutes = 0; ///< hops past a dead shard
    std::uint64_t shardFailures = 0;   ///< transport failures seen
    std::uint64_t unavailable = 0;     ///< jobs out of shards
    std::uint64_t cmdsServed = 0;      ///< introspection requests
};

class Router
{
  public:
    /** Validates options (>= 1 shard, parseable endpoints, sane
     *  retry policy); throws fault::ConfigError. */
    explicit Router(const RouterOptions &options);

    /** The Server::RequestHandler: dispatches "cmd" documents to the
     *  fleet aggregators and everything else to routeJob(). Never
     *  throws; every failure is a typed error response. */
    obs::Json handle(const obs::Json &request);

    /** Fleet-wide statz (also the "statz" cmd): per-shard health +
     *  served counts, merged fleet sample summary, router counters. */
    obs::Json statzJson();

    RouterStats stats() const;
    const HashRing &ring() const { return ring_; }
    const RouterOptions &options() const { return options_; }

  private:
    struct Shard
    {
        svc::PeerEndpoint endpoint;
        bool dead = false;
        std::chrono::steady_clock::time_point deadSince{};
        std::uint64_t routed = 0;
        std::uint64_t failures = 0;
    };

    obs::Json routeJob(const obs::Json &request);
    obs::Json healthzJson();
    obs::Json scrapeJson();
    Shard &shardByName(const std::string &name);

    /** True when the shard should be skipped (dead, holdoff not yet
     *  expired). */
    bool skipDead(const Shard &shard) const;

    RouterOptions options_;
    HashRing ring_;
    std::vector<Shard> shards_; ///< same order as ring_.shards()

    mutable std::mutex mutex_; ///< stats_ + shard health
    RouterStats stats_;
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
};

} // namespace stitch::fleet

#endif // STITCH_FLEET_ROUTER_HH
