/**
 * @file
 * An in-process three-shard fleet assembled from public parts, as
 * bench/fleet_load.cc does: each shard is a handler-mode svc::Server
 * over its own svc::JobEngine (peered with the other two through the
 * shared cache tier), fronted by a fleet::Router behind one more
 * svc::Server.
 *
 * The handlers are the benchmark's own code, so a traced run can time
 * its calls into Router::handle, svc::handleRequest and
 * svc::cacheVerbResponse from outside, without a span inside src/.
 * Requests are matched across layers by the job `name`, which is not
 * part of the cache key ("fb-<index>").
 */

#ifndef FLEETBENCH_FLEET_RIG_HH
#define FLEETBENCH_FLEET_RIG_HH

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fleet/router.hh"
#include "obs/json.hh"
#include "svc/engine.hh"
#include "svc/server.hh"

namespace fleetbench
{

namespace fleet = stitch::fleet;
namespace obs = stitch::obs;
namespace svc = stitch::svc;

inline constexpr int kShards = 3;

/** The job name that carries a timed request's index. */
std::string requestName(std::size_t index);

/** Timestamps of one timed request, one field per layer boundary
 *  (µs on the steady clock). */
struct RequestTrace
{
    std::int64_t sendUs = 0;        ///< client: before requestReport
    std::int64_t recvUs = 0;        ///< client: response parsed
    std::int64_t routerEnterUs = 0; ///< Router::handle entry
    std::int64_t routerExitUs = 0;  ///< Router::handle return
    std::int64_t shardUs = 0;       ///< svc::handleRequest duration
    /** handleRequest start / end on the shard engine's span clock
     *  (SpanSink::nowUs), so engine spans can be laid inside it. */
    std::uint64_t sinkStartUs = 0;
    std::uint64_t sinkEndUs = 0;
    double queueMs = 0.0;           ///< JobResult::queueMs
    int shard = -1;                 ///< shard that answered
    int jobId = -1;                 ///< job id on that shard
    bool cached = false;            ///< shard-side JobResult::cached
};

/** Peer-side timings of the shared cache tier's wire verbs. */
struct CacheVerbTrace
{
    std::vector<double> getMs; ///< cacheVerbResponse("cacheget")
    std::vector<double> putMs; ///< cacheVerbResponse("cacheput")
};

/**
 * The traced run's recorder. Only requests named by requestName()
 * are recorded, and cache verbs only while armed, so set-up traffic
 * stays out of the timed phase's ledger. Thread-safe.
 */
class Probes
{
  public:
    explicit Probes(std::size_t requests) : traces_(requests) {}

    void arm(bool on);

    void clientSent(std::size_t index, std::int64_t us);
    void clientReceived(std::size_t index, std::int64_t us);
    void routed(const obs::Json &doc, std::int64_t enterUs,
                std::int64_t exitUs);
    void handled(const obs::Json &doc, int shard, int jobId,
                 std::int64_t durationUs, std::uint64_t sinkStartUs,
                 std::uint64_t sinkEndUs, double queueMs,
                 bool cached);
    void cacheVerb(bool put, std::int64_t durationUs);

    /** Copies, for after the timed phase. */
    std::vector<RequestTrace> traces() const;
    CacheVerbTrace cacheVerbs() const;

  private:
    /** Index of a timed request, or -1 for any other document. */
    long indexOf(const obs::Json &doc) const;

    mutable std::mutex mutex_; ///< guards everything below
    bool armed_ = false;
    std::vector<RequestTrace> traces_;
    CacheVerbTrace verbs_;
};

/** Brings the fleet up in the constructor and down in the
 *  destructor (servers stopped, every serving thread joined). */
class Fleet
{
  public:
    /** `telemetry` turns on the engines' span collection;
     *  `probes` (may be null) receives the handler timings. */
    Fleet(bool telemetry, Probes *probes);
    ~Fleet();

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    /** The router's front port. */
    std::uint16_t port() const { return front_->port(); }
    std::uint16_t shardPort(int shard) const;
    svc::JobEngine &engine(int shard) { return *engines_[shard]; }
    fleet::Router &router() { return *router_; }

    /** Wait until every write-behind replication has been sent. */
    void flushReplication();

  private:
    obs::Json dispatch(int shard, const obs::Json &doc);

    Probes *probes_;
    std::array<std::unique_ptr<svc::JobEngine>, kShards> engines_;
    std::vector<std::unique_ptr<svc::Server>> servers_;
    std::unique_ptr<fleet::Router> router_;
    std::unique_ptr<svc::Server> front_;
    /** Declared last: joined in the destructor before the servers,
     *  engines and router they use are destroyed. */
    std::vector<std::thread> serving_;
};

} // namespace fleetbench

#endif // FLEETBENCH_FLEET_RIG_HH
