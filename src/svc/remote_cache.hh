/**
 * @file
 * The shared cache tier's client side: a read-through /
 * write-behind window onto the ResultCaches of peer stitchd shards.
 *
 * Promotion story (DESIGN.md §16): every shard keeps serving its own
 * mem/disk ResultCache exactly as before; the fleet layer adds the
 * "cacheget"/"cacheput" wire verbs (svc/server.hh) on the serving
 * side and this client on the engine side. A worker that misses both
 * local layers asks its peers before simulating (read-through), and
 * a fresh simulation is broadcast to every peer (write-behind, on a
 * background thread so job latency never waits on replication) — so
 * a job simulated on shard A is a cache hit fleet-wide.
 *
 * Consistency rules: a hit's reply and a push are both the cache
 * record of svc/cache.hh, checked by the decodeCacheRecord() a disk
 * read runs —
 *  - a peer's hit must pass every guard (stamp equal to the local
 *    cacheStamp(), key and canonical spec byte-identical to the
 *    local job's, report and derived present); a refused record
 *    degrades to a miss and is counted as `invalidated`, never
 *    served,
 *  - the serving side runs the same guards on a push before it
 *    stores anything (svc/server.hh, cacheVerbResponse),
 *  - peer failures are counted (`errors`) and never fail a job: the
 *    remote tier is an accelerator, losing it merely costs a
 *    simulation.
 *
 * Probe order is deterministic: peers are tried starting at
 * hashBytes(key) % N, so for a fixed peer list every process asks in
 * the same order and the shard most likely to own the key (under the
 * router's ring) is reached with a bounded number of hops.
 */

#ifndef STITCH_SVC_REMOTE_CACHE_HH
#define STITCH_SVC_REMOTE_CACHE_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hh"
#include "svc/cache.hh"
#include "svc/job.hh"

namespace stitch::svc
{

/** One "host:port" peer, parsed and validated. */
struct PeerEndpoint
{
    std::string host;
    std::uint16_t port = 0;

    std::string
    name() const
    {
        return host + ":" + std::to_string(port);
    }
};

/** Parse "host:port"; throws fault::ConfigError on malformed input
 *  (no colon, port outside 1..65535). */
PeerEndpoint parsePeerEndpoint(const std::string &text);

/** Parse a comma-separated peer list, skipping empty segments. */
std::vector<PeerEndpoint> parsePeerList(const std::string &csv);

/** Knobs for the remote tier (EngineOptions::remoteCache). */
struct RemoteCacheOptions
{
    /** Peer shard endpoints ("host:port"); empty disables the
     *  remote tier entirely. */
    std::vector<std::string> peers;

    /** Per-operation socket timeout (ms): a dead-but-lingering peer
     *  costs at most this much per probe, never a wedged worker. */
    std::uint64_t timeoutMs = 250;

    /** true: stores replicate on a background thread (the daemon
     *  default — job latency never waits on peers). false: stores
     *  replicate inline before the call returns, which tests and
     *  single-shot tools use for determinism. */
    bool writeBehind = true;
};

/** Lookup/replication activity since construction. */
struct RemoteCacheStats
{
    std::uint64_t hits = 0;       ///< entries adopted from a peer
    std::uint64_t misses = 0;     ///< lookups no peer could serve
    std::uint64_t errors = 0;     ///< peer transport/typed failures
    std::uint64_t invalidated = 0; ///< peer records decode refused
    std::uint64_t stores = 0;     ///< successful per-peer cacheputs
    std::uint64_t storeFailures = 0; ///< per-peer cacheputs lost
    std::uint64_t pending = 0;    ///< write-behind backlog (gauge)
};

/** Read-through / write-behind client over the cacheget/cacheput
 *  verbs (see file comment). Thread-safe; workers call lookup() and
 *  storeBehind() concurrently. */
class RemoteCacheClient
{
  public:
    explicit RemoteCacheClient(const RemoteCacheOptions &options);
    ~RemoteCacheClient();

    RemoteCacheClient(const RemoteCacheClient &) = delete;
    RemoteCacheClient &operator=(const RemoteCacheClient &) = delete;

    bool enabled() const { return !peers_.empty(); }
    const std::vector<PeerEndpoint> &peers() const { return peers_; }

    /**
     * Ask the peers for `spec`'s entry (key = spec.cacheKey(),
     * precomputed by the engine). Returns the first entry whose
     * record passes decodeCacheRecord(); std::nullopt when every
     * peer misses, fails, or serves a refused record. Never throws.
     */
    std::optional<CacheEntry> lookup(const JobSpec &spec,
                                     const std::string &key);

    /**
     * Replicate a freshly simulated entry to every peer as a
     * "cacheput" of its cache record. With writeBehind the document
     * is queued and the call returns immediately; otherwise it
     * replicates inline. Failures are counted, never raised.
     */
    void storeBehind(const JobSpec &spec, const std::string &key,
                     const CacheEntry &entry);

    /** Drain the write-behind queue (tests, graceful shutdown);
     *  returns once every queued store has been attempted. */
    void flush();

    RemoteCacheStats stats() const;

  private:
    void replicate(const obs::Json &doc);
    void writerLoop();
    /** Bump one of stats_'s counters under the lock. */
    void count(std::uint64_t &counter);

    std::vector<PeerEndpoint> peers_;
    std::uint64_t timeoutMs_;
    bool writeBehind_;

    mutable std::mutex mutex_; ///< stats_ + queue_ + busy_/stop_
    std::condition_variable cv_;
    RemoteCacheStats stats_;
    std::deque<obs::Json> queue_; ///< pending cacheput documents
    bool busy_ = false;           ///< writer mid-replication
    bool stop_ = false;
    std::thread writer_;
};

} // namespace stitch::svc

#endif // STITCH_SVC_REMOTE_CACHE_HH
