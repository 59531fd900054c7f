/**
 * @file
 * stitchd's serving loop as a library: a localhost TCP listener that
 * reads one length-prefixed stitch-job document per request, drives
 * it through a svc::JobEngine, and writes back a length-prefixed
 * stitch-response document. Living in the library (rather than the
 * stitchd main) lets a test run server and client in one process and
 * assert on the round-trip.
 *
 * Wire format, both directions: a 4-byte big-endian payload length
 * followed by that many bytes of UTF-8 JSON. One request per
 * connection; the server answers and closes. Responses are compact
 * JSON (obs::Json::dump()), so a cached report goes out as the bytes
 * its cache entry already holds:
 *
 *   {"schema":"stitch-response","version":1,"status":"ok",
 *    "cached":...,"key":"...","report":{...},"derived":{...}}
 *   {"schema":"stitch-response","version":1,"status":"error",
 *    "error_kind":"config","error":"..."}
 *
 * Malformed frames and invalid specs produce an error response, not a
 * dropped connection — the daemon must survive bad clients. Framing
 * violations are *typed*: an oversized length prefix, a short read
 * (mid-frame disconnect) and a read timeout each answer with an
 * "protocol" error naming the violation, invalid JSON answers
 * "config", and an admission-control rejection answers "overloaded"
 * (the client's cue to back off and retry). Per-connection read
 * timeouts (ServerOptions::readTimeoutMs) stop a stalled client from
 * wedging the single-threaded serve loop.
 *
 * A request whose document carries a "cmd" key is an introspection
 * request, answered from live engine state without touching the job
 * queue:
 *
 *   {"cmd":"healthz"}  -> stitchd-healthz  (liveness + uptime +
 *                         build provenance)
 *   {"cmd":"metrics"}  -> stitchd-metrics  (queue depth, in-flight,
 *                         per-band backlog, cache rates, latency
 *                         quantiles, error ring)
 *   {"cmd":"statz"}    -> stitchd-statz    (metrics + full service
 *                         report: counters, histograms, span rollup,
 *                         SLO status, time-series summary)
 *   {"cmd":"scrape"}   -> stitchd-scrape   (the Prometheus text
 *                         exposition in an "exposition" field, with
 *                         its Content-Type alongside; see
 *                         telem/exposition.hh for the naming
 *                         contract)
 *   {"cmd":"fleetz"}   -> stitchd-fleetz   (a lossless
 *                         MetricSample::toWireJson snapshot plus the
 *                         retained collector windows — the mergeable
 *                         form stitchrouter aggregates fleet-wide)
 *
 * The shared-cache-tier verbs ("cacheget"/"cacheput") let one shard
 * serve its ResultCache to its peers; see cacheVerbResponse below.
 */

#ifndef STITCH_SVC_SERVER_HH
#define STITCH_SVC_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "obs/json.hh"
#include "svc/engine.hh"

namespace stitch::svc
{

inline constexpr const char *responseSchema = "stitch-response";
inline constexpr int responseVersion = 1;

/** Version shared by the stitchd-healthz / stitchd-metrics /
 *  stitchd-statz introspection documents. */
inline constexpr int introspectionVersion = 1;

/** Default upper bound on an accepted request frame; larger lengths
 *  are rejected as malformed (a garbage length prefix must not make
 *  the daemon try to allocate gigabytes). */
inline constexpr std::uint32_t maxRequestBytes = 16u << 20;

/** Serving-loop hardening knobs. */
struct ServerOptions
{
    /** Per-connection request frame cap (length-prefix bound). */
    std::uint32_t maxFrameBytes = maxRequestBytes;

    /** Per-connection receive timeout (SO_RCVTIMEO, ms); a client
     *  that connects and stalls gets a typed "protocol" error
     *  instead of wedging the serve loop. 0 = wait forever. */
    std::uint64_t readTimeoutMs = 5000;
};

/** Localhost request-per-connection server over one JobEngine. */
class Server
{
  public:
    /** A parsed request document in, a response document out — the
     *  generic serving contract the router front-end plugs into.
     *  Framing, hardening and timeouts stay in the Server; the
     *  handler sees only well-formed JSON. A thrown FatalError
     *  answers a typed "config" error, anything else "internal". */
    using RequestHandler =
        std::function<obs::Json(const obs::Json &request)>;

    /**
     * Bind and listen on 127.0.0.1:`port` (0 picks a free port; read
     * it back with port()). Throws fault::ConfigError when the socket
     * cannot be bound.
     */
    Server(JobEngine &engine, std::uint16_t port = 0,
           ServerOptions options = {});

    /** Same listener and framing discipline, but every request is
     *  answered by `handler` instead of a JobEngine — stitchrouter's
     *  front door. */
    Server(RequestHandler handler, std::uint16_t port = 0,
           ServerOptions options = {});
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** The bound port (useful after requesting port 0). */
    std::uint16_t port() const { return port_; }

    /**
     * Accept-and-answer loop. Returns after `maxRequests` requests
     * when positive, otherwise runs until stop(). Connection-level
     * I/O errors are logged and skipped.
     */
    void serve(int maxRequests = 0);

    /**
     * Unblock serve() from another thread or a signal handler;
     * idempotent. Async-signal-safe: shutdown() is on the safe list
     * and the atomic exchange is lock-free. The listening socket
     * stays open until the destructor. The request being answered
     * when stop() lands still completes (the loop is
     * single-threaded), which is the daemon's drain.
     */
    void stop();

    /** Requests answered since construction. */
    std::uint64_t servedCount() const { return served_; }

    /** Seconds since construction. */
    double uptimeS() const;

    /** The hardening knobs in effect. */
    const ServerOptions &options() const { return options_; }

  private:
    void bindAndListen(std::uint16_t port);

    JobEngine *engine_ = nullptr; ///< null in handler mode
    RequestHandler handler_;      ///< empty in engine mode
    ServerOptions options_;
    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> stopping_{false};
    std::uint64_t served_ = 0;
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
};

/** Build the response document for one job document — the pure part
 *  of the serving loop (submit, run, format). Never throws; every
 *  failure becomes a status:"error" response. When `jobIdOut` is
 *  non-null it receives the submitted job id (-1 if submission
 *  failed) so the caller can attribute the respond stage. */
obs::Json handleRequest(JobEngine &engine, const obs::Json &jobDoc,
                        int *jobIdOut = nullptr);

/** A status:"error" stitch-response with the given typed kind —
 *  shared by the serve loop, the router and the cache-tier verbs so
 *  every failure on the wire carries the same shape. */
obs::Json errorResponseJson(const std::string &kind,
                            const std::string &message);

/**
 * Answer one shared-cache-tier verb against the engine's ResultCache
 * (DESIGN.md §16.3). Both verbs name their job the way a cache record
 * does, and the server re-derives the key from the spec
 * (decodeCacheQuery) — it never trusts the peer's hash.
 *
 *   {"cmd":"cacheget","key":K,"spec":{...}} ->
 *     {"status":"hit", ...the cache record} or {"status":"miss"}
 *   {"cmd":"cacheput", ...the cache record} -> {"status":"ok"}
 *
 * The record is svc/cache.hh's, member for member a disk entry. A
 * put passes the decodeCacheRecord() guards a disk read runs before
 * anything is stored: a stale stamp answers a typed "mismatch" error
 * (an upgraded shard never poisons an old one, or vice versa), any
 * other refusal a typed "config" error.
 */
obs::Json cacheVerbResponse(JobEngine &engine, const obs::Json &doc);

/**
 * Answer one introspection command ("healthz", "metrics", "statz" or
 * "scrape") from live engine state — the pure part of the cmd path, shared by
 * the serve loop and in-process tests. An unknown command produces a
 * status:"error" response document.
 */
obs::Json introspectionResponse(JobEngine &engine,
                                const std::string &cmd,
                                double uptimeS,
                                std::uint64_t served);

/**
 * Client side of the wire format: connect to `host`:`port`, send
 * `jobDoc`, return the response frame's payload unparsed (the
 * router relays it as bytes). Throws
 * fault::ConfigError on connection or framing failures. A positive
 * `timeoutMs` bounds the socket send/receive (SO_SNDTIMEO /
 * SO_RCVTIMEO) so a hung peer surfaces as a transport failure
 * instead of wedging the caller — the router and the remote-cache
 * client depend on this to fail over.
 *
 * An armed `chaos` injector corrupts the request deterministically
 * (keyed on `requestIndex`): a malformed frame sends garbage JSON in
 * a well-formed frame (the server must answer a typed "config"
 * error), a connection reset promises a frame and hangs up mid-body
 * (the server must answer itself a typed "protocol" error; this
 * side throws fault::ConfigError). Null chaos is the seed behaviour.
 */
std::string requestFrame(const std::string &host, std::uint16_t port,
                         const obs::Json &jobDoc,
                         const ServiceFaultInjector *chaos = nullptr,
                         std::uint64_t requestIndex = 0,
                         std::uint64_t timeoutMs = 0);

/** requestFrame, parsed: the response document. A payload that is
 *  not JSON throws FatalError. */
obs::Json requestReport(const std::string &host, std::uint16_t port,
                        const obs::Json &jobDoc,
                        const ServiceFaultInjector *chaos = nullptr,
                        std::uint64_t requestIndex = 0,
                        std::uint64_t timeoutMs = 0);

/**
 * requestReport with a deterministic jittered retry loop: transport
 * failures (connect/framing, including injected resets) and
 * "overloaded" rejections back off per `policy` (keyed on
 * `requestIndex`) and retry; any other response returns as-is. When
 * the budget runs out the last transport error is rethrown / the
 * last response returned. `attemptsOut`, when non-null, receives the
 * attempts consumed.
 */
obs::Json requestReportWithRetry(
    const std::string &host, std::uint16_t port,
    const obs::Json &jobDoc, const RetryPolicy &policy,
    std::uint64_t requestIndex = 0,
    const ServiceFaultInjector *chaos = nullptr,
    int *attemptsOut = nullptr, std::uint64_t timeoutMs = 0);

} // namespace stitch::svc

#endif // STITCH_SVC_SERVER_HH
