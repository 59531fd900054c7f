#include "fleet_rig.hh"

#include <cstdlib>

#include "measure.hh"

namespace fleetbench
{

namespace
{

constexpr const char *kNamePrefix = "fb-";

} // namespace

std::string
requestName(std::size_t index)
{
    return kNamePrefix + std::to_string(index);
}

void
Probes::arm(bool on)
{
    std::lock_guard<std::mutex> lock(mutex_);
    armed_ = on;
}

long
Probes::indexOf(const obs::Json &doc) const
{
    if (!doc.isObject() || !doc.has("name"))
        return -1;
    const std::string &name = doc.get("name").asString();
    if (name.rfind(kNamePrefix, 0) != 0)
        return -1;
    const long index = std::strtol(name.c_str() + 3, nullptr, 10);
    return index >= 0 && static_cast<std::size_t>(index) <
                             traces_.size()
               ? index
               : -1;
}

void
Probes::clientSent(std::size_t index, std::int64_t us)
{
    std::lock_guard<std::mutex> lock(mutex_);
    traces_[index].sendUs = us;
}

void
Probes::clientReceived(std::size_t index, std::int64_t us)
{
    std::lock_guard<std::mutex> lock(mutex_);
    traces_[index].recvUs = us;
}

void
Probes::routed(const obs::Json &doc, std::int64_t enterUs,
               std::int64_t exitUs)
{
    const long index = indexOf(doc);
    if (index < 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    RequestTrace &trace = traces_[static_cast<std::size_t>(index)];
    trace.routerEnterUs = enterUs;
    trace.routerExitUs = exitUs;
}

void
Probes::handled(const obs::Json &doc, int shard, int jobId,
                std::int64_t durationUs, std::uint64_t sinkStartUs,
                std::uint64_t sinkEndUs, double queueMs, bool cached)
{
    const long index = indexOf(doc);
    if (index < 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    RequestTrace &trace = traces_[static_cast<std::size_t>(index)];
    // A failover re-send reaches a second shard: both handler times
    // belong to the request, the last shard answered it.
    trace.shardUs += durationUs;
    trace.sinkStartUs = sinkStartUs;
    trace.sinkEndUs = sinkEndUs;
    trace.queueMs += queueMs;
    trace.shard = shard;
    trace.jobId = jobId;
    trace.cached = cached;
}

void
Probes::cacheVerb(bool put, std::int64_t durationUs)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!armed_)
        return;
    (put ? verbs_.putMs : verbs_.getMs)
        .push_back(static_cast<double>(durationUs) / 1e3);
}

std::vector<RequestTrace>
Probes::traces() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return traces_;
}

CacheVerbTrace
Probes::cacheVerbs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return verbs_;
}

Fleet::Fleet(bool telemetry, Probes *probes) : probes_(probes)
{
    // Handler-mode servers bind first so every peer port is known,
    // then the engines are built with their peer lists; the handlers
    // dereference the engines only at request time.
    servers_.reserve(kShards);
    for (int i = 0; i < kShards; ++i)
        servers_.push_back(std::make_unique<svc::Server>(
            [this, i](const obs::Json &doc) {
                return dispatch(i, doc);
            }));

    for (int i = 0; i < kShards; ++i) {
        // The EngineOptions defaults stitchd starts from: one worker,
        // a 256-entry memory cache, write-behind replication to every
        // peer. Telemetry only for the traced run.
        svc::EngineOptions options;
        options.telemetry = telemetry;
        for (int p = 0; p < kShards; ++p)
            if (p != i)
                options.remoteCache.peers.push_back(
                    "127.0.0.1:" +
                    std::to_string(servers_[p]->port()));
        engines_[i] = std::make_unique<svc::JobEngine>(options);
    }

    fleet::RouterOptions routerOptions;
    for (const auto &server : servers_)
        routerOptions.shards.push_back(
            "127.0.0.1:" + std::to_string(server->port()));
    router_ = std::make_unique<fleet::Router>(routerOptions);
    front_ = std::make_unique<svc::Server>([this](const obs::Json &doc) {
        if (!probes_)
            return router_->handle(doc);
        const std::int64_t enter = nowUs();
        obs::Json response = router_->handle(doc);
        probes_->routed(doc, enter, nowUs());
        return response;
    });

    for (const auto &server : servers_)
        serving_.emplace_back([srv = server.get()] { srv->serve(); });
    serving_.emplace_back([srv = front_.get()] { srv->serve(); });
}

Fleet::~Fleet()
{
    flushReplication();
    front_->stop();
    for (auto &server : servers_)
        server->stop();
    for (auto &thread : serving_)
        thread.join();
}

std::uint16_t
Fleet::shardPort(int shard) const
{
    return servers_[static_cast<std::size_t>(shard)]->port();
}

void
Fleet::flushReplication()
{
    for (auto &engine : engines_)
        engine->flushRemoteCache();
}

obs::Json
Fleet::dispatch(int shard, const obs::Json &doc)
{
    svc::JobEngine &engine = *engines_[shard];
    if (doc.has("cmd")) {
        const std::string cmd = doc.get("cmd").asString();
        if (cmd != "cacheget" && cmd != "cacheput")
            return svc::introspectionResponse(
                engine, cmd,
                servers_[static_cast<std::size_t>(shard)]->uptimeS(),
                servers_[static_cast<std::size_t>(shard)]
                    ->servedCount());
        if (!probes_)
            return svc::cacheVerbResponse(engine, doc);
        const std::int64_t start = nowUs();
        obs::Json response = svc::cacheVerbResponse(engine, doc);
        probes_->cacheVerb(cmd == "cacheput", nowUs() - start);
        return response;
    }
    if (!probes_)
        return svc::handleRequest(engine, doc);
    int jobId = -1;
    const std::uint64_t sinkStart = engine.spanSink().nowUs();
    const std::int64_t start = nowUs();
    obs::Json response = svc::handleRequest(engine, doc, &jobId);
    const std::int64_t duration = nowUs() - start;
    const std::uint64_t sinkEnd = engine.spanSink().nowUs();
    double queueMs = 0.0;
    bool cached = false;
    if (jobId >= 0) {
        const svc::JobResult &result = engine.result(jobId);
        queueMs = result.queueMs;
        cached = result.cached;
    }
    probes_->handled(doc, shard, jobId, duration, sinkStart, sinkEnd,
                     queueMs, cached);
    return response;
}

} // namespace fleetbench
