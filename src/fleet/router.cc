#include "fleet/router.hh"

#include <chrono>
#include <thread>

#include "common/logging.hh"
#include "fault/fault.hh"
#include "obs/buildinfo.hh"
#include "svc/job.hh"
#include "svc/server.hh"
#include "telem/exposition.hh"
#include "telem/timeseries.hh"

namespace stitch::fleet
{

namespace
{

void
stamp(obs::Json &doc, const char *schema)
{
    doc.set("schema", schema);
    doc.set("version", routerSchemaVersion);
}

obs::Json
cmdRequest(const char *cmd)
{
    obs::Json doc = obs::Json::object();
    doc.set("cmd", cmd);
    return doc;
}

/**
 * The shard's response frame, still unparsed, with the router's two
 * annotations spliced in before its closing brace -- the key order a
 * parse-and-set() would give. Only the first and last bytes are
 * checked: a frame that is not one object answers a typed "internal"
 * error, as a failed parse would.
 */
obs::Json
annotatedRelay(std::string frame, const std::string &shard,
               int attempts)
{
    if (frame.size() < 2 || frame.front() != '{' ||
        frame.back() != '}')
        return svc::errorResponseJson(
            "internal", "shard " + shard +
                            " answered a frame that is not one JSON "
                            "object");
    const std::string splice = detail::formatMessage(
        frame.size() == 2 ? "" : ",", "\"shard\":", obs::Json(shard).dump(),
        ",\"router_attempts\":", attempts);
    frame.insert(frame.size() - 1, splice);
    return obs::Json::fromCompact(std::move(frame));
}

} // namespace

Router::Router(const RouterOptions &options)
    : options_(options), ring_(options.vnodes)
{
    if (options_.shards.empty())
        throw fault::ConfigError(
            "router needs at least one shard (--shards=HOST:PORT)");
    options_.retry.validate();
    for (const std::string &text : options_.shards) {
        Shard shard;
        shard.endpoint = svc::parsePeerEndpoint(text);
        const std::string name = shard.endpoint.name();
        if (ring_.contains(name))
            throw fault::ConfigError(detail::formatMessage(
                "duplicate shard endpoint '", name, "'"));
        ring_.addShard(name);
        shards_.push_back(std::move(shard));
    }
}

Router::Shard &
Router::shardByName(const std::string &name)
{
    for (Shard &shard : shards_)
        if (shard.endpoint.name() == name)
            return shard;
    STITCH_PANIC("shard not on the ring: ", name);
}

bool
Router::skipDead(const Shard &shard) const
{
    if (!shard.dead)
        return false;
    const auto held = std::chrono::steady_clock::now() -
                      shard.deadSince;
    return held < std::chrono::milliseconds(options_.holdoffMs);
}

obs::Json
Router::handle(const obs::Json &request)
{
    try {
        if (request.isObject() && request.has("cmd")) {
            const std::string cmd =
                request.get("cmd").asString();
            {
                std::lock_guard<std::mutex> lock(mutex_);
                ++stats_.cmdsServed;
            }
            if (cmd == "healthz")
                return healthzJson();
            if (cmd == "statz" || cmd == "metrics" ||
                cmd == "fleetz")
                return statzJson();
            if (cmd == "scrape")
                return scrapeJson();
            return svc::errorResponseJson(
                "config", "unknown cmd: " + cmd);
        }
        return routeJob(request);
    } catch (const fault::ConfigError &e) {
        return svc::errorResponseJson("config", e.what());
    } catch (const std::exception &e) {
        return svc::errorResponseJson("internal", e.what());
    }
}

obs::Json
Router::routeJob(const obs::Json &request)
{
    // Validate eagerly: a malformed job must answer a typed "config"
    // error from the router, not burn a shard round-trip.
    std::string key;
    try {
        key = svc::JobSpec::fromJson(request).cacheKey();
    } catch (const fault::ConfigError &e) {
        return svc::errorResponseJson("config", e.what());
    }

    const std::vector<std::string> prefs =
        ring_.preferenceList(key, ring_.size());
    const std::uint64_t key64 = svc::hashBytes(key);
    const int maxAttempts = std::max(1, options_.retry.maxAttempts);

    int attempt = 0;
    std::string lastError = "no shard reachable";
    bool candidates = true;
    while (attempt < maxAttempts && candidates) {
        candidates = false;
        for (std::size_t pi = 0;
             pi < prefs.size() && attempt < maxAttempts; ++pi) {
            Shard &shard = shardByName(prefs[pi]);
            {
                std::lock_guard<std::mutex> lock(mutex_);
                if (skipDead(shard))
                    continue;
            }
            candidates = true;
            ++attempt;
            if (attempt > 1 || pi > 0) {
                // A failover hop: the job left its ring owner —
                // either a live attempt on it failed (attempt > 1)
                // or it is marked dead and was skipped (pi > 0).
                std::lock_guard<std::mutex> lock(mutex_);
                ++stats_.failoverReroutes;
            }
            std::string frame;
            try {
                frame = svc::requestFrame(
                    shard.endpoint.host, shard.endpoint.port,
                    request, /*chaos=*/nullptr,
                    /*requestIndex=*/key64,
                    options_.shardTimeoutMs);
            } catch (const fault::ConfigError &e) {
                lastError = e.what();
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    shard.dead = true;
                    shard.deadSince =
                        std::chrono::steady_clock::now();
                    ++shard.failures;
                    ++stats_.shardFailures;
                }
                if (attempt < maxAttempts &&
                    options_.retry.enabled()) {
                    const std::uint64_t us =
                        options_.retry.delayUsAfter(key64, attempt);
                    if (us > 0)
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(us));
                }
                continue;
            }
            {
                // The shard answered — it is alive, even if the
                // answer is a typed error the client must handle.
                std::lock_guard<std::mutex> lock(mutex_);
                shard.dead = false;
                ++shard.routed;
                ++stats_.jobsRouted;
            }
            return annotatedRelay(std::move(frame),
                                  shard.endpoint.name(), attempt);
        }
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.unavailable;
    }
    return svc::errorResponseJson(
        "unavailable",
        detail::formatMessage("no shard could serve the job after ",
                              attempt, " attempt(s): ", lastError));
}

obs::Json
Router::healthzJson()
{
    obs::Json doc = obs::Json::object();
    stamp(doc, routerHealthzSchema);
    doc.set("status", "ok");
    doc.set("build", obs::buildInfoJson());
    const auto uptime = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start_);
    doc.set("uptime_s", uptime.count());

    obs::Json shardsJson = obs::Json::array();
    std::uint64_t healthy = 0;
    const obs::Json probe = cmdRequest("healthz");
    for (Shard &shard : shards_) {
        obs::Json entry = obs::Json::object();
        entry.set("name", shard.endpoint.name());
        bool alive = false;
        try {
            obs::Json resp = svc::requestReport(
                shard.endpoint.host, shard.endpoint.port, probe,
                /*chaos=*/nullptr, /*requestIndex=*/0,
                options_.shardTimeoutMs);
            alive = resp.isObject() && resp.has("status") &&
                    resp.get("status").asString() == "ok";
            if (alive && resp.has("uptime_s"))
                entry.set("uptime_s",
                          resp.get("uptime_s").asDouble());
        } catch (const fault::ConfigError &) {
            alive = false;
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            shard.dead = !alive;
            if (!alive)
                shard.deadSince = std::chrono::steady_clock::now();
            entry.set("healthy", alive);
            entry.set("routed", shard.routed);
            entry.set("failures", shard.failures);
        }
        if (alive)
            ++healthy;
        shardsJson.push(std::move(entry));
    }
    doc.set("shards", std::move(shardsJson));
    doc.set("healthy_shards", healthy);
    doc.set("total_shards",
            static_cast<std::uint64_t>(shards_.size()));
    return doc;
}

obs::Json
Router::statzJson()
{
    obs::Json doc = obs::Json::object();
    stamp(doc, routerStatzSchema);
    doc.set("build", obs::buildInfoJson());
    const auto uptime = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start_);
    doc.set("uptime_s", uptime.count());

    // Fold every live shard's lossless fleetz snapshot with the
    // telemetry merge algebra: counters and histogram buckets add,
    // windows align by seq. Quantiles are computed on the *merged*
    // population, never averaged across shards.
    telem::MetricSample merged;
    telem::TimeSeries series;
    bool haveSample = false;
    std::uint64_t healthy = 0;
    obs::Json shardsJson = obs::Json::array();
    const obs::Json probe = cmdRequest("fleetz");
    for (Shard &shard : shards_) {
        obs::Json entry = obs::Json::object();
        entry.set("name", shard.endpoint.name());
        bool alive = false;
        try {
            obs::Json resp = svc::requestReport(
                shard.endpoint.host, shard.endpoint.port, probe,
                /*chaos=*/nullptr, /*requestIndex=*/0,
                options_.shardTimeoutMs);
            if (resp.isObject() && resp.has("sample")) {
                telem::MetricSample sample =
                    telem::MetricSample::fromWireJson(
                        resp.get("sample"));
                entry.set("jobs_completed",
                          sample.counter("jobs_completed"));
                entry.set("jobs_failed",
                          sample.counter("jobs_failed"));
                entry.set("jobs_cache_hits",
                          sample.counter("jobs_cache_hits"));
                entry.set("queue_depth",
                          sample.gauge("queue_depth"));
                if (haveSample) {
                    merged.merge(sample);
                } else {
                    merged = std::move(sample);
                    haveSample = true;
                }
                if (resp.has("windows")) {
                    const obs::Json &windows =
                        resp.get("windows");
                    telem::TimeSeries shardSeries;
                    for (std::size_t i = 0; i < windows.size();
                         ++i)
                        shardSeries.push(
                            telem::Window::fromWireJson(
                                windows.at(i)));
                    series.merge(shardSeries);
                }
                alive = true;
            }
        } catch (const fault::ConfigError &) {
            alive = false;
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            shard.dead = !alive;
            if (!alive)
                shard.deadSince = std::chrono::steady_clock::now();
            entry.set("healthy", alive);
            entry.set("routed", shard.routed);
            entry.set("failures", shard.failures);
        }
        if (alive)
            ++healthy;
        shardsJson.push(std::move(entry));
    }
    doc.set("shards", std::move(shardsJson));

    obs::Json router = obs::Json::object();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        router.set("jobs_routed", stats_.jobsRouted);
        router.set("failover_reroutes", stats_.failoverReroutes);
        router.set("shard_failures", stats_.shardFailures);
        router.set("unavailable", stats_.unavailable);
        router.set("cmds_served", stats_.cmdsServed);
    }
    router.set("ring_vnodes",
               static_cast<std::uint64_t>(ring_.vnodes()));
    doc.set("router", std::move(router));

    obs::Json fleet = obs::Json::object();
    fleet.set("healthy_shards", healthy);
    fleet.set("total_shards",
              static_cast<std::uint64_t>(shards_.size()));
    if (haveSample) {
        const std::uint64_t completed =
            merged.counter("jobs_completed");
        const std::uint64_t hits =
            merged.counter("jobs_cache_hits");
        fleet.set("jobs_submitted",
                  merged.counter("jobs_submitted"));
        fleet.set("jobs_completed", completed);
        fleet.set("jobs_failed", merged.counter("jobs_failed"));
        fleet.set("jobs_shed", merged.counter("jobs_shed"));
        fleet.set("jobs_cache_hits", hits);
        fleet.set("remote_cache_hits",
                  merged.counter("remote_cache_hits"));
        fleet.set("remote_cache_errors",
                  merged.counter("remote_cache_errors"));
        fleet.set("fleet_hit_rate",
                  completed > 0 ? static_cast<double>(hits) /
                                      static_cast<double>(completed)
                                : 0.0);
        fleet.set("queue_depth", merged.gauge("queue_depth"));
        if (const telem::Histogram *e2e =
                merged.histogram("e2e")) {
            fleet.set("e2e_p50_ms",
                      static_cast<double>(e2e->quantile(0.5)) /
                          1000.0);
            fleet.set("e2e_p99_ms",
                      static_cast<double>(e2e->quantile(0.99)) /
                          1000.0);
        }
        fleet.set("sample", merged.toWireJson());
        fleet.set("series", series.toJson());
    }
    doc.set("fleet", std::move(fleet));
    return doc;
}

obs::Json
Router::scrapeJson()
{
    // One exposition for the whole fleet: merge every live shard's
    // sample, then render it exactly as a single stitchd would.
    telem::MetricSample merged;
    bool haveSample = false;
    const obs::Json probe = cmdRequest("fleetz");
    for (Shard &shard : shards_) {
        try {
            obs::Json resp = svc::requestReport(
                shard.endpoint.host, shard.endpoint.port, probe,
                /*chaos=*/nullptr, /*requestIndex=*/0,
                options_.shardTimeoutMs);
            if (!resp.isObject() || !resp.has("sample"))
                continue;
            telem::MetricSample sample =
                telem::MetricSample::fromWireJson(
                    resp.get("sample"));
            if (haveSample) {
                merged.merge(sample);
            } else {
                merged = std::move(sample);
                haveSample = true;
            }
        } catch (const fault::ConfigError &) {
            continue; // dead shards just drop out of the scrape
        }
    }
    const obs::Json build = obs::buildInfoJson();
    telem::ExpositionExtras extras;
    const auto uptime = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start_);
    extras.uptimeS = uptime.count();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        extras.served = stats_.jobsRouted + stats_.cmdsServed;
    }
    extras.buildInfo = &build;

    obs::Json doc = obs::Json::object();
    stamp(doc, "stitchrouter-scrape");
    doc.set("content_type", telem::expositionContentType);
    doc.set("exposition", telem::prometheusText(merged, extras));
    return doc;
}

RouterStats
Router::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace stitch::fleet
