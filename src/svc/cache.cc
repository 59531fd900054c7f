#include "svc/cache.hh"

#include <cstdio>
#include <filesystem>

#include "common/logging.hh"
#include "sim/report.hh"

namespace stitch::svc
{

namespace fs = std::filesystem;

std::string
cacheStamp()
{
    return detail::formatMessage("job", jobSchemaVersion, "-report",
                                 sim::runReportVersion, "-engine",
                                 engineVersion);
}

namespace
{

/** `doc`'s member `name` if it is a string, else empty. */
std::string
stringMember(const obs::Json &doc, const char *name)
{
    if (!doc.has(name) ||
        doc.get(name).kind() != obs::Json::Kind::String)
        return "";
    return doc.get(name).asString();
}

} // namespace

obs::Json
encodeCacheRecord(const JobSpec &spec, const std::string &key,
                  const CacheEntry &entry)
{
    obs::Json doc = obs::Json::object();
    doc.set("schema", cacheEntrySchema);
    doc.set("version", cacheEntryVersion);
    doc.set("stamp", cacheStamp());
    doc.set("key", key);
    doc.set("spec", spec.canonicalJson());
    doc.set("report", entry.report);
    doc.set("derived", entry.derived);
    return doc;
}

CacheEntry
decodeCacheRecord(const obs::Json &doc, const JobSpec &spec)
{
    auto refuse = [](const char *why) {
        throw fault::ConfigError(
            detail::formatMessage("cache record refused: ", why));
    };
    if (stringMember(doc, "schema") != cacheEntrySchema ||
        !doc.has("version") ||
        doc.get("version").kind() != obs::Json::Kind::Int ||
        doc.get("version").asUint() !=
            static_cast<std::uint64_t>(cacheEntryVersion))
        refuse("not a stitch-cache-entry v1 document");
    const std::string stamp = stringMember(doc, "stamp");
    if (stamp != cacheStamp())
        throw StaleCacheRecord(detail::formatMessage(
            "cache record stamp '", stamp,
            "' does not match this build's ", cacheStamp()));
    if (stringMember(doc, "key") != spec.cacheKey())
        refuse("its key is not the spec's cache key");
    if (!doc.has("spec") ||
        doc.get("spec").dump() != spec.canonicalJson().dump())
        refuse("its spec is not the requested canonical form");
    if (!doc.has("report") || !doc.has("derived"))
        refuse("it lacks \"report\" or \"derived\"");
    return {obs::Json::freeze(doc.get("report")),
            obs::Json::freeze(doc.get("derived"))};
}

obs::Json
encodeCacheQuery(const JobSpec &spec, const std::string &key)
{
    obs::Json doc = obs::Json::object();
    doc.set("key", key);
    doc.set("spec", spec.canonicalJson());
    return doc;
}

JobSpec
decodeCacheQuery(const obs::Json &doc)
{
    const std::string key = stringMember(doc, "key");
    if (key.empty() || !doc.has("spec"))
        throw fault::ConfigError(
            "a cache query needs a \"key\" string and a \"spec\"");
    JobSpec spec = JobSpec::fromJson(doc.get("spec"));
    if (spec.cacheKey() != key)
        throw fault::ConfigError(detail::formatMessage(
            "cache key ", key,
            " does not match the spec's canonical form (",
            spec.cacheKey(), ")"));
    return spec;
}

ResultCache::ResultCache(std::string dir, std::size_t memEntries)
    : dir_(std::move(dir)), memEntries_(memEntries)
{
    // A crashed predecessor may have left orphan temp files or torn
    // entries behind; sweep them before serving a single lookup.
    recoverDiskStore();
}

std::string
ResultCache::diskPath(const std::string &key) const
{
    return dir_ + "/" + key + ".json";
}

void
ResultCache::memInsert(const std::string &key,
                       const CacheEntry &entry)
{
    if (memEntries_ == 0)
        return;
    if (auto it = index_.find(key); it != index_.end()) {
        lru_.erase(it->second);
        index_.erase(it);
    }
    // A no-op for the engine's entries, which arrive frozen.
    lru_.push_front({key,
                     {obs::Json::freeze(entry.report),
                      obs::Json::freeze(entry.derived)}});
    index_[key] = lru_.begin();
    while (lru_.size() > memEntries_) {
        index_.erase(lru_.back().key);
        lru_.pop_back();
        ++stats_.evictions;
    }
}

std::optional<CacheEntry>
ResultCache::memLookup(const std::string &key,
                       const telem::TraceContext &trace)
{
    telem::ScopedSpan span(trace, telem::Stage::CacheProbe);
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = index_.find(key); it != index_.end()) {
        // Refresh recency.
        lru_.splice(lru_.begin(), lru_, it->second);
        ++stats_.memHits;
        return it->second->entry;
    }
    return std::nullopt;
}

std::optional<CacheEntry>
ResultCache::diskLookup(const JobSpec &spec,
                        const telem::TraceContext &trace)
{
    telem::ScopedSpan span(trace, telem::Stage::CacheProbe);
    if (!diskEnabled()) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.misses;
        return std::nullopt;
    }

    const std::string key = spec.cacheKey();
    const std::string path = diskPath(key);
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.misses;
        return std::nullopt;
    }
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    std::fclose(f);

    // A stale, truncated or foreign file is a miss, never an error:
    // the entry will simply be recomputed and overwritten.
    try {
        CacheEntry entry =
            decodeCacheRecord(obs::Json::parse(text), spec);
        std::lock_guard<std::mutex> lock(mutex_);
        memInsert(key, entry);
        ++stats_.diskHits;
        return entry;
    } catch (const FatalError &e) {
        warn("cache entry ", key, " treated as a miss: ", e.what());
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.invalidated;
    ++stats_.misses;
    return std::nullopt;
}

std::optional<CacheEntry>
ResultCache::lookup(const JobSpec &spec,
                    const telem::TraceContext &trace)
{
    if (auto hit = memLookup(spec.cacheKey(), trace))
        return hit;
    return diskLookup(spec, trace);
}

void
ResultCache::noteWriteFailure(const std::string &why)
{
    // Called with mutex_ NOT held.
    bool tripped = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.writeFailures;
        if (++consecutiveWriteFailures_ >= writeFailureLimit &&
            !degraded_.load(std::memory_order_relaxed)) {
            degraded_.store(true, std::memory_order_relaxed);
            tripped = true;
        }
    }
    warn("cache store lost (", why, "); result kept in memory only");
    if (tripped)
        warn("cache degraded to memory-only mode after ",
             writeFailureLimit, " consecutive disk write failures");
}

void
ResultCache::store(const JobSpec &spec, const CacheEntry &entry)
{
    const std::string key = spec.cacheKey();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        memInsert(key, entry);
        ++stats_.stores;
    }
    if (!diskEnabled() || memoryOnly())
        return;
    const std::string text =
        encodeCacheRecord(spec, key, entry).dump(2) + "\n";
    const std::string finalPath = diskPath(key);
    const std::uint64_t seq =
        storeSeq_.fetch_add(1, std::memory_order_relaxed);

    if (injector_ && injector_->failCacheWrite(seq)) {
        // Chaos: the disk "returned EIO" — same path a real loss
        // takes, so degradation and counters are exercised for real.
        noteWriteFailure("injected write failure");
        return;
    }
    if (injector_ && injector_->tearCacheWrite(seq)) {
        // Chaos: crash between write and rename — leave a truncated
        // file at the *final* path, the exact artifact the recovery
        // scan and the read-side validation must survive.
        try {
            std::FILE *f = obs::openArtifactFile(finalPath);
            std::fwrite(text.data(), 1, text.size() / 2, f);
            std::fclose(f);
        } catch (const FatalError &) {
            // Even the tear failed; nothing observable either way.
        }
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.tornWrites;
        return;
    }

    // Atomic publish: write a private temp file, then rename it over
    // the final path. A reader (or a crash) can only ever observe
    // nothing or the complete entry — never a torn one. The seq in
    // the temp name keeps concurrent writers of one key from
    // clobbering each other's in-progress file.
    const std::string tmpPath = detail::formatMessage(
        dir_, "/", key, ".", seq, ".tmp");
    try {
        std::FILE *f = obs::openArtifactFile(tmpPath); // creates dir_
        const std::size_t wrote =
            std::fwrite(text.data(), 1, text.size(), f);
        const bool flushed = std::fflush(f) == 0;
        std::fclose(f);
        if (wrote != text.size() || !flushed) {
            std::error_code ec;
            fs::remove(tmpPath, ec);
            noteWriteFailure("short write to " + tmpPath);
            return;
        }
        std::error_code ec;
        fs::rename(tmpPath, finalPath, ec);
        if (ec) {
            fs::remove(tmpPath, ec);
            noteWriteFailure("rename failed: " + ec.message());
            return;
        }
    } catch (const FatalError &e) {
        noteWriteFailure(e.what());
        return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    consecutiveWriteFailures_ = 0;
}

std::size_t
ResultCache::recoverDiskStore()
{
    if (dir_.empty())
        return 0;
    std::error_code ec;
    fs::directory_iterator it(dir_, ec);
    if (ec)
        return 0; // directory not created yet — nothing to recover
    std::size_t actions = 0;
    for (const auto &dirent : it) {
        if (!dirent.is_regular_file(ec) || ec)
            continue;
        const fs::path &path = dirent.path();
        const std::string name = path.filename().string();
        if (name.size() > 4 &&
            name.compare(name.size() - 4, 4, ".tmp") == 0) {
            // Orphaned in-progress write from a crashed process; the
            // rename never happened, so the entry never existed.
            fs::remove(path, ec);
            if (!ec) {
                std::lock_guard<std::mutex> lock(mutex_);
                ++stats_.tmpSwept;
                ++actions;
            }
            continue;
        }
        if (path.extension() != ".json")
            continue; // quarantined files and strangers stay put
        std::FILE *f = std::fopen(path.string().c_str(), "rb");
        if (!f)
            continue;
        std::string text;
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
            text.append(buf, n);
        std::fclose(f);
        bool parses = false;
        try {
            obs::Json doc = obs::Json::parse(text);
            parses = doc.isObject();
        } catch (const FatalError &) {
        }
        if (parses)
            continue;
        // Torn or corrupt entry: move it aside where no lookup can
        // ever read it, but keep the bytes for post-mortems.
        fs::path aside = path;
        aside += ".quarantine";
        fs::rename(path, aside, ec);
        if (ec)
            fs::remove(path, ec); // rename failed; delete instead
        warn("quarantined torn cache entry ", name);
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.quarantined;
        ++actions;
    }
    return actions;
}

double
ResultCache::Stats::hitRate() const
{
    const std::uint64_t hits = memHits + diskHits;
    const std::uint64_t lookups = hits + misses;
    return lookups == 0
               ? 0.0
               : static_cast<double>(hits) /
                     static_cast<double>(lookups);
}

ResultCache::Stats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats out = stats_;
    out.degraded = degraded_.load(std::memory_order_relaxed);
    return out;
}

} // namespace stitch::svc
