#include "svc/remote_cache.hh"

#include <cstdlib>

#include "common/logging.hh"
#include "fault/fault.hh"
#include "svc/server.hh"

namespace stitch::svc
{

PeerEndpoint
parsePeerEndpoint(const std::string &text)
{
    const auto colon = text.rfind(':');
    if (colon == std::string::npos || colon == 0)
        throw fault::ConfigError(detail::formatMessage(
            "peer endpoint must be HOST:PORT, got '", text, "'"));
    const long port = std::strtol(text.c_str() + colon + 1,
                                  nullptr, 10);
    if (port < 1 || port > 65535)
        throw fault::ConfigError(detail::formatMessage(
            "peer endpoint '", text,
            "' has a port outside 1..65535"));
    PeerEndpoint peer;
    peer.host = text.substr(0, colon);
    peer.port = static_cast<std::uint16_t>(port);
    return peer;
}

std::vector<PeerEndpoint>
parsePeerList(const std::string &csv)
{
    std::vector<PeerEndpoint> peers;
    std::size_t start = 0;
    while (start <= csv.size()) {
        std::size_t end = csv.find(',', start);
        if (end == std::string::npos)
            end = csv.size();
        if (end > start)
            peers.push_back(
                parsePeerEndpoint(csv.substr(start, end - start)));
        start = end + 1;
    }
    return peers;
}

namespace
{

/** A reply's "status" string; empty when it has none. */
std::string
replyStatus(const obs::Json &reply)
{
    if (!reply.has("status") ||
        reply.get("status").kind() != obs::Json::Kind::String)
        return "";
    return reply.get("status").asString();
}

} // namespace

RemoteCacheClient::RemoteCacheClient(
    const RemoteCacheOptions &options)
    : timeoutMs_(options.timeoutMs),
      writeBehind_(options.writeBehind)
{
    for (const std::string &peer : options.peers)
        peers_.push_back(parsePeerEndpoint(peer));
    if (writeBehind_ && !peers_.empty())
        writer_ = std::thread([this] { writerLoop(); });
}

RemoteCacheClient::~RemoteCacheClient()
{
    if (writer_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        writer_.join();
    }
}

std::optional<CacheEntry>
RemoteCacheClient::lookup(const JobSpec &spec,
                          const std::string &key)
{
    if (peers_.empty())
        return std::nullopt;

    obs::Json request = encodeCacheQuery(spec, key);
    request.set("cmd", "cacheget");

    // Deterministic probe order keyed on the content address: every
    // process walks the same permutation, and under the router's
    // ring the first probe usually lands on the key's owner.
    const std::size_t start = static_cast<std::size_t>(
        hashBytes(key) % peers_.size());
    for (std::size_t i = 0; i < peers_.size(); ++i) {
        const PeerEndpoint &peer =
            peers_[(start + i) % peers_.size()];
        obs::Json reply;
        try {
            reply = requestReport(peer.host, peer.port, request,
                                  /*chaos=*/nullptr,
                                  /*requestIndex=*/0, timeoutMs_);
        } catch (const FatalError &) {
            // A dead peer or an unparseable reply: the tier
            // degrades, jobs don't.
            count(stats_.errors);
            continue;
        }
        const std::string status = replyStatus(reply);
        if (status == "miss")
            continue;
        if (status != "hit") {
            count(stats_.errors); // typed error document
            continue;
        }
        try {
            // The guards diskLookup runs on a file, run on the
            // peer's record.
            CacheEntry entry = decodeCacheRecord(reply, spec);
            count(stats_.hits);
            return entry;
        } catch (const FatalError &) {
            count(stats_.invalidated);
        }
    }
    count(stats_.misses);
    return std::nullopt;
}

void
RemoteCacheClient::storeBehind(const JobSpec &spec,
                               const std::string &key,
                               const CacheEntry &entry)
{
    if (peers_.empty())
        return;
    obs::Json doc = encodeCacheRecord(spec, key, entry);
    doc.set("cmd", "cacheput");
    if (!writeBehind_) {
        replicate(doc);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(doc));
        stats_.pending = queue_.size();
    }
    cv_.notify_all();
}

void
RemoteCacheClient::replicate(const obs::Json &doc)
{
    for (const PeerEndpoint &peer : peers_) {
        bool stored = false;
        try {
            stored = replyStatus(requestReport(
                         peer.host, peer.port, doc,
                         /*chaos=*/nullptr, /*requestIndex=*/0,
                         timeoutMs_)) == "ok";
        } catch (const FatalError &) {
            // A dead peer or an unparseable reply: one lost copy.
        }
        count(stored ? stats_.stores : stats_.storeFailures);
    }
}

void
RemoteCacheClient::count(std::uint64_t &counter)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++counter;
}

void
RemoteCacheClient::writerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        cv_.wait(lock,
                 [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) {
            if (stop_)
                return; // drained: nothing left to replicate
            continue;
        }
        obs::Json doc = std::move(queue_.front());
        queue_.pop_front();
        stats_.pending = queue_.size();
        busy_ = true;
        lock.unlock();
        replicate(doc);
        lock.lock();
        busy_ = false;
        cv_.notify_all(); // flush() waiters
    }
}

void
RemoteCacheClient::flush()
{
    if (!writer_.joinable()) // inline mode: nothing queues
        return;
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock,
             [this] { return queue_.empty() && !busy_; });
}

RemoteCacheStats
RemoteCacheClient::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace stitch::svc
