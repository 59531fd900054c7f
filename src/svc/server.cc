#include "svc/server.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <thread>
#include <unistd.h>

#include "common/logging.hh"
#include "fault/fault.hh"
#include "obs/buildinfo.hh"
#include "telem/exposition.hh"

namespace stitch::svc
{

namespace
{

/** send() until done; false on error. MSG_NOSIGNAL: a peer that hung
 *  up mid-response must surface as EPIPE (-> the "client hung up"
 *  warning), never as a process-fatal SIGPIPE. */
bool
writeAll(int fd, const void *data, std::size_t len)
{
    const char *p = static_cast<const char *>(data);
    while (len > 0) {
        ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

/** read() until `len` bytes; false on error/EOF. */
bool
readAll(int fd, void *data, std::size_t len)
{
    char *p = static_cast<char *>(data);
    while (len > 0) {
        ssize_t n = ::read(fd, p, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0) {
            errno = 0;    // clean EOF, not an I/O error
            return false; // peer closed mid-frame
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

/** One write for prefix and payload: the peer wakes once, to a
 *  whole frame, instead of once for the 4-byte prefix and again for
 *  the body. */
bool
sendFrame(int fd, const std::string &payload)
{
    const std::uint32_t len = htonl(
        static_cast<std::uint32_t>(payload.size()));
    std::string frame(sizeof len, '\0');
    std::memcpy(frame.data(), &len, sizeof len);
    frame += payload;
    return writeAll(fd, frame.data(), frame.size());
}

/** Typed outcome of one frame receive — the serve loop answers each
 *  violation with a distinct protocol error instead of one generic
 *  "malformed" (or, worse, a silent close). */
enum class RecvStatus
{
    Ok,
    Closed,   ///< EOF before a complete length prefix
    Oversize, ///< length prefix beyond the configured frame cap
    Short,    ///< peer hung up (or I/O error) mid-body
    Timeout,  ///< SO_RCVTIMEO expired mid-read
};

struct RecvResult
{
    RecvStatus status = RecvStatus::Ok;
    std::uint32_t announced = 0; ///< the length the prefix promised
};

RecvResult
recvFrame(int fd, std::string &payload,
          std::uint32_t maxBytes = maxRequestBytes)
{
    auto ioStatus = [] {
        return (errno == EAGAIN || errno == EWOULDBLOCK)
                   ? RecvStatus::Timeout
                   : RecvStatus::Short;
    };
    std::uint32_t len = 0;
    if (!readAll(fd, &len, sizeof len))
        return {errno == 0 ? RecvStatus::Closed : ioStatus(), 0};
    len = ntohl(len);
    if (len > maxBytes)
        return {RecvStatus::Oversize, len};
    payload.resize(len);
    if (len > 0 && !readAll(fd, payload.data(), len))
        return {ioStatus(), len};
    return {RecvStatus::Ok, len};
}

} // namespace

obs::Json
errorResponseJson(const std::string &kind,
                  const std::string &message)
{
    obs::Json doc = obs::Json::object();
    doc.set("schema", responseSchema);
    doc.set("version", responseVersion);
    doc.set("status", "error");
    doc.set("error_kind", kind);
    doc.set("error", message);
    return doc;
}

obs::Json
handleRequest(JobEngine &engine, const obs::Json &jobDoc,
              int *jobIdOut)
{
    int id = -1;
    if (jobIdOut)
        *jobIdOut = -1;
    try {
        id = engine.submit(jobDoc);
    } catch (const OverloadedError &e) {
        // Admission-control rejection: the typed cue for the client
        // to back off and retry (requestReportWithRetry does).
        return errorResponseJson("overloaded", e.what());
    } catch (const fault::ConfigError &e) {
        return errorResponseJson("config", e.what());
    } catch (const std::exception &e) {
        return errorResponseJson("internal", e.what());
    }
    if (jobIdOut)
        *jobIdOut = id;
    engine.run();

    const JobResult &result = engine.result(id);
    if (result.status != JobResult::Status::Completed) {
        obs::Json doc = errorResponseJson(
            result.errorKind.empty() ? "internal" : result.errorKind,
            result.error.empty()
                ? std::string("job ended ") +
                      jobStatusName(result.status)
                : result.error);
        doc.set("trace_id", telem::traceIdHex(result.traceId));
        return doc;
    }

    obs::Json doc = obs::Json::object();
    doc.set("schema", responseSchema);
    doc.set("version", responseVersion);
    doc.set("status", "ok");
    doc.set("cached", result.cached);
    doc.set("key", result.key);
    doc.set("trace_id", telem::traceIdHex(result.traceId));
    doc.set("report", result.report);
    doc.set("derived", result.derived);
    return doc;
}

obs::Json
cacheVerbResponse(JobEngine &engine, const obs::Json &doc)
{
    try {
        const JobSpec spec = decodeCacheQuery(doc);
        obs::Json reply = obs::Json::object();
        if (doc.get("cmd").asString() == "cacheput") {
            engine.cache().store(spec, decodeCacheRecord(doc, spec));
            reply.set("status", "ok");
        } else if (auto hit = engine.cache().lookup(spec)) {
            reply = encodeCacheRecord(spec, spec.cacheKey(), *hit);
            reply.set("status", "hit");
        } else {
            reply.set("status", "miss");
        }
        return reply;
    } catch (const StaleCacheRecord &e) {
        return errorResponseJson("mismatch", e.what());
    } catch (const fault::ConfigError &e) {
        return errorResponseJson("config", e.what());
    } catch (const std::exception &e) {
        return errorResponseJson("internal", e.what());
    }
}

obs::Json
introspectionResponse(JobEngine &engine, const std::string &cmd,
                      double uptimeS, std::uint64_t served)
{
    auto stamp = [&](obs::Json &doc, const char *schema) {
        doc.set("schema", schema);
        doc.set("version", introspectionVersion);
        doc.set("uptime_s", uptimeS);
        doc.set("served", served);
    };

    if (cmd == "healthz") {
        // Liveness only: answered from two counters, cheap enough to
        // poll tightly.
        const JobEngine::Load load = engine.load();
        obs::Json doc = obs::Json::object();
        stamp(doc, "stitchd-healthz");
        doc.set("status", "ok");
        doc.set("queue_depth", load.queueDepth);
        doc.set("in_flight", load.inFlight);
        doc.set("build", obs::buildInfoJson());
        return doc;
    }
    if (cmd == "metrics") {
        obs::Json doc = engine.introspectionJson();
        stamp(doc, "stitchd-metrics");
        return doc;
    }
    if (cmd == "statz") {
        obs::Json doc = engine.introspectionJson();
        stamp(doc, "stitchd-statz");
        doc.set("service", engine.serviceReportJson());
        return doc;
    }
    if (cmd == "fleetz") {
        // The mergeable snapshot: a lossless MetricSample (bucket-
        // level histograms) plus the retained collector windows.
        // stitchrouter folds these across shards with the same
        // merge algebra the in-process telemetry uses.
        obs::Json doc = obs::Json::object();
        stamp(doc, "stitchd-fleetz");
        doc.set("build", obs::buildInfoJson());
        doc.set("sample", engine.metricsSnapshot().toWireJson());
        obs::Json windows = obs::Json::array();
        if (const telem::Collector *collector = engine.collector())
            for (const telem::Window &w :
                 collector->series().snapshot())
                windows.push(w.toWireJson());
        doc.set("windows", std::move(windows));
        return doc;
    }
    if (cmd == "scrape") {
        // Prometheus text exposition, carried in a JSON envelope so
        // the one wire format serves both humans and scrapers
        // (stitchtop --cmd=scrape unwraps it back to plain text).
        obs::Json doc = obs::Json::object();
        stamp(doc, "stitchd-scrape");
        doc.set("content_type", telem::expositionContentType);
        doc.set("exposition",
                engine.expositionText(uptimeS, served));
        return doc;
    }
    return errorResponseJson("config", "unknown cmd: " + cmd);
}

Server::Server(JobEngine &engine, std::uint16_t port,
               ServerOptions options)
    : engine_(&engine), options_(options)
{
    bindAndListen(port);
}

Server::Server(RequestHandler handler, std::uint16_t port,
               ServerOptions options)
    : handler_(std::move(handler)), options_(options)
{
    if (!handler_)
        throw fault::ConfigError(
            "stitchd: Server needs a non-empty request handler");
    bindAndListen(port);
}

void
Server::bindAndListen(std::uint16_t port)
{
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        throw fault::ConfigError(detail::formatMessage(
            "stitchd: socket(): ", std::strerror(errno)));

    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) < 0 ||
        ::listen(listenFd_, 16) < 0) {
        const std::string why = std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        throw fault::ConfigError(detail::formatMessage(
            "stitchd: cannot listen on 127.0.0.1:", port, ": ",
            why));
    }

    socklen_t addrLen = sizeof addr;
    if (::getsockname(listenFd_,
                      reinterpret_cast<sockaddr *>(&addr),
                      &addrLen) == 0)
        port_ = ntohs(addr.sin_port);
    else
        port_ = port;
}

Server::~Server()
{
    stop();
    // Closed only here, once serve() can no longer be inside
    // accept(): closing in stop() would race that read and could
    // hand the fd number to another open() before serve() noticed.
    ::close(listenFd_);
}

void
Server::stop()
{
    if (stopping_.exchange(true))
        return;
    // shutdown() wakes a blocked accept() (close() alone may not)
    // and leaves listenFd_ untouched for the destructor.
    ::shutdown(listenFd_, SHUT_RDWR);
}

void
Server::serve(int maxRequests)
{
    int served = 0;
    while (!stopping_.load() &&
           (maxRequests <= 0 || served < maxRequests)) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break; // listener closed (stop()) or broken
        }
        ++served;
        ++served_;

        if (options_.readTimeoutMs > 0) {
            // A client that connects and stalls must not wedge the
            // single-threaded serve loop forever.
            timeval tv{};
            tv.tv_sec = static_cast<time_t>(
                options_.readTimeoutMs / 1000);
            tv.tv_usec = static_cast<suseconds_t>(
                (options_.readTimeoutMs % 1000) * 1000);
            ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv,
                         sizeof tv);
        }

        std::string payload;
        obs::Json response;
        int jobId = -1;
        const RecvResult recv =
            recvFrame(fd, payload, options_.maxFrameBytes);
        if (recv.status != RecvStatus::Ok) {
            // Typed, best-effort reply: a peer that already hung up
            // just loses the write, which is fine — nothing to
            // answer a closed socket with.
            switch (recv.status) {
            case RecvStatus::Oversize:
                response = errorResponseJson(
                    "protocol",
                    detail::formatMessage(
                        "request frame of ", recv.announced,
                        " bytes exceeds the ",
                        options_.maxFrameBytes, "-byte limit"));
                break;
            case RecvStatus::Timeout:
                response = errorResponseJson(
                    "protocol",
                    detail::formatMessage(
                        "read timed out after ",
                        options_.readTimeoutMs, " ms mid-request"));
                break;
            case RecvStatus::Closed:
            case RecvStatus::Short:
            default:
                response = errorResponseJson(
                    "protocol",
                    "connection closed before a complete frame "
                    "arrived");
                break;
            }
            // A framing violation never became a job, so no ring
            // exists for it; the engine dumps a synthetic
            // kind="protocol" flight record instead.
            if (engine_)
                engine_->recordProtocolFailure(
                    response.get("error").asString());
        } else {
            try {
                obs::Json doc = obs::Json::parse(payload);
                if (handler_) {
                    response = handler_(doc);
                } else if (doc.isObject() && doc.has("cmd")) {
                    const std::string cmd =
                        doc.get("cmd").asString();
                    response =
                        (cmd == "cacheget" || cmd == "cacheput")
                            ? cacheVerbResponse(*engine_, doc)
                            : introspectionResponse(*engine_, cmd,
                                                    uptimeS(),
                                                    served_);
                } else {
                    response =
                        handleRequest(*engine_, doc, &jobId);
                }
            } catch (const FatalError &e) {
                // Json::parse fatals on malformed text; a handler
                // that fatals answers typed too.
                response = errorResponseJson("config", e.what());
                if (engine_)
                    engine_->recordProtocolFailure(e.what());
            } catch (const std::exception &e) {
                response = errorResponseJson("internal", e.what());
            }
        }
        {
            // Serialization + write-back is the respond stage; with
            // telemetry off traceContext() returns a null-sink
            // context and this is a no-op.
            telem::ScopedSpan span(engine_
                                       ? engine_->traceContext(jobId)
                                       : telem::TraceContext{},
                                   telem::Stage::Respond);
            if (!sendFrame(fd, response.dump()))
                warn("stitchd: client hung up before the response");
        }
        ::close(fd);
    }
}

double
Server::uptimeS() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

std::string
requestFrame(const std::string &host, std::uint16_t port,
             const obs::Json &jobDoc, const ServiceFaultInjector *chaos,
             std::uint64_t requestIndex, std::uint64_t timeoutMs)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw fault::ConfigError(detail::formatMessage(
            "stitchq: socket(): ", std::strerror(errno)));
    if (timeoutMs > 0) {
        // Bound both directions: a peer that accepted the connection
        // but never answers (a SIGKILLed-but-lingering shard, a
        // wedged daemon) must surface as a transport failure the
        // caller can fail over on, not a hang.
        timeval tv{};
        tv.tv_sec = static_cast<time_t>(timeoutMs / 1000);
        tv.tv_usec =
            static_cast<suseconds_t>((timeoutMs % 1000) * 1000);
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    }

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        throw fault::ConfigError(detail::formatMessage(
            "not an IPv4 address: ", host));
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) < 0) {
        const std::string why = std::strerror(errno);
        ::close(fd);
        throw fault::ConfigError(detail::formatMessage(
            "cannot connect to ", host, ":", port, ": ", why));
    }

    if (chaos && chaos->resetConnection(requestIndex)) {
        // Injected mid-frame disconnect: promise a 64-byte body,
        // deliver 10, hang up. The server must answer *itself* with
        // a typed protocol error — this side has nothing to read.
        std::uint32_t len = htonl(64);
        (void)writeAll(fd, &len, sizeof len);
        (void)writeAll(fd, "0123456789", 10);
        ::close(fd);
        throw fault::ConfigError(detail::formatMessage(
            "injected connection reset on request ", requestIndex));
    }

    const std::string body =
        chaos && chaos->malformFrame(requestIndex)
            ? std::string("\x7fnot json \x01\x02\x03 garbage")
            : jobDoc.dump();

    std::string payload;
    const bool ok = sendFrame(fd, body) &&
                    recvFrame(fd, payload).status == RecvStatus::Ok;
    ::close(fd);
    if (!ok)
        throw fault::ConfigError(detail::formatMessage(
            "request to ", host, ":", port,
            " failed mid-frame"));
    return payload;
}

obs::Json
requestReport(const std::string &host, std::uint16_t port,
              const obs::Json &jobDoc,
              const ServiceFaultInjector *chaos,
              std::uint64_t requestIndex, std::uint64_t timeoutMs)
{
    return obs::Json::parse(requestFrame(host, port, jobDoc, chaos,
                                         requestIndex, timeoutMs));
}

obs::Json
requestReportWithRetry(const std::string &host, std::uint16_t port,
                       const obs::Json &jobDoc,
                       const RetryPolicy &policy,
                       std::uint64_t requestIndex,
                       const ServiceFaultInjector *chaos,
                       int *attemptsOut, std::uint64_t timeoutMs)
{
    policy.validate();
    for (int attempt = 1;; ++attempt) {
        if (attemptsOut)
            *attemptsOut = attempt;
        const bool lastAttempt = attempt >= policy.maxAttempts;
        // Fold the attempt into the chaos key: a transient injected
        // failure on attempt 1 must be a *fresh* draw on attempt 2,
        // or no retry could ever succeed.
        const std::uint64_t chaosKey =
            requestIndex ^
            (static_cast<std::uint64_t>(attempt - 1) << 32);
        try {
            obs::Json response = requestReport(
                host, port, jobDoc, chaos, chaosKey, timeoutMs);
            const bool overloaded =
                response.isObject() && response.has("error_kind") &&
                response.get("error_kind").kind() ==
                    obs::Json::Kind::String &&
                response.get("error_kind").asString() ==
                    "overloaded";
            if (!overloaded || lastAttempt)
                return response;
        } catch (const fault::ConfigError &) {
            // Transport-level failure (connect refused, mid-frame
            // loss, injected reset): retryable until the budget is
            // spent.
            if (lastAttempt)
                throw;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(
            policy.delayUsAfter(requestIndex, attempt)));
    }
}

} // namespace stitch::svc
