/**
 * @file
 * stitchd — the simulation job engine behind a localhost TCP socket.
 *
 * Usage:
 *   stitchd [--port=P] [--port-file=FILE] [--cache=DIR] [--jobs=N]
 *           [--max-requests=N] [--report=FILE] [--max-queue=N]
 *           [--frame-limit=BYTES] [--read-timeout-ms=N]
 *           [--metrics-interval-ms=N] [--slo=FILE]
 *           [--flight-dir=DIR] [--peers=HOST:PORT,...]
 *           [--remote-timeout-ms=N] [--remote-inline] [--verbose]
 *   stitchd --send=HOST:PORT JOB.json [--retries=N]
 *           [--retry-base-ms=X] [--retry-seed=S]
 *   stitchd --version
 *
 * Fleet mode (DESIGN.md §16): --peers names the *other* shards of a
 * stitchd fleet. The daemon then serves its ResultCache to them over
 * the "cacheget"/"cacheput" verbs and consults theirs before
 * simulating (read-through), replicating fresh results back out on a
 * background thread (write-behind; --remote-inline replicates before
 * answering instead, for deterministic scripts). A job simulated on
 * any shard is a cache hit fleet-wide. See tools/stitchrouter for
 * the consistent-hash front-end.
 *
 * Continuous telemetry (DESIGN.md §14): the daemon samples its
 * counters every --metrics-interval-ms (default 1000; 0 disables),
 * evaluates the --slo=FILE objectives (stitch-slo v1 JSON; built-in
 * defaults otherwise) per closed window with multi-window burn-rate
 * alerting, and keeps a per-job flight recorder whose rings dump to
 * --flight-dir as flight-<traceid>.jsonl on every typed failure.
 * {"cmd":"scrape"} answers the Prometheus text exposition.
 *
 * Resilience: --max-queue bounds the engine's pending queue
 * (overload answers a typed "overloaded" error instead of queueing
 * without bound), --frame-limit caps the accepted request frame, and
 * --read-timeout-ms bounds how long a connected-but-silent client
 * may hold the serve loop. --send retries transport failures and
 * "overloaded" rejections with deterministic jittered exponential
 * backoff when --retries is given.
 *
 * Serving mode binds 127.0.0.1 (--port=0 picks a free port; the
 * chosen one is printed and, with --port-file, written to FILE so
 * scripts can discover it) and answers one length-prefixed stitch-job
 * document per connection with a length-prefixed stitch-response.
 * Identical jobs hit the engine's result cache, so a daemon with
 * --cache=DIR amortizes simulations across every client. Requests
 * carrying a "cmd" key ("healthz" / "metrics" / "statz" / "scrape")
 * are answered from live engine state — see tools/stitchtop for a
 * client.
 *
 * Shutdown is graceful: SIGINT/SIGTERM closes the listener (new
 * connections are refused), the request in flight drains, and the
 * daemon prints a final service report (also written to --report=FILE
 * when given) before exiting 0.
 *
 * --send is the bundled client: submit one job file to a running
 * daemon and print the response to stdout (exit 1 on a status:"error"
 * response) — no second binary or python needed for scripting.
 */

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/cli.hh"
#include "common/logging.hh"
#include "fault/fault.hh"
#include "obs/buildinfo.hh"
#include "obs/json.hh"
#include "obs/registry.hh"
#include "svc/server.hh"

using namespace stitch;

namespace
{

/** Set once the Server exists so the signal handler can reach it.
 *  Server::stop() is async-signal-safe (shutdown() + a lock-free
 *  atomic exchange). */
svc::Server *gServer = nullptr;

void
onShutdownSignal(int)
{
    if (gServer)
        gServer->stop();
}

std::string
readFileText(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw fault::ConfigError(detail::formatMessage(
            "stitchd: cannot open ", path, ": ",
            std::strerror(errno)));
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return text;
}

int
sendMode(const std::string &target, const std::string &jobPath,
         const svc::RetryPolicy &retry)
{
    const auto colon = target.rfind(':');
    if (colon == std::string::npos) {
        std::fprintf(stderr,
                     "stitchd: --send expects HOST:PORT, got %s\n",
                     target.c_str());
        return 2;
    }
    const std::string host = target.substr(0, colon);
    const int port = std::atoi(target.c_str() + colon + 1);

    const std::string text = readFileText(jobPath);

    obs::Json response = svc::requestReportWithRetry(
        host, static_cast<std::uint16_t>(port),
        obs::Json::parse(text), retry);
    std::printf("%s\n", response.dump(2).c_str());
    return response.get("status").asString() == "ok" ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    cli::CommonFlags common;
    std::string cacheDir, portFile, sendTarget, jobPath, reportPath;
    std::string sloPath, flightDir, peersCsv;
    int port = 0, maxRequests = 0, maxQueue = 0;
    std::uint64_t metricsIntervalMs = 1000;
    svc::RemoteCacheOptions remoteCache;
    svc::ServerOptions serverOptions;
    svc::RetryPolicy retry;
    std::string value;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--version") == 0) {
            std::printf("%s\n",
                        obs::versionText("stitchd").c_str());
            return 0;
        }
        if (common.parse(arg) ||
            cli::keyedValue(arg, "--cache=", &cacheDir) ||
            cli::keyedValue(arg, "--port-file=", &portFile) ||
            cli::keyedValue(arg, "--report=", &reportPath) ||
            cli::keyedValue(arg, "--send=", &sendTarget))
            continue;
        if (cli::keyedValue(arg, "--port=", &value)) {
            port = std::atoi(value.c_str());
            continue;
        }
        if (cli::keyedValue(arg, "--max-requests=", &value)) {
            maxRequests = std::atoi(value.c_str());
            continue;
        }
        if (cli::keyedValue(arg, "--max-queue=", &value)) {
            maxQueue = std::atoi(value.c_str());
            continue;
        }
        if (cli::keyedValue(arg, "--frame-limit=", &value)) {
            serverOptions.maxFrameBytes = static_cast<std::uint32_t>(
                std::strtoul(value.c_str(), nullptr, 10));
            continue;
        }
        if (cli::keyedValue(arg, "--read-timeout-ms=", &value)) {
            serverOptions.readTimeoutMs = static_cast<std::uint64_t>(
                std::strtoull(value.c_str(), nullptr, 10));
            continue;
        }
        if (cli::keyedValue(arg, "--metrics-interval-ms=", &value)) {
            metricsIntervalMs = static_cast<std::uint64_t>(
                std::strtoull(value.c_str(), nullptr, 10));
            continue;
        }
        if (cli::keyedValue(arg, "--slo=", &sloPath) ||
            cli::keyedValue(arg, "--flight-dir=", &flightDir) ||
            cli::keyedValue(arg, "--peers=", &peersCsv))
            continue;
        if (cli::keyedValue(arg, "--remote-timeout-ms=", &value)) {
            remoteCache.timeoutMs = static_cast<std::uint64_t>(
                std::strtoull(value.c_str(), nullptr, 10));
            continue;
        }
        if (std::strcmp(arg, "--remote-inline") == 0) {
            remoteCache.writeBehind = false;
            continue;
        }
        if (cli::keyedValue(arg, "--retries=", &value)) {
            retry.maxAttempts = 1 + std::atoi(value.c_str());
            continue;
        }
        if (cli::keyedValue(arg, "--retry-base-ms=", &value)) {
            retry.baseDelayMs = std::atof(value.c_str());
            continue;
        }
        if (cli::keyedValue(arg, "--retry-seed=", &value)) {
            retry.seed = static_cast<std::uint64_t>(
                std::strtoull(value.c_str(), nullptr, 10));
            continue;
        }
        if (std::strcmp(arg, "--verbose") == 0) {
            obs::Registry::setVerbosity(Verbosity::Info);
            continue;
        }
        if (arg[0] == '-') {
            std::fprintf(stderr, "stitchd: unknown flag %s\n", arg);
            return 2;
        }
        jobPath = arg;
    }

    try {
        if (!sendTarget.empty()) {
            if (jobPath.empty()) {
                std::fprintf(stderr,
                             "stitchd: --send needs a JOB.json\n");
                return 2;
            }
            retry.validate();
            return sendMode(sendTarget, jobPath, retry);
        }

        svc::EngineOptions options;
        options.jobs = cli::resolveJobs(common.jobs);
        options.cacheDir = cacheDir;
        options.maxQueueDepth = maxQueue;
        // The daemon always collects spans: quantiles for the
        // compile/stitch/simulate stages must be there when a
        // stitchtop attaches, not only after a restart.
        options.telemetry = true;
        // ...and always flies with the black box armed; the dump
        // directory is opt-in.
        options.flightRecorder = true;
        options.flightDir = flightDir;
        options.metricsIntervalMs = metricsIntervalMs;
        // Validate the peer list eagerly (typed, before the engine
        // spins up workers), then hand the endpoints over.
        for (const svc::PeerEndpoint &peer :
             svc::parsePeerList(peersCsv))
            remoteCache.peers.push_back(peer.name());
        options.remoteCache = remoteCache;
        options.slo = sloPath.empty()
                          ? telem::SloConfig::defaults()
                          : telem::SloConfig::fromJson(
                                obs::Json::parse(
                                    readFileText(sloPath)));
        svc::JobEngine engine(options);
        svc::Server server(engine,
                           static_cast<std::uint16_t>(port),
                           serverOptions);

        gServer = &server;
        struct sigaction sa{};
        sa.sa_handler = onShutdownSignal;
        ::sigaction(SIGINT, &sa, nullptr);
        ::sigaction(SIGTERM, &sa, nullptr);

        std::printf("stitchd: listening on 127.0.0.1:%u\n",
                    static_cast<unsigned>(server.port()));
        std::fflush(stdout);
        if (!portFile.empty()) {
            std::FILE *f = obs::openArtifactFile(portFile);
            std::fprintf(f, "%u\n",
                         static_cast<unsigned>(server.port()));
            std::fclose(f);
        }

        server.serve(maxRequests);
        gServer = nullptr;

        // Drain the write-behind replication queue before reporting
        // so the final counters cover every store attempt.
        engine.flushRemoteCache();

        // Drained: emit the final service report.
        obs::Json report = engine.serviceReportJson();
        std::printf(
            "stitchd: served %llu requests in %.1fs; final service "
            "report follows\n%s\n",
            static_cast<unsigned long long>(server.servedCount()),
            server.uptimeS(), report.dump(2).c_str());
        if (!reportPath.empty())
            obs::writeJsonFile(reportPath, report);
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "stitchd: %s\n", e.what());
        return 2;
    }
}
