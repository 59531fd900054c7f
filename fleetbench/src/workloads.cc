#include "workloads.hh"

#include <algorithm>
#include <atomic>
#include <malloc.h>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "apps/app_runner.hh"
#include "apps/apps.hh"
#include "common/rng.hh"
#include "fault/fault.hh"
#include "fleet_rig.hh"
#include "measure.hh"
#include "svc/artifacts.hh"
#include "svc/engine.hh"
#include "svc/job.hh"
#include "svc/server.hh"
#include "telem/span.hh"

namespace fleetbench
{

using namespace stitch;

void
RunOutcome::violation(const std::string &why)
{
    correct = false;
    if (violations.size() < 16)
        violations.push_back(why);
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "hot_hits", "unique_sims", "cold_start"};
    return names;
}

namespace
{

// ---------------------------------------------------------------
// Sizing. Every timed phase sends a fixed number of requests, so
// counts and memory compare across runs. For hot_hits and cold_start
// it is a pure function of --seconds, sized so a whole run, set-ups
// included, lasts about that long on one CPU of a 4-vCPU x86-64
// host; unique_sims always sends its whole job grid.

constexpr double kHotRequestsPerS = 300.0;
constexpr double kColdRoundsPerS = 2.4;

/** Closed-loop clients of the fleet workloads (<= nproc). */
constexpr int kClients = 3;

/** cold_start warm-up set-ups per untraced run; setup_s is their
 *  median. */
constexpr int kSetupRepeats = 3;

/** Reports checked byte for byte against a serial AppRunner. */
constexpr int kReferenceChecks = 3;

/** Wire timeout of a benchmark request (ms). */
constexpr std::uint64_t kTimeoutMs = 60000;

/** A Compile span at least this long compiled a kernel; a span over
 *  the runner's compile cache alone takes microseconds. */
constexpr std::uint64_t kRealCompileUs = 1000;

/** Priming identity: a per-shard max_instructions budget far above
 *  what a 1/2-sample run executes, so each shard's priming jobs have
 *  their own cache keys (a peer cannot answer them) while the
 *  simulation itself is unchanged. */
constexpr std::uint64_t kPrimeBudget = 90'000'000;

constexpr apps::AppMode kModes[] = {
    apps::AppMode::Baseline, apps::AppMode::Locus,
    apps::AppMode::StitchNoFusion, apps::AppMode::Stitch};
constexpr compiler::StitchPolicy kPolicies[] = {
    compiler::StitchPolicy::Greedy,
    compiler::StitchPolicy::SinglesOnly,
    compiler::StitchPolicy::Auto};

struct Window
{
    int samplesShort;
    int samplesLong;
};
constexpr Window kWindows[] = {{1, 2}, {1, 3}, {2, 3}, {2, 4},
                               {1, 4}, {3, 4}, {3, 5}, {2, 5}};

const std::vector<std::string> &
appNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const apps::AppSpec &app : apps::allApps())
            out.push_back(app.name);
        return out;
    }();
    return names;
}

/** "APP1-gesture" -> "APP1": the class a request is analysed in. */
std::string
appClass(const std::string &app)
{
    return app.substr(0, app.find('-'));
}

template <class T>
void
shuffle(std::vector<T> &items, Rng &rng)
{
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1],
                  items[static_cast<std::size_t>(rng.range(
                      0, static_cast<std::int64_t>(i - 1)))]);
}

/** A stitch-job document with only the fields a device sends: no
 *  scheduler and no max_instructions, so the service defaults
 *  apply. */
obs::Json
jobDoc(const std::string &app, apps::AppMode mode,
       compiler::StitchPolicy policy, Window window, bool energy = false)
{
    obs::Json doc = obs::Json::object();
    doc.set("schema", svc::jobSchema);
    doc.set("version", svc::jobSchemaVersion);
    doc.set("app", app);
    doc.set("mode", svc::appModeToken(mode));
    doc.set("policy", svc::stitchPolicyToken(policy));
    doc.set("samples_short", window.samplesShort);
    doc.set("samples_long", window.samplesLong);
    if (energy) {
        obs::Json artifacts = obs::Json::object();
        artifacts.set("energy", true);
        doc.set("artifacts", artifacts);
    }
    return doc;
}

obs::Json
named(obs::Json doc, const std::string &name)
{
    doc.set("name", name);
    return doc;
}

bool
isOk(const obs::Json &response)
{
    return response.isObject() && response.has("status") &&
           response.get("status").asString() == "ok";
}

bool
isCached(const obs::Json &response)
{
    return response.has("cached") && response.get("cached").asBool();
}

std::uint64_t
reportInstructions(const obs::Json &report)
{
    if (!report.has("totals") ||
        !report.get("totals").has("instructions"))
        return 0;
    return report.get("totals").get("instructions").asUint();
}

/** Indices `count` distinct requests out of `n`, seeded. */
std::set<std::size_t>
sampleIndices(std::size_t n, int count, std::uint64_t seed)
{
    Rng rng(seed ^ 0x7e57ull);
    std::set<std::size_t> picked;
    while (picked.size() < std::min<std::size_t>(n, count))
        picked.insert(static_cast<std::size_t>(
            rng.range(0, static_cast<std::int64_t>(n) - 1)));
    return picked;
}

// ---------------------------------------------------------------
// Correctness reference: the report a serial AppRunner produces for
// the same spec, which every served report must equal byte for byte.

class Reference
{
  public:
    /** Empty when `response` carries the reference report, otherwise
     *  what differed. */
    std::string
    check(const obs::Json &jobDoc, const obs::Json &response)
    {
        const svc::JobSpec spec = svc::JobSpec::fromJson(jobDoc);
        const apps::AppRunResult result = runner_.run(
            spec.resolveApp(), spec.mode, spec.runConfig());
        svc::ReportOptions options;
        options.profile = spec.artifacts.profile;
        options.energy = spec.artifacts.energy;
        if (!response.has("report"))
            return "response without a report";
        if (svc::appReportJson(result, options).dump() !=
            response.get("report").dump())
            return "report of " + spec.app + " differs from a serial "
                   "AppRunner run of the same spec";
        return {};
    }

  private:
    apps::AppRunner runner_;
};

/** Exact counts and time of one cold compile of every catalog
 *  kernel shape, by direct AppRunner::compiledFor calls. */
struct CatalogCompile
{
    double ms = 0.0;
    std::uint64_t kernels = 0;
    std::uint64_t variants = 0;
};

CatalogCompile
compileCatalog(apps::AppRunner &runner,
               const std::vector<std::string> &order)
{
    CatalogCompile out;
    std::set<std::string> seen;
    for (const std::string &name : order) {
        svc::JobSpec spec;
        spec.app = name;
        const apps::AppSpec &app = spec.resolveApp();
        for (std::size_t k = 0; k < app.stageKernels.size(); ++k) {
            kernels::PipelineShape shape;
            shape.numIn = app.inDegree(static_cast<int>(k));
            shape.numOut = app.outDegree(static_cast<int>(k));
            const std::int64_t t0 = nowUs();
            const compiler::CompiledKernel &compiled =
                runner.compiledFor(app.stageKernels[k], shape);
            out.ms += static_cast<double>(nowUs() - t0) / 1e3;
            const std::string key =
                app.stageKernels[k] + "/" +
                std::to_string(shape.numIn) + "/" +
                std::to_string(shape.numOut);
            if (seen.insert(key).second) {
                ++out.kernels;
                out.variants += compiled.variants.size();
            }
        }
    }
    return out;
}

// ---------------------------------------------------------------
// Engine spans laid inside one svc::handleRequest call.

/** Self time per engine stage inside one request (µs). A microsecond
 *  covered by nested spans belongs to the innermost stage. */
struct EngineSplit
{
    double selfUs[telem::numStages] = {};
    double respondUs = 0.0; ///< job finished -> handleRequest returns
    double coveredUs = 0.0; ///< union of the above
    int realCompiles = 0;
    bool simulated = false;
};

/** Spans of one engine, grouped by job id. */
std::map<int, std::vector<telem::Span>>
spansByJob(const svc::JobEngine &engine)
{
    std::map<int, std::vector<telem::Span>> out;
    for (const telem::Span &span : engine.spanSink().snapshot())
        out[span.jobId].push_back(span);
    return out;
}

EngineSplit
splitHandle(const std::vector<telem::Span> &spans,
            std::uint64_t handleStartUs, std::uint64_t handleEndUs)
{
    using telem::Stage;
    // Innermost first: the stage a covered microsecond belongs to.
    static constexpr Stage kOrder[] = {
        Stage::CacheProbe, Stage::Compile, Stage::Stitch,
        Stage::Simulate,   Stage::Report,  Stage::Claim,
        Stage::Submit,     Stage::Queue,   Stage::Backoff};
    EngineSplit split;
    struct Interval
    {
        std::uint64_t from, to;
        int rank; ///< index into kOrder; -1 = respond
    };
    std::vector<Interval> intervals;
    std::uint64_t jobEnd = 0;
    for (const telem::Span &span : spans) {
        if (span.stage == Stage::Job) {
            jobEnd = std::max(jobEnd, span.endUs);
            continue;
        }
        if (span.stage == Stage::Compile &&
            span.durationUs() >= kRealCompileUs)
            ++split.realCompiles;
        if (span.stage == Stage::Simulate)
            split.simulated = true;
        for (int r = 0; r < static_cast<int>(std::size(kOrder)); ++r)
            if (kOrder[r] == span.stage)
                intervals.push_back({span.startUs, span.endUs, r});
    }
    if (jobEnd > 0 && jobEnd < handleEndUs)
        intervals.push_back({jobEnd, handleEndUs, -1});

    std::vector<std::uint64_t> cuts = {handleStartUs, handleEndUs};
    for (const Interval &iv : intervals) {
        cuts.push_back(std::clamp(iv.from, handleStartUs, handleEndUs));
        cuts.push_back(std::clamp(iv.to, handleStartUs, handleEndUs));
    }
    std::sort(cuts.begin(), cuts.end());
    for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
        const std::uint64_t from = cuts[c], to = cuts[c + 1];
        if (to <= from)
            continue;
        int best = static_cast<int>(std::size(kOrder));
        bool respond = false;
        for (const Interval &iv : intervals) {
            if (iv.from > from || iv.to < to)
                continue;
            if (iv.rank < 0)
                respond = true;
            else
                best = std::min(best, iv.rank);
        }
        const double len = static_cast<double>(to - from);
        if (best < static_cast<int>(std::size(kOrder)))
            split.selfUs[static_cast<int>(kOrder[best])] += len;
        else if (respond)
            split.respondUs += len;
        else
            continue;
        split.coveredUs += len;
    }
    return split;
}

// ---------------------------------------------------------------
// The fleet workloads.

struct TimedRequest
{
    obs::Json doc;   ///< named requestName(index)
    std::string cls; ///< app class, for the per-class check
};

struct FleetPlan
{
    std::vector<obs::Json> hotSet; ///< primed through the router
    std::vector<TimedRequest> timed;
    /** First request index of each measurement segment, ascending,
     *  starting at 0. Every segment carries the same class mix. */
    std::vector<std::size_t> segmentStarts;
    /** First request index of each fleet's share (a subset of the
     *  segment starts): every share runs on a freshly set-up fleet. */
    std::vector<std::size_t> fleetStarts;
    bool expectCached = false;
};

/** Fresh fleets per run. Each is set up, timed on its share of the
 *  requests and torn down, so a run's segments spread over its whole
 *  length and setup_s is the median of real set-ups. A traced run
 *  times the first half untraced and traces the second half. */
constexpr std::size_t kFleets = 6;

/** hot_hits segments per fleet. The end-to-end values are medians
 *  over all segments, so host noise in a few of them moves nothing. */
constexpr std::size_t kHotSegmentsPerFleet = 3;

/** hot_hits: a seeded hot set of 32 distinct jobs (every app x mode
 *  twice, policy and window drawn per seed), replayed in seeded
 *  permutations so each hot job is sent equally often. */
FleetPlan
hotHitsPlan(std::uint64_t seed, int seconds)
{
    Rng rng(seed);
    FleetPlan plan;
    plan.expectCached = true;
    std::vector<std::string> hotClass;
    for (const std::string &app : appNames())
        for (apps::AppMode mode : kModes) {
            std::vector<std::pair<int, int>> combos;
            for (int p = 0; p < 3; ++p)
                for (int w = 0; w < 4; ++w)
                    combos.emplace_back(p, w);
            shuffle(combos, rng);
            for (int k = 0; k < 2; ++k) {
                plan.hotSet.push_back(named(
                    jobDoc(app, mode, kPolicies[combos[k].first],
                           kWindows[combos[k].second]),
                    "hot-" + std::to_string(plan.hotSet.size())));
                hotClass.push_back(appClass(app));
            }
        }
    const std::size_t hot = plan.hotSet.size();
    const std::size_t segments = kFleets * kHotSegmentsPerFleet;
    const std::size_t cycles =
        std::max<std::size_t>(
            1, static_cast<std::size_t>(seconds * kHotRequestsPerS /
                                            static_cast<double>(
                                                hot * segments) +
                                        0.5)) *
        segments;
    std::vector<std::size_t> order(hot);
    for (std::size_t c = 0; c < cycles; ++c) {
        if (c * segments / cycles == plan.segmentStarts.size()) {
            if (plan.segmentStarts.size() % kHotSegmentsPerFleet == 0)
                plan.fleetStarts.push_back(plan.timed.size());
            plan.segmentStarts.push_back(plan.timed.size());
        }
        for (std::size_t k = 0; k < hot; ++k)
            order[k] = k;
        shuffle(order, rng);
        for (std::size_t k : order)
            plan.timed.push_back(
                {named(plan.hotSet[k],
                       requestName(plan.timed.size())),
                 hotClass[k]});
    }
    return plan;
}

/** unique_sims: the whole grid of 768 distinct jobs, app x mode x
 *  policy x window x energy section, whatever --seconds says. Fleet k
 *  gets every app x mode x window once, with energy on for k >= 3 and
 *  the policy rotated per cell by (k + a seeded offset) % 3. So every
 *  fleet simulates the same app x mode x window mix, each half of the
 *  fleets covers every policy, and the simulated work is the same for
 *  every seed. The seed decides the policies and each fleet's order. */
FleetPlan
uniqueSimsPlan(std::uint64_t seed)
{
    Rng rng(seed);
    FleetPlan plan;
    std::vector<int> offset(appNames().size() * std::size(kModes));
    for (int &o : offset)
        o = static_cast<int>(rng.range(0, 2));
    static_assert(kFleets == 6, "two energy settings x three policies");
    for (std::size_t k = 0; k < kFleets; ++k) {
        std::vector<TimedRequest> share;
        for (const Window &window : kWindows) {
            std::size_t cell = 0;
            for (const std::string &app : appNames())
                for (apps::AppMode mode : kModes) {
                    const std::size_t p =
                        (k + static_cast<std::size_t>(offset[cell++])) %
                        3;
                    share.push_back({jobDoc(app, mode, kPolicies[p],
                                            window, k >= 3),
                                     appClass(app)});
                }
        }
        shuffle(share, rng);
        plan.segmentStarts.push_back(plan.timed.size());
        plan.fleetStarts.push_back(plan.timed.size());
        for (TimedRequest &request : share)
            plan.timed.push_back(std::move(request));
    }
    for (std::size_t i = 0; i < plan.timed.size(); ++i)
        plan.timed[i].doc.set("name", requestName(i));
    return plan;
}

/** Bring a fleet up and prime it: every shard compiles the whole
 *  catalog under its own job identities (a peer-served hit would
 *  compile nothing), then the hot set is simulated once through the
 *  router. Violations land in `out`. */
std::unique_ptr<Fleet>
bringUp(const FleetPlan &plan, bool telemetry, Probes *probes,
        RunOutcome &out)
{
    auto fleet = std::make_unique<Fleet>(telemetry, probes);
    auto send = [&](std::uint16_t port, const obs::Json &doc,
                    const std::string &what) {
        try {
            const obs::Json response = svc::requestReport(
                "127.0.0.1", port, doc, nullptr, 0, kTimeoutMs);
            if (!isOk(response))
                out.violation(what + " failed: " + response.dump());
            else if (isCached(response))
                out.violation(what + " was served from a cache, so "
                                     "it simulated nothing");
        } catch (const fault::ConfigError &e) {
            out.violation(what + " lost: " + e.what());
        }
    };
    for (int s = 0; s < kShards; ++s)
        for (const std::string &app : appNames()) {
            obs::Json doc = jobDoc(app, apps::AppMode::Stitch,
                                   compiler::StitchPolicy::Auto,
                                   kWindows[0]);
            doc.set("max_instructions",
                    kPrimeBudget + static_cast<std::uint64_t>(s));
            doc.set("name", "prime-" + std::to_string(s));
            send(fleet->shardPort(s), doc,
                 "priming " + app + " on shard " + std::to_string(s));
        }
    for (const obs::Json &doc : plan.hotSet)
        send(fleet->port(), doc, "priming hot job " +
                                     doc.get("name").asString());
    fleet->flushReplication();
    return fleet;
}

/** One measurement segment of a timed phase. */
struct Segment
{
    double wallS = 0.0;
    double cpuMs = 0.0;
    std::uint64_t ok = 0;
    std::vector<double> latencyMs;
};

/** What one timed phase observed. */
struct Phase
{
    std::vector<double> latencyMs; ///< per answered request
    std::vector<std::string> cls;  ///< class of each latency sample
    std::vector<Segment> segments;
    std::uint64_t attempted = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    double wallS = 0.0;
    double cpuMs = 0.0;
    std::int64_t startUs = 0;
    std::int64_t endUs = 0;
    std::map<std::size_t, obs::Json> kept; ///< for the reference
    // Traced runs only, per request index.
    std::vector<double> responseKb;
    std::vector<double> reportKb;
    std::vector<std::uint64_t> instructions;
};

/** Run requests [first, last) of `plan` closed-loop from kClients
 *  threads; the plan's segment starts inside the range split it. */
Phase
runPhase(std::uint16_t port, const FleetPlan &plan, std::size_t first,
         std::size_t last, const std::set<std::size_t> &keep,
         Probes *probes, RunOutcome &out)
{
    const std::size_t n = plan.timed.size();
    Phase phase;
    std::vector<double> latency(n, -1.0);
    std::vector<char> ok(n, 0);
    std::vector<std::string> problems(n);
    std::vector<obs::Json> kept(n);
    if (probes) {
        phase.responseKb.assign(n, 0.0);
        phase.reportKb.assign(n, 0.0);
        phase.instructions.assign(n, 0);
    }
    // Segment boundaries: the client that claims a segment's first
    // request stamps the wall and CPU clocks.
    std::vector<std::size_t> starts = {first};
    for (std::size_t start : plan.segmentStarts)
        if (start > first && start < last)
            starts.push_back(start);
    const std::size_t segments = starts.size();
    std::vector<std::size_t> segmentOf(n, 0);
    for (std::size_t k = 0; k < segments; ++k)
        for (std::size_t i = starts[k]; i < last; ++i)
            segmentOf[i] = k;
    std::vector<std::pair<std::int64_t, double>> marks(segments + 1);
    std::atomic<std::size_t> cursor{first};

    auto client = [&] {
        for (;;) {
            const std::size_t i = cursor.fetch_add(1);
            if (i >= last)
                return;
            if (i > first && segmentOf[i] != segmentOf[i - 1])
                marks[segmentOf[i]] = {nowUs(), processCpuMs()};
            obs::Json response;
            const std::int64_t t0 = nowUs();
            if (probes)
                probes->clientSent(i, t0);
            try {
                response = svc::requestReport(
                    "127.0.0.1", port, plan.timed[i].doc, nullptr, i,
                    kTimeoutMs);
            } catch (const fault::ConfigError &e) {
                problems[i] = std::string("transport lost: ") +
                              e.what();
                continue;
            }
            const std::int64_t t1 = nowUs();
            if (probes)
                probes->clientReceived(i, t1);
            latency[i] = static_cast<double>(t1 - t0) / 1e3;
            if (!isOk(response)) {
                problems[i] = response.has("error_kind")
                                  ? "typed error " +
                                        response.get("error_kind")
                                            .asString()
                                  : "untyped failure";
                continue;
            }
            ok[i] = 1;
            if (isCached(response) != plan.expectCached)
                problems[i] = std::string("cached:") +
                              (isCached(response) ? "true" : "false") +
                              " on " +
                              plan.timed[i].doc.get("name").asString();
            if (probes) {
                // The wire carries dump(2) plus a newline.
                phase.responseKb[i] =
                    static_cast<double>(response.dump(2).size() + 1) /
                    1024.0;
                phase.reportKb[i] =
                    static_cast<double>(
                        response.get("report").dump().size()) /
                    1024.0;
                phase.instructions[i] =
                    reportInstructions(response.get("report"));
            }
            if (keep.count(i))
                kept[i] = std::move(response);
        }
    };

    marks[0] = {nowUs(), processCpuMs()};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back(client);
    for (auto &thread : clients)
        thread.join();
    marks[segments] = {nowUs(), processCpuMs()};
    phase.startUs = marks[0].first;
    phase.endUs = marks[segments].first;
    phase.cpuMs = marks[segments].second - marks[0].second;
    phase.wallS = static_cast<double>(phase.endUs - phase.startUs) / 1e6;
    phase.segments.resize(segments);
    for (std::size_t k = 0; k < segments; ++k) {
        phase.segments[k].wallS =
            static_cast<double>(marks[k + 1].first - marks[k].first) /
            1e6;
        phase.segments[k].cpuMs = marks[k + 1].second - marks[k].second;
    }

    phase.attempted = last - first;
    for (std::size_t i = first; i < last; ++i) {
        Segment &segment = phase.segments[segmentOf[i]];
        if (latency[i] >= 0.0) {
            phase.latencyMs.push_back(latency[i]);
            phase.cls.push_back(plan.timed[i].cls);
            segment.latencyMs.push_back(latency[i]);
        }
        if (ok[i]) {
            ++phase.ok;
            ++segment.ok;
        } else {
            ++phase.failed;
        }
        if (!problems[i].empty())
            out.violation(problems[i]);
        if (keep.count(i) && ok[i])
            phase.kept[i] = std::move(kept[i]);
    }
    return phase;
}

/** Append `part` (a later fleet's phase) to `into`. */
void
absorb(Phase &into, Phase &&part)
{
    into.latencyMs.insert(into.latencyMs.end(), part.latencyMs.begin(),
                          part.latencyMs.end());
    into.cls.insert(into.cls.end(), part.cls.begin(), part.cls.end());
    for (Segment &segment : part.segments)
        into.segments.push_back(std::move(segment));
    into.attempted += part.attempted;
    into.ok += part.ok;
    into.failed += part.failed;
    into.wallS += part.wallS;
    into.cpuMs += part.cpuMs;
    into.kept.merge(part.kept);
}

/** Where the pooled p50 and p90 sit against each class's own
 *  distribution: a pooled quantile inside no class's p10..p90 range
 *  sits on a step between classes and swings with the mix. */
obs::Json
classCheck(const std::vector<double> &latency,
           const std::vector<std::string> &cls)
{
    std::map<std::string, std::vector<double>> byClass;
    for (std::size_t i = 0; i < latency.size(); ++i)
        byClass[cls[i]].push_back(latency[i]);
    obs::Json doc = obs::Json::object();
    obs::Json classes = obs::Json::object();
    for (const auto &[name, samples] : byClass) {
        obs::Json c = obs::Json::object();
        c.set("n", static_cast<std::uint64_t>(samples.size()));
        c.set("p10_ms", quantile(samples, 0.1));
        c.set("p50_ms", quantile(samples, 0.5));
        c.set("p90_ms", quantile(samples, 0.9));
        classes.set(name, c);
    }
    doc.set("classes", classes);
    for (const auto &[label, q] :
         {std::pair<const char *, double>{"p50", 0.5}, {"p90", 0.9}}) {
        const double pooled = quantile(latency, q);
        obs::Json inside = obs::Json::array();
        for (const auto &[name, samples] : byClass)
            if (pooled >= quantile(samples, 0.1) &&
                pooled <= quantile(samples, 0.9))
                inside.push(name);
        obs::Json where = obs::Json::object();
        where.set("pooled_ms", pooled);
        where.set("on_step", inside.size() == 0);
        where.set("inside_classes", inside);
        doc.set(label, where);
    }
    return doc;
}

/**
 * The end-to-end metrics of a timed phase. Throughput and CPU per job
 * are medians over the phase's segments; latency quantiles are exact
 * over raw samples, taken per segment and then the median over
 * segments (`pooled`: over all samples at once, for a phase whose
 * segments hold one sample each).
 */
void
addEndToEnd(RunOutcome &out, double setupS, const Phase &phase,
            bool pooled)
{
    std::vector<double> p50, p90, rate, cpu;
    obs::Json segments = obs::Json::array();
    for (const Segment &segment : phase.segments) {
        const double jobs =
            std::max<double>(1.0, static_cast<double>(segment.ok));
        rate.push_back(static_cast<double>(segment.ok) / segment.wallS);
        cpu.push_back(segment.cpuMs / jobs);
        p50.push_back(quantile(segment.latencyMs, 0.5));
        p90.push_back(quantile(segment.latencyMs, 0.9));
        if (!pooled) {
            obs::Json s = obs::Json::object();
            s.set("n", static_cast<std::uint64_t>(
                           segment.latencyMs.size()));
            s.set("p50_ms", p50.back());
            s.set("p90_ms", p90.back());
            s.set("jobs_s", rate.back());
            s.set("cpu_ms_per_job", cpu.back());
            segments.push(s);
        }
    }
    out.endToEnd = {
        {"setup_s", setupS, "s"},
        {"p50_ms",
         pooled ? quantile(phase.latencyMs, 0.5) : quantile(p50, 0.5),
         "ms"},
        {"p90_ms",
         pooled ? quantile(phase.latencyMs, 0.9) : quantile(p90, 0.5),
         "ms"},
        {"jobs_s", quantile(rate, 0.5), "1/s"},
        {"cpu_ms_per_job", quantile(cpu, 0.5), "ms"},
        {"peak_rss_mb", static_cast<double>(peakRssKb()) / 1024.0,
         "MiB"},
    };
    out.attempted = phase.attempted;
    out.failed = phase.failed;
    out.notes.set("timed_requests", phase.attempted);
    out.notes.set("latency_samples",
                  static_cast<std::uint64_t>(phase.latencyMs.size()));
    out.notes.set("timed_wall_s", phase.wallS);
    out.notes.set("segments", segments);
    out.notes.set("class_check", classCheck(phase.latencyMs, phase.cls));
    if (phase.failed > 0)
        out.violation("error_rate " +
                      std::to_string(static_cast<double>(phase.failed) /
                                     static_cast<double>(
                                         phase.attempted)) +
                      " is not 0");
}

void
checkReferences(const std::map<std::size_t, obs::Json> &kept,
                const FleetPlan &plan, RunOutcome &out)
{
    Reference reference;
    for (const auto &[index, response] : kept) {
        const std::string diff =
            reference.check(plan.timed[index].doc, response);
        if (!diff.empty())
            out.violation(diff);
    }
}

/** Mean over requests of a per-request value, skipping requests the
 *  probes did not see end to end. */
struct Acc
{
    double sum = 0.0;
    std::uint64_t n = 0;
    void add(double v) { sum += v, ++n; }
    double mean() const { return n ? sum / static_cast<double>(n) : 0; }
};

/** Per-layer values of a traced run. A layer a workload never enters
 *  keeps its zeros; times are ms per request unless noted. */
struct Layers
{
    double wireWaitMs = 0, wireReturnMs = 0, responseKb = 0;
    double routerSelfMs = 0, routerBusyShare = 0, reroutes = 0;
    double handleMs = 0, queueMs = 0, admitMs = 0, respondMs = 0,
           rssKbPerReq = 0;
    double localHitRatio = 0, probeMs = 0, remoteGets = 0,
           remotePuts = 0, remoteGetMs = 0, remotePutMs = 0;
    double compileMs = 0, kernels = 0, variants = 0, timedCompiles = 0;
    double stitchMs = 0, simulateMs = 0, instructions = 0, mips = 0;
    double renderMs = 0, reportKb = 0;
    double unattributedPct = 0, overheadPct = 0;
};

/** The per_layer metrics of BENCHMARK.json, in its order. */
std::vector<Metric>
layerMetrics(const Layers &l)
{
    return {
        {"wire.wait_ms", l.wireWaitMs, "ms"},
        {"wire.return_ms", l.wireReturnMs, "ms"},
        {"wire.response_kb", l.responseKb, "KiB"},
        {"router.self_ms", l.routerSelfMs, "ms"},
        {"router.busy_share", l.routerBusyShare, "ratio"},
        {"router.failover_reroutes", l.reroutes, "count"},
        {"engine.handle_ms", l.handleMs, "ms"},
        {"engine.queue_ms", l.queueMs, "ms"},
        {"engine.admit_ms", l.admitMs, "ms"},
        {"engine.respond_ms", l.respondMs, "ms"},
        {"engine.rss_kb_per_req", l.rssKbPerReq, "KiB"},
        {"cache.local_hit_ratio", l.localHitRatio, "ratio"},
        {"cache.probe_ms", l.probeMs, "ms"},
        {"cache.remote_gets", l.remoteGets, "count"},
        {"cache.remote_puts", l.remotePuts, "count"},
        {"cache.remote_get_ms", l.remoteGetMs, "ms"},
        {"cache.remote_put_ms", l.remotePutMs, "ms"},
        {"compiler.compile_ms", l.compileMs, "ms"},
        {"compiler.kernels", l.kernels, "count"},
        {"compiler.variants", l.variants, "count"},
        {"compiler.timed_compiles", l.timedCompiles, "count"},
        {"stitch.ms", l.stitchMs, "ms"},
        {"exec.simulate_ms", l.simulateMs, "ms"},
        {"exec.instructions", l.instructions, "count"},
        {"exec.mips", l.mips, "MIPS"},
        {"report.render_ms", l.renderMs, "ms"},
        {"report.kb", l.reportKb, "KiB"},
        {"ledger.unattributed_pct", l.unattributedPct, "%"},
        {"trace.overhead_pct", l.overheadPct, "%"},
    };
}

/** 100 * part / whole, 0 for an empty whole. */
double
percent(double part, double whole)
{
    return whole > 0 ? 100.0 * part / whole : 0.0;
}

/** The per-layer ledger of a traced fleet run, accumulated over its
 *  fresh fleets. */
class FleetLedger
{
  public:
    /** Fold in one traced fleet after its share of the requests;
     *  `rssDeltaKb` is the resident-set growth over that share. */
    void
    add(Fleet &fleet, const Probes &probes, const Phase &phase,
        double rssDeltaKb)
    {
        using telem::Stage;
        const std::vector<RequestTrace> traces = probes.traces();
        const CacheVerbTrace verbs = probes.cacheVerbs();
        getMs_.insert(getMs_.end(), verbs.getMs.begin(),
                      verbs.getMs.end());
        putMs_.insert(putMs_.end(), verbs.putMs.begin(),
                      verbs.putMs.end());

        std::array<std::map<int, std::vector<telem::Span>>, kShards>
            spans;
        std::array<std::set<int>, kShards> timedJobs;
        for (int s = 0; s < kShards; ++s)
            spans[s] = spansByJob(fleet.engine(s));
        for (const RequestTrace &t : traces)
            if (t.shard >= 0)
                timedJobs[t.shard].insert(t.jobId);
        // Set-up compile: the Compile spans of every job that is not
        // a timed request (the priming jobs).
        for (int s = 0; s < kShards; ++s)
            for (const auto &[job, list] : spans[s])
                if (!timedJobs[s].count(job))
                    for (const telem::Span &span : list)
                        if (span.stage == Stage::Compile)
                            setupCompileUs_ +=
                                static_cast<double>(span.durationUs());
        setupShards_ += kShards;

        for (std::size_t i = 0; i < traces.size(); ++i) {
            const RequestTrace &t = traces[i];
            if (t.recvUs == 0 || t.routerExitUs == 0 || t.shard < 0)
                continue;
            const double latency =
                static_cast<double>(t.recvUs - t.sendUs);
            const double routerUs =
                static_cast<double>(t.routerExitUs - t.routerEnterUs);
            latencySum_ += latency;
            routerBusyUs_ += routerUs;
            wait_.add(static_cast<double>(t.routerEnterUs - t.sendUs));
            ret_.add(static_cast<double>(t.recvUs - t.routerExitUs));
            routerSelf_.add(routerUs - static_cast<double>(t.shardUs));
            handle_.add(static_cast<double>(t.shardUs));
            queue_.add(t.queueMs * 1e3);
            respKb_.add(phase.responseKb[i]);
            repKb_.add(phase.reportKb[i]);

            const auto it = spans[t.shard].find(t.jobId);
            const EngineSplit split = splitHandle(
                it == spans[t.shard].end() ? std::vector<telem::Span>{}
                                           : it->second,
                t.sinkStartUs, t.sinkEndUs);
            probe_.add(split.selfUs[static_cast<int>(Stage::CacheProbe)]);
            admit_.add(split.selfUs[static_cast<int>(Stage::Submit)] +
                       split.selfUs[static_cast<int>(Stage::Claim)]);
            respond_.add(split.respondUs);
            uncovered_ +=
                static_cast<double>(t.shardUs) - split.coveredUs;
            realCompiles_ +=
                static_cast<std::uint64_t>(split.realCompiles);
            ++jobs_;
            if (t.cached)
                ++cachedJobs_;
            if (split.simulated) {
                stitch_.add(split.selfUs[static_cast<int>(Stage::Stitch)]);
                const double sim =
                    split.selfUs[static_cast<int>(Stage::Simulate)];
                simulate_.add(sim);
                simUs_ += sim;
                report_.add(split.selfUs[static_cast<int>(Stage::Report)]);
                instructions_ += phase.instructions[i];
            }
        }
        for (int s = 0; s < kShards; ++s)
            if (auto *remote = fleet.engine(s).remoteCache())
                remoteHits_ += remote->stats().hits;
        reroutes_ += fleet.router().stats().failoverReroutes;
        wallUs_ += static_cast<double>(phase.endUs - phase.startUs);
        cpuMs_ += phase.cpuMs;
        ok_ += phase.ok;
        rssDeltaKb_ += rssDeltaKb;
        attempted_ += phase.attempted;
    }

    Layers
    layers(const Phase &untraced, const CatalogCompile &catalog) const
    {
        const double ms = 1e-3;
        const double tracedCpu =
            cpuMs_ / std::max<double>(1.0, static_cast<double>(ok_));
        const double untracedCpu =
            untraced.cpuMs /
            std::max<double>(1.0, static_cast<double>(untraced.ok));
        Layers l;
        l.wireWaitMs = wait_.mean() * ms;
        l.wireReturnMs = ret_.mean() * ms;
        l.responseKb = respKb_.mean();
        l.routerSelfMs = routerSelf_.mean() * ms;
        l.routerBusyShare = wallUs_ > 0 ? routerBusyUs_ / wallUs_ : 0.0;
        l.reroutes = static_cast<double>(reroutes_);
        l.handleMs = handle_.mean() * ms;
        l.queueMs = queue_.mean() * ms;
        l.admitMs = admit_.mean() * ms;
        l.respondMs = respond_.mean() * ms;
        l.rssKbPerReq =
            rssDeltaKb_ /
            std::max<double>(1.0, static_cast<double>(attempted_));
        l.localHitRatio =
            jobs_ ? static_cast<double>(cachedJobs_ -
                                        std::min(cachedJobs_,
                                                 remoteHits_)) /
                        static_cast<double>(jobs_)
                  : 0.0;
        l.probeMs = probe_.mean() * ms;
        l.remoteGets = static_cast<double>(getMs_.size());
        l.remotePuts = static_cast<double>(putMs_.size());
        l.remoteGetMs = mean(getMs_);
        l.remotePutMs = mean(putMs_);
        l.compileMs =
            setupShards_ ? setupCompileUs_ * ms / setupShards_ : 0.0;
        l.kernels = static_cast<double>(catalog.kernels);
        l.variants = static_cast<double>(catalog.variants);
        l.timedCompiles = static_cast<double>(realCompiles_);
        l.stitchMs = stitch_.mean() * ms;
        l.simulateMs = simulate_.mean() * ms;
        l.instructions = static_cast<double>(instructions_);
        l.mips = simUs_ > 0 ? static_cast<double>(instructions_) / simUs_
                            : 0.0;
        l.renderMs = report_.mean() * ms;
        l.reportKb = repKb_.mean();
        l.unattributedPct = percent(uncovered_, latencySum_);
        l.overheadPct = percent(tracedCpu - untracedCpu, untracedCpu);
        return l;
    }

  private:
    Acc wait_, ret_, routerSelf_, handle_, queue_, probe_, admit_,
        respond_, stitch_, simulate_, report_, respKb_, repKb_;
    std::vector<double> getMs_, putMs_;
    double latencySum_ = 0.0, uncovered_ = 0.0, routerBusyUs_ = 0.0,
           wallUs_ = 0.0, simUs_ = 0.0, setupCompileUs_ = 0.0,
           cpuMs_ = 0.0, rssDeltaKb_ = 0.0;
    std::uint64_t jobs_ = 0, cachedJobs_ = 0, remoteHits_ = 0,
                  realCompiles_ = 0, instructions_ = 0, reroutes_ = 0,
                  ok_ = 0, attempted_ = 0, setupShards_ = 0;
};

RunOutcome
runFleet(const RunOptions &options, const FleetPlan &plan)
{
    RunOutcome out;
    const std::size_t fleets = plan.fleetStarts.size();
    const std::size_t traceFrom = options.trace ? fleets / 2 : fleets;
    auto shareEnd = [&](std::size_t f) {
        return f + 1 < fleets ? plan.fleetStarts[f + 1]
                              : plan.timed.size();
    };
    const std::set<std::size_t> keep = sampleIndices(
        shareEnd(traceFrom - 1), kReferenceChecks, options.seed);

    // Untraced: the end-to-end numbers, one fresh fleet per share.
    Phase untraced;
    std::vector<double> setups;
    for (std::size_t f = 0; f < traceFrom; ++f) {
        const std::int64_t t0 = nowUs();
        auto fleet = bringUp(plan, false, nullptr, out);
        setups.push_back(static_cast<double>(nowUs() - t0) / 1e6);
        absorb(untraced, runPhase(fleet->port(), plan,
                                  plan.fleetStarts[f], shareEnd(f), keep,
                                  nullptr, out));
        if (fleet->router().stats().failoverReroutes != 0)
            out.violation("the router failed over during the run");
        fleet.reset();
        // Hand the torn-down fleet's heap back to the kernel, so the
        // next fleet's growth starts from the same resident base and
        // peak_rss_mb is one fleet's peak, not an arena accident.
        malloc_trim(0);
    }
    addEndToEnd(out, quantile(setups, 0.5), untraced, false);
    checkReferences(untraced.kept, plan, out);
    if (!options.trace)
        return out;

    // Traced: the second half of the shares, each on a fresh fleet
    // with engine spans on and the benchmark's probes around every
    // layer call.
    FleetLedger ledger;
    for (std::size_t f = traceFrom; f < fleets; ++f) {
        Probes probes(plan.timed.size());
        auto fleet = bringUp(plan, true, &probes, out);
        const std::uint64_t rss0 = currentRssKb();
        probes.arm(true);
        const Phase traced =
            runPhase(fleet->port(), plan, plan.fleetStarts[f],
                     shareEnd(f), {}, &probes, out);
        fleet->flushReplication();
        probes.arm(false);
        ledger.add(*fleet, probes, traced,
                   static_cast<double>(currentRssKb()) -
                       static_cast<double>(rss0));
        fleet.reset();
        malloc_trim(0);
    }
    apps::AppRunner catalogRunner;
    const Layers layers =
        ledger.layers(untraced, compileCatalog(catalogRunner, appNames()));
    if (layers.timedCompiles != 0)
        out.violation("a timed fleet request compiled a kernel");
    out.perLayer = layerMetrics(layers);
    return out;
}

// ---------------------------------------------------------------
// cold_start: no wire, no router, no cache. A round builds a fresh
// JobEngine and answers one default-mode job per catalog app.

obs::Json
defaultJob(const std::string &app)
{
    obs::Json doc = obs::Json::object();
    doc.set("schema", svc::jobSchema);
    doc.set("version", svc::jobSchemaVersion);
    doc.set("app", app);
    return doc;
}

svc::EngineOptions
coldOptions(bool telemetry)
{
    svc::EngineOptions options;
    options.memCacheEntries = 0;
    options.telemetry = telemetry;
    return options;
}

struct ColdRound
{
    double latencyMs = 0.0;
    std::uint64_t failed = 0;
    std::vector<obs::Json> responses; ///< in `order`
    std::vector<std::string> order;
};

/** One round. `onEngine` sees the engine, the job ids and each job's
 *  handleRequest window (span clock) before the engine is torn down;
 *  the last argument is the engine's construction time (µs). */
template <class OnEngine>
ColdRound
coldRound(const std::vector<std::string> &order, bool telemetry,
          RunOutcome &out, OnEngine &&onEngine)
{
    ColdRound round;
    round.order = order;
    const std::int64_t t0 = nowUs();
    auto engine = std::make_unique<svc::JobEngine>(coldOptions(telemetry));
    const std::int64_t built = nowUs();
    std::vector<std::array<std::uint64_t, 2>> windows;
    std::vector<int> ids;
    for (const std::string &app : order) {
        int id = -1;
        const std::uint64_t s0 = engine->spanSink().nowUs();
        obs::Json response =
            svc::handleRequest(*engine, defaultJob(app), &id);
        windows.push_back({s0, engine->spanSink().nowUs()});
        ids.push_back(id);
        if (!isOk(response)) {
            ++round.failed;
            out.violation("cold job " + app + " failed: " +
                          response.dump());
        } else if (isCached(response)) {
            out.violation("cold job " + app + " was served cached");
        }
        round.responses.push_back(std::move(response));
    }
    round.latencyMs = static_cast<double>(nowUs() - t0) / 1e3;
    onEngine(*engine, ids, windows,
             static_cast<double>(built - t0));
    return round;
}

RunOutcome
runColdStart(const RunOptions &options)
{
    RunOutcome out;
    Rng rng(options.seed);
    // A traced run times half the rounds untraced and traces the
    // other half, each followed by a direct pass.
    const int allRounds =
        std::max(6, static_cast<int>(options.seconds * kColdRoundsPerS +
                                     0.5));
    const int rounds = options.trace ? allRounds / 2 : allRounds;
    std::vector<std::vector<std::string>> orders;
    for (int r = 0; r < rounds + kSetupRepeats; ++r) {
        std::vector<std::string> order = appNames();
        shuffle(order, rng);
        orders.push_back(order);
    }
    auto none = [](const svc::JobEngine &, const std::vector<int> &,
                   const std::vector<std::array<std::uint64_t, 2>> &,
                   double) {};

    // Set-up: warm-up rounds (code, allocator and catalog statics
    // touched once); setup_s is the median of their wall times.
    std::vector<double> setups;
    const int repeats = options.trace ? 1 : kSetupRepeats;
    for (int r = 0; r < repeats; ++r) {
        const std::int64_t t0 = nowUs();
        coldRound(orders[static_cast<std::size_t>(rounds + r)], false,
                  out, none);
        setups.push_back(static_cast<double>(nowUs() - t0) / 1e6);
    }

    // Each round is a segment of its own: one latency sample, its
    // wall time and its CPU time.
    Phase phase;
    const double cpu0 = processCpuMs();
    phase.startUs = nowUs();
    ColdRound first;
    for (int r = 0; r < rounds; ++r) {
        const double c0 = processCpuMs();
        ColdRound round = coldRound(orders[static_cast<std::size_t>(r)],
                                    false, out, none);
        Segment segment;
        segment.cpuMs = processCpuMs() - c0;
        segment.wallS = round.latencyMs / 1e3;
        segment.ok = round.order.size() - round.failed;
        segment.latencyMs.push_back(round.latencyMs);
        phase.segments.push_back(std::move(segment));
        phase.latencyMs.push_back(round.latencyMs);
        phase.cls.push_back("round");
        phase.failed += round.failed;
        if (r == 0)
            first = std::move(round);
    }
    phase.endUs = nowUs();
    phase.cpuMs = processCpuMs() - cpu0;
    phase.wallS = static_cast<double>(phase.endUs - phase.startUs) / 1e6;
    const std::uint64_t jobs =
        static_cast<std::uint64_t>(rounds) * appNames().size();
    phase.attempted = jobs;
    phase.ok = jobs - phase.failed;
    addEndToEnd(out, quantile(setups, 0.5), phase, true);

    // Byte-identity on a seeded sample of the first round.
    Reference reference;
    for (std::size_t k : sampleIndices(first.order.size(), 2, options.seed)) {
        const std::string diff = reference.check(
            defaultJob(first.order[k]), first.responses[k]);
        if (!diff.empty())
            out.violation(diff);
    }
    if (!options.trace)
        return out;

    // Traced rounds: engine spans through svc::handleRequest, then a
    // direct AppRunner pass timing compiledFor / run / appReportJson.
    using telem::Stage;
    Acc handle, queue, probe, admit, respond, stitchMs, simMs, reportMs,
        compileMs, renderMs, repKb;
    double latencySum = 0.0, uncovered = 0.0, simUs = 0.0,
           tracedCpu = 0.0;
    std::uint64_t realCompiles = 0, instructions = 0, tracedJobs = 0;
    CatalogCompile catalog;
    const std::uint64_t rss0 = currentRssKb();
    const int tracedRounds = allRounds - rounds;
    for (int r = 0; r < tracedRounds; ++r) {
        const std::vector<std::string> &order =
            orders[static_cast<std::size_t>(r)];
        const double c0 = processCpuMs();
        const ColdRound round = coldRound(
            order, true, out,
            [&](const svc::JobEngine &engine, const std::vector<int> &ids,
                const std::vector<std::array<std::uint64_t, 2>> &windows,
                double buildUs) {
                const auto spans = spansByJob(engine);
                double covered = buildUs;
                for (std::size_t k = 0; k < ids.size(); ++k) {
                    const auto it = spans.find(ids[k]);
                    const EngineSplit split = splitHandle(
                        it == spans.end() ? std::vector<telem::Span>{}
                                          : it->second,
                        windows[k][0], windows[k][1]);
                    handle.add(static_cast<double>(windows[k][1] -
                                                   windows[k][0]));
                    queue.add(split.selfUs[static_cast<int>(Stage::Queue)]);
                    probe.add(
                        split.selfUs[static_cast<int>(Stage::CacheProbe)]);
                    admit.add(split.selfUs[static_cast<int>(Stage::Submit)] +
                              split.selfUs[static_cast<int>(Stage::Claim)]);
                    respond.add(split.respondUs);
                    stitchMs.add(
                        split.selfUs[static_cast<int>(Stage::Stitch)]);
                    const double sim =
                        split.selfUs[static_cast<int>(Stage::Simulate)];
                    simMs.add(sim);
                    simUs += sim;
                    covered += split.coveredUs;
                    realCompiles +=
                        static_cast<std::uint64_t>(split.realCompiles);
                }
                uncovered -= covered;
            });
        tracedCpu += processCpuMs() - c0;
        latencySum += round.latencyMs * 1e3;
        uncovered += round.latencyMs * 1e3;
        tracedJobs += order.size();
        for (const obs::Json &response : round.responses)
            if (isOk(response))
                instructions += reportInstructions(response.get("report"));

        // The direct pass on a fresh runner (cold compile cache).
        apps::AppRunner runner;
        const CatalogCompile compiled = compileCatalog(runner, order);
        if (r > 0 && (compiled.kernels != catalog.kernels ||
                      compiled.variants != catalog.variants))
            out.violation("the catalog compiled to a different kernel "
                          "or variant count between rounds");
        catalog = compiled;
        compileMs.add(compiled.ms);
        for (const std::string &name : order) {
            svc::JobSpec spec;
            spec.app = name;
            const apps::AppRunResult result = runner.run(
                spec.resolveApp(), spec.mode, spec.runConfig());
            const std::int64_t t0 = nowUs();
            const obs::Json report = svc::appReportJson(result);
            renderMs.add(static_cast<double>(nowUs() - t0) / 1e3);
            repKb.add(static_cast<double>(report.dump().size()) / 1024.0);
        }
    }
    const double rssDelta =
        static_cast<double>(currentRssKb()) - static_cast<double>(rss0);
    const double untracedCpu = phase.cpuMs / static_cast<double>(jobs);
    const double tracedCpuPerJob =
        tracedCpu / std::max<double>(1.0, tracedJobs);
    const double ms = 1e-3;
    Layers l;
    l.handleMs = handle.mean() * ms;
    l.queueMs = queue.mean() * ms;
    l.admitMs = admit.mean() * ms;
    l.respondMs = respond.mean() * ms;
    l.rssKbPerReq = rssDelta / std::max<double>(1.0, tracedJobs);
    l.probeMs = probe.mean() * ms;
    l.compileMs = compileMs.mean();
    l.kernels = static_cast<double>(catalog.kernels);
    l.variants = static_cast<double>(catalog.variants);
    l.timedCompiles = static_cast<double>(realCompiles);
    l.stitchMs = stitchMs.mean() * ms;
    l.simulateMs = simMs.mean() * ms;
    l.instructions = static_cast<double>(instructions) / tracedRounds;
    l.mips = simUs > 0 ? static_cast<double>(instructions) / simUs : 0.0;
    l.renderMs = renderMs.mean();
    l.reportKb = repKb.mean();
    l.unattributedPct = percent(uncovered, latencySum);
    l.overheadPct = percent(tracedCpuPerJob - untracedCpu, untracedCpu);
    out.perLayer = layerMetrics(l);
    return out;
}

} // namespace

RunOutcome
runWorkload(const RunOptions &options)
{
    if (options.workload == "hot_hits")
        return runFleet(options,
                        hotHitsPlan(options.seed, options.seconds));
    if (options.workload == "unique_sims")
        return runFleet(options, uniqueSimsPlan(options.seed));
    return runColdStart(options);
}

} // namespace fleetbench
