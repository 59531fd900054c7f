#include "telem/span.hh"

#include <algorithm>
#include <map>

#include "common/table.hh"
#include "obs/trace.hh"

namespace stitch::telem
{

const char *
stageName(Stage stage)
{
    switch (stage) {
    case Stage::Submit: return "submit";
    case Stage::Queue: return "queue";
    case Stage::Claim: return "claim";
    case Stage::CacheProbe: return "cache_probe";
    case Stage::Compile: return "compile";
    case Stage::Stitch: return "stitch";
    case Stage::Simulate: return "simulate";
    case Stage::Report: return "report";
    case Stage::Respond: return "respond";
    case Stage::Backoff: return "backoff";
    case Stage::Job: return "job";
    }
    return "?";
}

std::uint64_t
traceIdFor(std::uint64_t seed, std::uint64_t index)
{
    // splitmix64: advance by the golden-ratio gamma, then finalize.
    // The finalizer is a bijection, so for a fixed seed distinct
    // indices can never collide.
    std::uint64_t z = seed + (index + 1) * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::string
traceIdHex(std::uint64_t traceId)
{
    return strformat("%016llx",
                     static_cast<unsigned long long>(traceId));
}

SpanSink::SpanSink() : epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t
SpanSink::nowUs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

void
SpanSink::record(const Span &span)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(span);
    }
    if (observer_)
        observer_(span);
}

void
SpanSink::setObserver(std::function<void(const Span &)> observer)
{
    observer_ = std::move(observer);
}

std::size_t
SpanSink::count() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::vector<Span>
SpanSink::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

void
SpanSink::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
}

void
SpanSink::writeChromeTrace(const std::string &path) const
{
    std::vector<Span> spans = snapshot();
    // Stable viewer layout: one lane per job, spans in time order
    // within the lane so the envelope comes out before its stages.
    std::sort(spans.begin(), spans.end(),
              [](const Span &a, const Span &b) {
                  if (a.jobId != b.jobId)
                      return a.jobId < b.jobId;
                  if (a.startUs != b.startUs)
                      return a.startUs < b.startUs;
                  return a.endUs > b.endUs; // envelope first
              });

    obs::Tracer tracer(path);
    int namedUpTo = -1;
    for (const Span &span : spans) {
        if (span.jobId > namedUpTo) {
            for (int id = namedUpTo + 1; id <= span.jobId; ++id)
                tracer.nameTrack(obs::Tracer::pidSvc, id,
                                 strformat("job%03d", id));
            namedUpTo = span.jobId;
        }
        tracer.slice(
            obs::Tracer::pidSvc, span.jobId, stageName(span.stage),
            span.startUs, span.endUs,
            {{"trace_hi", span.traceId >> 32},
             {"trace_lo", span.traceId & 0xffffffffull},
             {"worker",
              static_cast<std::uint64_t>(span.worker < 0
                                             ? 0xffffffffu
                                             : static_cast<unsigned>(
                                                   span.worker))}});
    }
}

void
SpanSink::writeJsonl(const std::string &path) const
{
    std::FILE *out = obs::openArtifactFile(path);
    for (const Span &span : snapshot()) {
        obs::Json line = obs::Json::object();
        line.set("trace_id", traceIdHex(span.traceId));
        line.set("job", span.jobId);
        line.set("stage", stageName(span.stage));
        line.set("start_us", span.startUs);
        line.set("dur_us", span.durationUs());
        if (span.worker >= 0)
            line.set("worker", span.worker);
        const std::string text = line.dump();
        std::fwrite(text.data(), 1, text.size(), out);
        std::fputc('\n', out);
    }
    std::fclose(out);
}

} // namespace stitch::telem
