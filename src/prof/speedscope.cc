#include "prof/speedscope.hh"

#include "obs/sampler.hh"

namespace stitch::prof
{

namespace
{

/** One sampled-profile entry; samples are single-frame stacks. */
struct SampleSink
{
    obs::Json samples = obs::Json::array();
    obs::Json weights = obs::Json::array();
    std::uint64_t total = 0;

    void
    add(int frame, std::uint64_t weight)
    {
        if (weight == 0)
            return;
        obs::Json stack = obs::Json::array();
        stack.push(static_cast<std::uint64_t>(frame));
        samples.push(stack);
        weights.push(weight);
        total += weight;
    }
};

obs::Json
profileEntry(const std::string &name, SampleSink &&sink)
{
    obs::Json pj = obs::Json::object();
    pj.set("type", "sampled");
    pj.set("name", name);
    pj.set("unit", "none"); // weights are simulated cycles
    pj.set("startValue", std::uint64_t{0});
    pj.set("endValue", sink.total);
    pj.set("samples", sink.samples);
    pj.set("weights", sink.weights);
    return pj;
}

} // namespace

obs::Json
speedscopeDocument(const Profile &p, const obs::Sampler &timeline,
                   const std::string &name)
{
    obs::Json doc = obs::Json::object();
    doc.set("$schema",
            "https://www.speedscope.app/file-format-schema.json");
    doc.set("name", name);
    doc.set("exporter", "stitch-sim");
    doc.set("activeProfileIndex", std::uint64_t{0});

    obs::Json frames = obs::Json::array();
    for (int b = 0; b < sim::numCycleBuckets; ++b) {
        obs::Json fj = obs::Json::object();
        fj.set("name", sim::cycleBucketName(
                           static_cast<sim::CycleBucket>(b)));
        frames.push(fj);
    }
    obs::Json shared = obs::Json::object();
    shared.set("frames", frames);
    doc.set("shared", shared);


    obs::Json profiles = obs::Json::array();
    for (const TileProfile &tp : p.tiles) {
        std::string title = "tile" + std::to_string(tp.tile);
        if (!tp.stage.empty())
            title += " " + tp.stage;
        SampleSink sink;
        auto windows = timeline.tracks().find(tp.tile);
        if (windows != timeline.tracks().end()) {
            for (const auto &w : windows->second)
                for (int b = 0; b < sim::numCycleBuckets; ++b)
                    sink.add(b,
                             w.cycles[static_cast<std::size_t>(b)]);
        } else {
            for (int b = 0; b < sim::numCycleBuckets; ++b)
                sink.add(b,
                         tp.buckets[static_cast<std::size_t>(b)]);
        }
        profiles.push(profileEntry(title, std::move(sink)));
    }
    doc.set("profiles", profiles);
    return doc;
}

void
writeSpeedscope(const std::string &path, const Profile &p,
                const obs::Sampler &timeline, const std::string &name)
{
    obs::writeJsonFile(path, speedscopeDocument(p, timeline, name));
}

} // namespace stitch::prof
