#include "mem/cache.hh"

#include "common/logging.hh"
#include "obs/trace.hh"

namespace stitch::mem
{

Cache::Cache(const CacheParams &params)
    : params_(params),
      reads_(stats_.counter("reads")),
      writes_(stats_.counter("writes")),
      hits_(stats_.counter("hits")),
      misses_(stats_.counter("misses")),
      refills_(stats_.counter("refills")),
      writebacks_(stats_.counter("writebacks"))
{
    STITCH_ASSERT(params.blockBytes > 0 &&
                  (params.blockBytes & (params.blockBytes - 1)) == 0,
                  "block size must be a power of two");
    STITCH_ASSERT(params.assoc > 0);
    std::uint32_t blocks = params.sizeBytes / params.blockBytes;
    STITCH_ASSERT(blocks % params.assoc == 0,
                  "cache geometry does not divide evenly");
    numSets_ = blocks / params.assoc;
    STITCH_ASSERT((numSets_ & (numSets_ - 1)) == 0,
                  "set count must be a power of two");
    blockShift_ = 0;
    while ((1u << blockShift_) < params.blockBytes)
        ++blockShift_;
    tagShift_ = blockShift_;
    while ((1u << (tagShift_ - blockShift_)) < numSets_)
        ++tagShift_;
    lines_.resize(static_cast<std::size_t>(numSets_) * params.assoc);
}

CacheAccessResult
Cache::fill(Line *base, Addr tag, bool isWrite, Addr a, Cycles now)
{
    // Miss: fill an invalid way if one exists, else the LRU way
    // (write-allocate).
    ++misses_;
    Line *victim = nullptr;
    for (std::uint32_t way = 0; way < params_.assoc; ++way) {
        Line &line = base[way];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (!victim || line.lastUse < victim->lastUse)
            victim = &line;
    }

    bool writeback = victim->valid && victim->dirty;
    if (victim->valid)
        ++refills_;
    if (writeback)
        ++writebacks_;
    if (tracer_) {
        tracer_->instant(obs::Tracer::pidTiles, traceTile_,
                         traceMiss_.c_str(), now, {{"addr", a}});
        if (writeback)
            tracer_->instant(obs::Tracer::pidTiles, traceTile_,
                             traceWriteback_.c_str(), now,
                             {{"addr", a}});
    }
    victim->valid = true;
    victim->dirty = isWrite;
    victim->tag = tag;
    victim->lastUse = useClock_;
    return CacheAccessResult{false, writeback};
}

void
Cache::setTracer(obs::Tracer *tracer, int tile, const char *name)
{
    tracer_ = tracer;
    traceTile_ = tile;
    traceMiss_ = std::string(name) + " miss";
    traceWriteback_ = std::string(name) + " writeback";
}

bool
Cache::probe(Addr a) const
{
    std::uint32_t set = setOf(a);
    Addr tag = tagOf(a);
    const Line *base = &lines_[static_cast<std::size_t>(set) * params_.assoc];
    for (std::uint32_t way = 0; way < params_.assoc; ++way)
        if (base[way].valid && base[way].tag == tag)
            return true;
    return false;
}

void
Cache::flush()
{
    for (auto &line : lines_)
        line = Line{};
    useClock_ = 0;
}

} // namespace stitch::mem
