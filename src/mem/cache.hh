/**
 * @file
 * Set-associative cache timing model (tags + LRU only).
 *
 * Stitch separates function from timing the way gem5's atomic mode
 * does: data always lives in the tile's backing store; the cache model
 * tracks tags and replacement to charge hit/miss latency. With a
 * single in-order core per private memory this is exact.
 */

#ifndef STITCH_MEM_CACHE_HH
#define STITCH_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace stitch::obs
{
class Tracer;
}

namespace stitch::mem
{

/** Static configuration of one cache. */
struct CacheParams
{
    std::uint32_t sizeBytes = 4096;
    std::uint32_t assoc = 2;
    std::uint32_t blockBytes = 64;
};

/** Result of a cache access. */
struct CacheAccessResult
{
    bool hit = false;
    bool writeback = false; ///< a dirty block was evicted
};

/**
 * Tag store with true-LRU replacement and write-back/write-allocate
 * policy (paper Table II: 2-way, 64 B blocks, LRU).
 */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Probe and update state for an access. `now` is the accessing
     * core's local time; it timestamps miss/refill trace events and
     * may be zero when no one is tracing (standalone tools). The hit
     * path lives here so per-access callers inline it; misses take
     * the out-of-line fill path.
     */
    CacheAccessResult
    access(Addr a, bool isWrite, Cycles now = 0)
    {
        ++useClock_;
        std::uint32_t set = setOf(a);
        Addr tag = tagOf(a);
        Line *base =
            &lines_[static_cast<std::size_t>(set) * params_.assoc];
        ++(isWrite ? writes_ : reads_);
        for (std::uint32_t way = 0; way < params_.assoc; ++way) {
            Line &line = base[way];
            if (line.valid && line.tag == tag) {
                line.lastUse = useClock_;
                line.dirty = line.dirty || isWrite;
                ++hits_;
                return CacheAccessResult{true, false};
            }
        }
        return fill(base, tag, isWrite, a, now);
    }

    /**
     * Account `n` reads that are guaranteed hits on blocks already
     * touched since the last access to any other line of their set —
     * the compiled backend's fetch compression (src/jit/): a trace
     * touches its code blocks in monotone address order, so every
     * re-access of an already-touched block precedes the first access
     * of any later block and cannot change LRU victim selection.
     * Counter-equivalent to `n` access() hits; skips the tag probe.
     */
    void
    repeatReadHits(std::uint64_t n)
    {
        useClock_ += n;
        reads_ += n;
        hits_ += n;
    }

    /**
     * Record this cache's misses on `tile`'s track of `tracer` (null:
     * stop tracing). `name` ("icache", "dcache") labels the events.
     */
    void setTracer(obs::Tracer *tracer, int tile, const char *name);

    /** True if `a` currently hits without changing state. */
    bool probe(Addr a) const;

    /** Invalidate everything (program reload). */
    void flush();

    std::uint32_t numSets() const { return numSets_; }
    const CacheParams &params() const { return params_; }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t lastUse = 0;
    };

    std::uint32_t
    setOf(Addr a) const
    {
        return (a >> blockShift_) & (numSets_ - 1);
    }
    Addr
    tagOf(Addr a) const
    {
        return a >> tagShift_;
    }

    /** Miss path of access(): victim choice, eviction, refill. */
    CacheAccessResult fill(Line *base, Addr tag, bool isWrite, Addr a,
                           Cycles now);

    CacheParams params_;
    std::uint32_t numSets_;
    std::uint32_t blockShift_; ///< log2(blockBytes); both divisors are
    std::uint32_t tagShift_;   ///< blockShift_ + log2(numSets_) (ctor
                               ///< asserts powers of two)
    std::vector<Line> lines_;    ///< numSets_ x assoc, row major
    std::uint64_t useClock_ = 0;
    StatGroup stats_;

    // Cached counter handles: access() runs per load/store, so it
    // must not pay a map lookup per event (see StatGroup::counter).
    Counter &reads_;
    Counter &writes_;
    Counter &hits_;
    Counter &misses_;
    Counter &refills_;
    Counter &writebacks_;

    obs::Tracer *tracer_ = nullptr; ///< null: untraced
    int traceTile_ = -1; ///< tile track of the miss events
    std::string traceMiss_;
    std::string traceWriteback_;
};

} // namespace stitch::mem

#endif // STITCH_MEM_CACHE_HH
