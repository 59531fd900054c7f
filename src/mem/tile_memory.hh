/**
 * @file
 * The per-tile memory system: private DRAM behind split I/D caches,
 * plus the 4 KB scratchpad (paper Table II).
 */

#ifndef STITCH_MEM_TILE_MEMORY_HH
#define STITCH_MEM_TILE_MEMORY_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/addrmap.hh"
#include "mem/cache.hh"
#include "mem/sparse_memory.hh"

namespace stitch::mem
{

/** Memory-system configuration of one tile. */
struct MemParams
{
    CacheParams icache{8192, 2, 64};  ///< 2-way 8 KB I-cache
    CacheParams dcache{4096, 2, 64};  ///< 2-way 4 KB D-cache
    bool hasSpm = true;               ///< Stitch tiles have the SPM;
                                      ///< the baseline swaps it for a
                                      ///< larger D-cache
    Cycles dramCycles = 30;           ///< DRAM access latency
    Cycles spmCycles = 1;             ///< SPM access latency
};

/** Value + additional stall cycles beyond the base instruction cycle. */
struct MemResult
{
    Word value = 0;
    Cycles extraCycles = 0;
};

/**
 * One tile's memory. The sequencer role of Section III-C lives here:
 * addresses are routed to the SPM window or the cached DRAM space.
 */
class TileMemory
{
  public:
    explicit TileMemory(const MemParams &params = MemParams{});

    /**
     * Data-side accesses (loads charge latency, return data). `now`
     * is the accessing core's local time, used only to timestamp
     * cache trace events; callers without a clock may omit it.
     */
    MemResult loadWord(Addr a, Cycles now = 0);
    MemResult loadByte(Addr a, Cycles now = 0); ///< sign-extended
    Cycles storeWord(Addr a, Word v, Cycles now = 0);
    Cycles storeByte(Addr a, std::uint8_t v, Cycles now = 0);

    /**
     * Instruction-side access: charge the I-cache for fetching
     * `words` instruction words starting at word address `wa`.
     */
    Cycles fetch(Addr wa, int words, Cycles now = 0);

    /** Record cache misses on `tile`'s track of `tracer` (null: off). */
    void setTracer(obs::Tracer *tracer, int tile);

    // -----------------------------------------------------------------
    // Compiled-backend fast paths (src/jit/). Each is the body of one
    // already-routed arm of the generic accessors above: the caller's
    // inline cache has proven the address class (isSpmAddr /
    // isDramAddr), so the route test is skipped but every counter and
    // range check of the generic path still fires. Byte-equivalent to
    // the generic accessor on in-class addresses by construction.
    // -----------------------------------------------------------------

    /** loadWord's SPM arm: caller has established isSpmAddr(a). */
    MemResult
    spmLoadWordFast(Addr a)
    {
        ++spmReads_;
        return MemResult{spmLoadWord(a), params_.spmCycles - 1};
    }

    /** loadByte's SPM arm: caller has established isSpmAddr(a). */
    MemResult
    spmLoadByteFast(Addr a)
    {
        ++spmReads_;
        const std::uint8_t *p = &spm_[a - spmBase];
        auto v = static_cast<Word>(
            static_cast<std::int32_t>(static_cast<std::int8_t>(*p)));
        return MemResult{v, params_.spmCycles - 1};
    }

    /** storeWord's SPM arm: caller has established isSpmAddr(a). */
    Cycles
    spmStoreWordFast(Addr a, Word v)
    {
        ++spmWrites_;
        spmStoreWord(a, v);
        return params_.spmCycles - 1;
    }

    /** storeByte's SPM arm: caller has established isSpmAddr(a). */
    Cycles
    spmStoreByteFast(Addr a, std::uint8_t v)
    {
        ++spmWrites_;
        spm_[a - spmBase] = v;
        return params_.spmCycles - 1;
    }

    /** loadWord's cached-DRAM arm: caller established isDramAddr(a). */
    MemResult
    dramLoadWordFast(Addr a, Cycles now)
    {
        Cycles extra = dcacheAccess(a, false, now);
        return MemResult{dram_.readWord(a), extra};
    }

    /** loadByte's cached-DRAM arm: caller established isDramAddr(a). */
    MemResult
    dramLoadByteFast(Addr a, Cycles now)
    {
        Cycles extra = dcacheAccess(a, false, now);
        auto v = static_cast<Word>(static_cast<std::int32_t>(
            static_cast<std::int8_t>(dram_.readByte(a))));
        return MemResult{v, extra};
    }

    /** storeWord's cached-DRAM arm: caller established isDramAddr(a). */
    Cycles
    dramStoreWordFast(Addr a, Word v, Cycles now)
    {
        Cycles extra = dcacheAccess(a, true, now);
        dram_.writeWord(a, v);
        return extra;
    }

    /** storeByte's cached-DRAM arm: caller established isDramAddr(a). */
    Cycles
    dramStoreByteFast(Addr a, std::uint8_t v, Cycles now)
    {
        Cycles extra = dcacheAccess(a, true, now);
        dram_.writeByte(a, v);
        return extra;
    }

    /**
     * One I-cache block probe of fetch(), for a trace's first touch of
     * `blockAddr` (byte address, block aligned): the miss stall, 0 on
     * hit.
     */
    Cycles
    icacheBlockFetch(Addr blockAddr, Cycles now)
    {
        return icache_.access(blockAddr, false, now).hit
                   ? 0
                   : params_.dramCycles;
    }

    /** Fetch compression: `n` guaranteed re-hits on the last block. */
    void
    icacheRepeatHits(std::uint64_t n)
    {
        icache_.repeatReadHits(n);
    }

    /** Zero-latency SPM port used by the patch LMAU (Section III-C). */
    Word
    spmLoadWord(Addr a) const
    {
        const std::uint8_t *p = spmBytePtr(a);
        return static_cast<Word>(p[0]) |
               (static_cast<Word>(p[1]) << 8) |
               (static_cast<Word>(p[2]) << 16) |
               (static_cast<Word>(p[3]) << 24);
    }
    void
    spmStoreWord(Addr a, Word v)
    {
        std::uint8_t *p = spmBytePtr(a);
        p[0] = static_cast<std::uint8_t>(v & 0xff);
        p[1] = static_cast<std::uint8_t>((v >> 8) & 0xff);
        p[2] = static_cast<std::uint8_t>((v >> 16) & 0xff);
        p[3] = static_cast<std::uint8_t>((v >> 24) & 0xff);
    }

    /** Direct (no timing) backing-store access for loaders/checkers. */
    SparseMemory &backing() { return dram_; }
    const SparseMemory &backing() const { return dram_; }

    /** Direct SPM image access for loaders/checkers. */
    Word spmPeek(Addr offset) const;
    void spmPoke(Addr offset, Word v);

    /** Reset caches (fresh program run); memory contents persist. */
    void flushCaches();

    /** Zero this memory's and both caches' counters (fresh run). */
    void resetStats();

    const MemParams &params() const { return params_; }
    Cache &icache() { return icache_; }
    Cache &dcache() { return dcache_; }
    StatGroup &stats() { return stats_; }

  private:
    Cycles
    dcacheAccess(Addr a, bool isWrite, Cycles now)
    {
        auto res = dcache_.access(a, isWrite, now);
        Cycles extra = 0;
        if (!res.hit)
            extra += params_.dramCycles;
        if (res.writeback)
            extra += params_.dramCycles;
        return extra;
    }

    /**
     * SPM byte pointer with range check (inline: this is every SPM
     * access's address path). A user-level range violation — e.g. an
     * injected CUST bit flip feeding an SPM pointer — must terminate
     * the run as a typed Fault like the unmapped-address paths, not
     * abort the process; the out-of-line slow path raises it.
     */
    std::uint8_t *
    spmBytePtr(Addr a)
    {
        // 64-bit offset: an address just below spmBase must fail the
        // bound, not wrap back into range.
        std::uint64_t off =
            static_cast<std::uint64_t>(a) - spmBase;
        if (off + 3 < spm_.size())
            return &spm_[static_cast<std::size_t>(off)];
        spmRangeError(a);
    }
    const std::uint8_t *
    spmBytePtr(Addr a) const
    {
        return const_cast<TileMemory *>(this)->spmBytePtr(a);
    }

    [[noreturn]] void spmRangeError(Addr a) const;

    MemParams params_;
    SparseMemory dram_;
    Cache icache_;
    Cache dcache_;
    std::vector<std::uint8_t> spm_;
    StatGroup stats_;
    Counter &spmReads_;  ///< cached handles; see StatGroup::counter
    Counter &spmWrites_;
};

} // namespace stitch::mem

#endif // STITCH_MEM_TILE_MEMORY_HH
