#include "mem/tile_memory.hh"

#include "common/logging.hh"

namespace stitch::mem
{

TileMemory::TileMemory(const MemParams &params)
    : params_(params),
      icache_(params.icache),
      dcache_(params.dcache),
      spm_(params.hasSpm ? spmSize : 0, 0),
      spmReads_(stats_.counter("spm_reads")),
      spmWrites_(stats_.counter("spm_writes"))
{
}

void
TileMemory::setTracer(obs::Tracer *tracer, int tile)
{
    icache_.setTracer(tracer, tile, "icache");
    dcache_.setTracer(tracer, tile, "dcache");
}

void
TileMemory::spmRangeError(Addr a) const
{
    STITCH_ASSERT(!spm_.empty(), "SPM access on a tile without an SPM");
    fatal("SPM access out of range: ", a);
}

MemResult
TileMemory::loadWord(Addr a, Cycles now)
{
    if (isSpmAddr(a)) {
        ++spmReads_;
        // SPM is 1-cycle, which is the base instruction cycle: no
        // extra stall beyond it (spmCycles - 1).
        return MemResult{spmLoadWord(a), params_.spmCycles - 1};
    }
    if (!isDramAddr(a))
        fatal("load from unmapped address ", a);
    Cycles extra = dcacheAccess(a, false, now);
    return MemResult{dram_.readWord(a), extra};
}

MemResult
TileMemory::loadByte(Addr a, Cycles now)
{
    if (isSpmAddr(a)) {
        ++spmReads_;
        const std::uint8_t *p = &spm_[a - spmBase];
        auto v = static_cast<Word>(
            static_cast<std::int32_t>(static_cast<std::int8_t>(*p)));
        return MemResult{v, params_.spmCycles - 1};
    }
    if (!isDramAddr(a))
        fatal("load from unmapped address ", a);
    Cycles extra = dcacheAccess(a, false, now);
    auto v = static_cast<Word>(static_cast<std::int32_t>(
        static_cast<std::int8_t>(dram_.readByte(a))));
    return MemResult{v, extra};
}

Cycles
TileMemory::storeWord(Addr a, Word v, Cycles now)
{
    if (isSpmAddr(a)) {
        ++spmWrites_;
        spmStoreWord(a, v);
        return params_.spmCycles - 1;
    }
    if (!isDramAddr(a))
        fatal("store to unmapped address ", a);
    Cycles extra = dcacheAccess(a, true, now);
    dram_.writeWord(a, v);
    return extra;
}

Cycles
TileMemory::storeByte(Addr a, std::uint8_t v, Cycles now)
{
    if (isSpmAddr(a)) {
        ++spmWrites_;
        spm_[a - spmBase] = v;
        return params_.spmCycles - 1;
    }
    if (!isDramAddr(a))
        fatal("store to unmapped address ", a);
    Cycles extra = dcacheAccess(a, true, now);
    dram_.writeByte(a, v);
    return extra;
}

Cycles
TileMemory::fetch(Addr wa, int words, Cycles now)
{
    Cycles extra = 0;
    Addr first = codeBase + wa * 4;
    Addr last = first + static_cast<Addr>(words - 1) * 4;
    Addr block = params_.icache.blockBytes;
    // One access per block touched (a two-word CUST can straddle).
    for (Addr a = first / block * block; a <= last; a += block) {
        auto res = icache_.access(a, false, now);
        if (!res.hit)
            extra += params_.dramCycles;
    }
    return extra;
}

Word
TileMemory::spmPeek(Addr offset) const
{
    return spmLoadWord(spmBase + offset);
}

void
TileMemory::spmPoke(Addr offset, Word v)
{
    spmStoreWord(spmBase + offset, v);
}

void
TileMemory::flushCaches()
{
    icache_.flush();
    dcache_.flush();
}

void
TileMemory::resetStats()
{
    stats_.reset();
    icache_.stats().reset();
    dcache_.stats().reset();
}

} // namespace stitch::mem
