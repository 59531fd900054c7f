/**
 * @file
 * The conventional inter-core NoC (paper Table II: 2-D mesh, XY
 * routing, 5-stage routers, 1-cycle links, 1-flit control / 5-flit
 * data packets) and the MPI-lite message-passing layer on top of it.
 *
 * This network is entirely separate from the compiler-scheduled
 * inter-patch sNoC (core/snoc.hh): this one moves application
 * messages between cores with routers and buffering; that one moves
 * custom-instruction operands between patches with bare wires.
 *
 * Timing: a one-word message is a 5-flit data packet. Uncontended
 * latency is nicInject + hops*(routerStages + linkCycles) +
 * (flits - 1) serialization + nicEject. Contention is modelled by
 * per-link reservation: each mesh link carries one flit per cycle, so
 * a packet claims every link on its XY route for `flits` cycles and
 * queues behind earlier packets.
 */

#ifndef STITCH_NOC_NOC_MODEL_HH
#define STITCH_NOC_NOC_MODEL_HH

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "cpu/core.hh"

namespace stitch::noc
{

/** Configuration of the inter-core network. */
struct NocParams
{
    Cycles routerStages = 5; ///< pipeline depth of each router
    Cycles linkCycles = 1;   ///< per-hop wire latency
    int dataFlits = 5;       ///< flits per one-word data packet
    Cycles nicInject = 2;    ///< NIC overhead at the sender
    Cycles nicEject = 2;     ///< NIC overhead at the receiver
};

/**
 * The mesh network + per-tile NIC receive queues. Implements the
 * MessageHub interface consumed by cpu::Core.
 */
class NocModel : public cpu::MessageHub
{
  public:
    /** `tracer` (null = off) records one slice per packet. */
    explicit NocModel(const NocParams &params = NocParams{},
                      obs::Tracer *tracer = nullptr);

    Cycles send(TileId src, TileId dst, int tag, Word value,
                Cycles now) override;

    /**
     * Like send(), but the packet arrives `extraLatency` cycles late.
     * The fault layer uses this to model transient congestion or a
     * glitching router; zero is exactly the plain send().
     */
    Cycles send(TileId src, TileId dst, int tag, Word value,
                Cycles now, Cycles extraLatency);

    std::optional<std::pair<Word, Cycles>>
    tryRecv(TileId dst, TileId src, int tag) override;

    /** Uncontended end-to-end latency between two tiles. */
    Cycles baseLatency(TileId src, TileId dst) const;

    /** Directed links modelled (4 per tile; edge links stay idle). */
    static constexpr int numLinks = numTiles * 4;

    /**
     * Cycles each directed link spent carrying flits, indexed by the
     * internal link id (tile * 4 + direction). Divide by the run's
     * makespan for link utilization.
     */
    const std::vector<Cycles> &linkBusyCycles() const
    {
        return linkBusy_;
    }

    /** Human-readable "t3→t7" label of a link id. */
    static std::string linkName(int link);

    /** Drop all queued messages and link reservations. */
    void reset();

    /** True if any message is queued anywhere (leak check). */
    bool hasPendingMessages() const;

    const NocParams &params() const { return params_; }
    StatGroup &stats() { return stats_; }

  private:
    struct Message
    {
        TileId src;
        int tag;
        Word value;
        Cycles arrival;
    };

    /** Directed link id: 2 links per adjacent tile pair. */
    int linkId(TileId from, TileId to) const;

    /** XY route from src to dst as a tile sequence. */
    std::vector<TileId> xyRoute(TileId src, TileId dst) const;

    NocParams params_;
    obs::Tracer *tracer_;
    std::vector<Cycles> linkFree_; ///< next free cycle per link
    std::vector<Cycles> linkBusy_; ///< flit-carrying cycles per link
    std::vector<std::deque<Message>> rxQueues_; ///< per destination
    StatGroup stats_;
    Counter &packets_;    ///< cached handles; see StatGroup::counter
    Counter &delivered_;
    Counter &linkStalls_;
};

} // namespace stitch::noc

#endif // STITCH_NOC_NOC_MODEL_HH
