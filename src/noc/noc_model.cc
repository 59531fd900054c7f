#include "noc/noc_model.hh"

#include "common/logging.hh"
#include "common/table.hh"
#include "obs/trace.hh"

namespace stitch::noc
{

NocModel::NocModel(const NocParams &params, obs::Tracer *tracer)
    : params_(params), tracer_(tracer),
      linkFree_(static_cast<std::size_t>(numLinks), 0),
      linkBusy_(static_cast<std::size_t>(numLinks), 0),
      rxQueues_(static_cast<std::size_t>(numTiles)),
      packets_(stats_.counter("packets")),
      delivered_(stats_.counter("delivered")),
      linkStalls_(stats_.counter("link_stall_cycles"))
{
}

std::string
NocModel::linkName(int link)
{
    static const char *dirs[] = {"N", "E", "S", "W"};
    return strformat("t%d%s", link / 4, dirs[link % 4]);
}

int
NocModel::linkId(TileId from, TileId to) const
{
    STITCH_ASSERT(tileDistance(from, to) == 1,
                  "link between non-adjacent tiles");
    int dir;
    if (tileRow(to) == tileRow(from) - 1)
        dir = 0; // north
    else if (tileCol(to) == tileCol(from) + 1)
        dir = 1; // east
    else if (tileRow(to) == tileRow(from) + 1)
        dir = 2; // south
    else
        dir = 3; // west
    return from * 4 + dir;
}

std::vector<TileId>
NocModel::xyRoute(TileId src, TileId dst) const
{
    std::vector<TileId> route{src};
    TileId at = src;
    // X first, then Y (dimension-ordered routing; deadlock free).
    while (tileCol(at) != tileCol(dst)) {
        at += tileCol(at) < tileCol(dst) ? 1 : -1;
        route.push_back(at);
    }
    while (tileRow(at) != tileRow(dst)) {
        at += tileRow(at) < tileRow(dst) ? meshDim : -meshDim;
        route.push_back(at);
    }
    return route;
}

Cycles
NocModel::baseLatency(TileId src, TileId dst) const
{
    auto hops = static_cast<Cycles>(tileDistance(src, dst));
    return params_.nicInject +
           hops * (params_.routerStages + params_.linkCycles) +
           static_cast<Cycles>(params_.dataFlits - 1) + params_.nicEject;
}

Cycles
NocModel::send(TileId src, TileId dst, int tag, Word value, Cycles now)
{
    return send(src, dst, tag, value, now, 0);
}

Cycles
NocModel::send(TileId src, TileId dst, int tag, Word value, Cycles now,
               Cycles extraLatency)
{
    STITCH_ASSERT(src >= 0 && src < numTiles, "bad source tile ", src);
    if (dst < 0 || dst >= numTiles)
        fatal("SEND to invalid tile ", dst);
    ++packets_;

    Cycles head = now + params_.nicInject;
    if (src != dst) {
        auto route = xyRoute(src, dst);
        for (std::size_t i = 0; i + 1 < route.size(); ++i) {
            int link = linkId(route[i], route[i + 1]);
            Cycles start = head;
            auto &freeAt = linkFree_[static_cast<std::size_t>(link)];
            if (freeAt > start) {
                linkStalls_ += freeAt - start;
                start = freeAt;
            }
            freeAt = start + static_cast<Cycles>(params_.dataFlits);
            linkBusy_[static_cast<std::size_t>(link)] +=
                static_cast<Cycles>(params_.dataFlits);
            head = start + params_.routerStages + params_.linkCycles;
        }
    }
    Cycles arrival = head + static_cast<Cycles>(params_.dataFlits - 1) +
                     params_.nicEject + extraLatency;

    if (tracer_) {
        // One slice per packet on the source tile's NoC row, spanning
        // injection to arrival at the destination NIC.
        tracer_->slice(
            obs::Tracer::pidNoc, src,
            src == dst ? "pkt local" : "pkt", now, arrival,
            {{"src", static_cast<std::uint64_t>(src)},
             {"dst", static_cast<std::uint64_t>(dst)},
             {"tag", static_cast<std::uint64_t>(tag)}});
    }

    rxQueues_[static_cast<std::size_t>(dst)].push_back(
        Message{src, tag, value, arrival});

    // The sender only pays the injection overhead; delivery proceeds
    // in the background (asynchronous send).
    return params_.nicInject;
}

std::optional<std::pair<Word, Cycles>>
NocModel::tryRecv(TileId dst, TileId src, int tag)
{
    STITCH_ASSERT(dst >= 0 && dst < numTiles);
    auto &queue = rxQueues_[static_cast<std::size_t>(dst)];
    for (auto it = queue.begin(); it != queue.end(); ++it) {
        if (it->src == src && it->tag == tag) {
            auto out = std::make_pair(it->value, it->arrival);
            queue.erase(it);
            ++delivered_;
            return out;
        }
    }
    return std::nullopt;
}

void
NocModel::reset()
{
    for (auto &f : linkFree_)
        f = 0;
    for (auto &b : linkBusy_)
        b = 0;
    for (auto &q : rxQueues_)
        q.clear();
}

bool
NocModel::hasPendingMessages() const
{
    for (const auto &q : rxQueues_)
        if (!q.empty())
            return true;
    return false;
}

} // namespace stitch::noc
