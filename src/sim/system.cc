#include "sim/system.hh"

#include <algorithm>

#include "common/logging.hh"
#include "isa/assembler.hh"
#include "obs/trace.hh"

namespace stitch::sim
{

const char *
cycleBucketName(CycleBucket b)
{
    switch (b) {
      case CycleBucket::Issue: return "issue";
      case CycleBucket::CustExecute: return "cust_execute";
      case CycleBucket::CacheMiss: return "cache_miss";
      case CycleBucket::Spm: return "spm";
      case CycleBucket::SendBlocked: return "send_blocked";
      case CycleBucket::RecvBlocked: return "recv_blocked";
    }
    STITCH_PANIC("bad CycleBucket");
}

const std::vector<std::string> &
cycleBucketNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (int b = 0; b < numCycleBuckets; ++b)
            v.push_back(cycleBucketName(static_cast<CycleBucket>(b)));
        return v;
    }();
    return names;
}

std::array<Cycles, numCycleBuckets>
cycleBuckets(const TileStats &ts)
{
    std::array<Cycles, numCycleBuckets> b{};
    // Every retired instruction (CUSTs included) costs one base
    // cycle; MULs add 3 iterations, taken branches 1 bubble. CUST
    // base cycles move to their own bucket.
    b[static_cast<int>(CycleBucket::Issue)] =
        ts.instructions - ts.customInstructions + 3 * ts.muls +
        ts.branchesTaken;
    b[static_cast<int>(CycleBucket::CustExecute)] =
        ts.customInstructions;
    b[static_cast<int>(CycleBucket::CacheMiss)] =
        ts.imissStallCycles + ts.dmissStallCycles;
    b[static_cast<int>(CycleBucket::Spm)] = ts.spmStallCycles;
    b[static_cast<int>(CycleBucket::SendBlocked)] = ts.sendStallCycles;
    b[static_cast<int>(CycleBucket::RecvBlocked)] = ts.recvWaitCycles;
    return b;
}

const char *
schedulerKindName(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::Step: return "step";
      case SchedulerKind::Slice: return "slice";
      case SchedulerKind::Compiled: return "compiled";
    }
    STITCH_PANIC("bad SchedulerKind");
}

SchedulerKind
schedulerKindFromName(const std::string &name)
{
    if (name == "step")
        return SchedulerKind::Step;
    if (name == "slice")
        return SchedulerKind::Slice;
    if (name == "compiled")
        return SchedulerKind::Compiled;
    throw fault::ConfigError(detail::formatMessage(
        "unknown scheduler '", name,
        "' (expected step, slice or compiled)"));
}

namespace
{

/**
 * Eager parameter validation: a malformed configuration is a typed
 * error at construction, not a mysterious crash mid-run.
 */
void
validateParams(const SystemParams &params)
{
    auto bad = [](auto &&...msg) {
        throw fault::ConfigError(
            detail::formatMessage("invalid SystemParams: ",
                                  std::forward<decltype(msg)>(msg)...));
    };
    auto checkCache = [&](const mem::CacheParams &c, const char *name) {
        if (c.blockBytes == 0 ||
            (c.blockBytes & (c.blockBytes - 1)) != 0)
            bad(name, " block size ", c.blockBytes,
                " is not a power of two");
        if (c.assoc < 1)
            bad(name, " needs at least one way");
        if (c.sizeBytes < c.blockBytes * c.assoc)
            bad(name, " of ", c.sizeBytes,
                " bytes cannot hold one set of ", c.assoc, " ways");
    };
    checkCache(params.mem.icache, "icache");
    checkCache(params.mem.dcache, "dcache");
    if (params.noc.dataFlits < 1)
        bad("a packet needs at least one flit");
    if (params.noc.routerStages < 1)
        bad("routers need at least one pipeline stage");
    params.faults.validate(); // throws ConfigError itself
    if (params.faults.anyHardFault() &&
        params.accel != AccelMode::Stitch)
        bad("patch / sNoC-link faults require the Stitch fabric");
}

} // namespace

System::System(const SystemParams &params)
    : params_(params), noc_(params.noc, params.tracer),
      injector_(/*deferred*/)
{
    validateParams(params_);
    injector_ = fault::FaultInjector(params_.faults);
    for (TileId t = 0; t < numTiles; ++t) {
        Tile &tile = tiles_[static_cast<std::size_t>(t)];
        tile.memory = std::make_unique<mem::TileMemory>(params_.mem);
        tile.core = std::make_unique<cpu::Core>(
            t, *tile.memory, this, this, params_.tracer);
        tile.spmPort =
            std::make_unique<cpu::TileSpmPort>(*tile.memory);
        if (params_.accel == AccelMode::Locus)
            tile.locus = std::make_unique<core::LocusSfu>();

        std::string prefix = "tile" + std::to_string(t) + ".";
        registry_.add(prefix + "core", tile.core->stats());
        registry_.add(prefix + "mem", tile.memory->stats());
        registry_.add(prefix + "icache",
                      tile.memory->icache().stats());
        registry_.add(prefix + "dcache",
                      tile.memory->dcache().stats());

        auto &ps = patchStats_[static_cast<std::size_t>(t)];
        auto &pc = patchCounters_[static_cast<std::size_t>(t)];
        pc.custs = &ps.counter("custom_instructions");
        pc.fused = &ps.counter("fused_custom_instructions");
        pc.spmLoads = &ps.counter("spm_loads");
        pc.spmStores = &ps.counter("spm_stores");
        pc.snocHops = &ps.counter("snoc_hops");
        if (params_.accel == AccelMode::Stitch)
            registry_.add(prefix + "patch", ps);

        StatGroup &cstats = tile.core->stats();
        auto &cc = coreCounters_[static_cast<std::size_t>(t)];
        cc.instructions = &cstats.counter("instructions");
        cc.custs = &cstats.counter("custom_instructions");
        cc.muls = &cstats.counter("muls");
        cc.branches = &cstats.counter("branches_taken");
        cc.imiss = &cstats.counter("imiss_stall_cycles");
        cc.dmiss = &cstats.counter("dmiss_stall_cycles");
        cc.spm = &cstats.counter("spm_stall_cycles");
        cc.send = &cstats.counter("send_stall_cycles");
        cc.recv = &cstats.counter("recv_wait_cycles");
    }
    registry_.add("noc", noc_.stats());
    snocFused_ = &snocStats_.counter("fused_transfers");
    snocHops_ = &snocStats_.counter("hops");
    if (params_.accel == AccelMode::Stitch)
        registry_.add("snoc", snocStats_);

    msgsDropped_ = &faultStats_.counter("messages_dropped");
    msgsDelayed_ = &faultStats_.counter("messages_delayed");
    bitFlips_ = &faultStats_.counter("cust_bit_flips");
    if (injector_.active())
        registry_.add("fault", faultStats_);
}

void
System::loadProgram(TileId t, const compiler::RewrittenProgram &binary)
{
    STITCH_ASSERT(t >= 0 && t < numTiles);
    Tile &tile = tiles_[static_cast<std::size_t>(t)];
    tile.core->loadProgram(binary.program);
    if (params_.accel == AccelMode::Locus)
        tile.locus->installTable(binary.microTable);
    else if (!binary.microTable.empty())
        throw fault::BinaryMismatchError(
            "LOCUS binary loaded on a non-LOCUS system");
    tile.loaded = true;
    tile.blocked = false;
    // Same per-run discipline as the core's own counters (see
    // Core::loadProgram): a reloaded tile reports only its new run.
    patchStats_[static_cast<std::size_t>(t)].reset();
}

void
System::setFusionPartner(TileId local, TileId remote)
{
    STITCH_ASSERT(params_.accel == AccelMode::Stitch,
                  "fusion requires the Stitch fabric");
    STITCH_ASSERT(local >= 0 && local < numTiles);
    STITCH_ASSERT(remote >= 0 && remote < numTiles && remote != local);
    tiles_[static_cast<std::size_t>(local)].fusionPartner = remote;
}

void
System::configureSnoc(const core::SnocConfig &snoc)
{
    STITCH_ASSERT(params_.accel == AccelMode::Stitch,
                  "the inter-patch NoC exists only in Stitch mode");
    std::string why;
    if (!snoc.validate(&why))
        throw fault::ConfigError("invalid sNoC configuration: " + why);
    // A preset that routes operands over a failed mesh link cannot
    // work on this hardware: reject it here, where the caller can
    // still re-stitch with the matching ArchHealth, rather than
    // corrupting fused CUSTs mid-run.
    for (const auto &link : params_.faults.snocLinksDown) {
        TileId n = core::neighbourOf(link.tile, link.dir);
        for (const auto &path : snoc.paths()) {
            for (std::size_t i = 0; i + 1 < path.tiles.size(); ++i) {
                TileId a = path.tiles[i];
                TileId b = path.tiles[i + 1];
                if ((a == link.tile && b == n) ||
                    (a == n && b == link.tile))
                    throw fault::ConfigError(detail::formatMessage(
                        "sNoC preset routes a path over failed link ",
                        link.name()));
            }
        }
    }
    // Mirror the compiler's preset into the memory-mapped crossbar
    // configuration registers (paper Section III-B): one store per
    // tile before the application launches.
    auto regs = snoc.packRegisters();
    for (TileId t = 0; t < numTiles; ++t) {
        isa::Assembler a("xbar-preset");
        a.li(isa::reg::t0, static_cast<std::int32_t>(
                               mem::xbarConfigAddr));
        a.li(isa::reg::t1, static_cast<std::int32_t>(
                               regs[static_cast<std::size_t>(t)]));
        a.sw(isa::reg::t1, isa::reg::t0, 0);
        a.halt();
        Tile &tile = tiles_[static_cast<std::size_t>(t)];
        tile.core->loadProgram(a.finish());
        tile.core->runToHalt();
        STITCH_ASSERT(tile.core->xbarConfigReg() ==
                          regs[static_cast<std::size_t>(t)],
                      "crossbar preset did not land");
        tile.loaded = false;
    }
    // Kept so fused CUSTs can attribute their routed sNoC hop counts
    // at simulation time.
    snocCfg_ = snoc;
}

void
System::pokeWord(TileId tile, Addr addr, Word value)
{
    STITCH_ASSERT(tile >= 0 && tile < numTiles);
    tiles_[static_cast<std::size_t>(tile)].memory->backing().writeWord(
        addr, value);
}

cpu::Core &
System::coreAt(TileId t)
{
    STITCH_ASSERT(t >= 0 && t < numTiles);
    return *tiles_[static_cast<std::size_t>(t)].core;
}

mem::TileMemory &
System::memoryAt(TileId t)
{
    STITCH_ASSERT(t >= 0 && t < numTiles);
    return *tiles_[static_cast<std::size_t>(t)].memory;
}

core::CustResult
System::executeCustom(TileId t, std::uint64_t blob,
                      const std::array<Word, 4> &in)
{
    Tile &tile = tiles_[static_cast<std::size_t>(t)];

    if (params_.accel == AccelMode::Locus)
        return tile.locus->executeCustom(t, blob, in);
    if (params_.accel == AccelMode::None)
        throw fault::BinaryMismatchError(detail::formatMessage(
            "CUST executed on the baseline system (tile ", t, ")"));

    auto cfg = core::FusedConfig::unpackBlob(blob);
    auto kind = params_.arch.kindOf(t);
    if (cfg.localKind != kind) {
        throw fault::BinaryMismatchError(detail::formatMessage(
            "tile ", t, " hosts ", core::patchKindName(kind),
            " but the binary expects ",
            core::patchKindName(cfg.localKind)));
    }

    // A hard-failed patch raises a structured fault instead of
    // silently corrupting; System::run converts it into
    // Termination::Fault so the harness can re-stitch around the
    // dead patch and fall back to the preserved software body.
    auto diePatch = [&](TileId patch, const char *reason) {
        fault::PatchFault pf;
        pf.tile = t;
        pf.patch = patch;
        pf.kind = params_.arch.kindOf(patch);
        pf.reason = reason;
        throw fault::PatchFaultError(std::move(pf));
    };
    if (injector_.patchDead(t))
        diePatch(t, "local patch failed");

    core::CustResult res;
    TileId partner = -1;
    if (!cfg.usesRemote) {
        res = core::executeCustom(cfg, in, *tile.spmPort, nullptr);
    } else {
        partner = tile.fusionPartner;
        if (partner < 0)
            throw fault::BinaryMismatchError(detail::formatMessage(
                "fused CUST on tile ", t,
                " without a stitched partner"));
        auto remoteKind = params_.arch.kindOf(partner);
        if (cfg.remoteKind != remoteKind) {
            throw fault::BinaryMismatchError(detail::formatMessage(
                "tile ", t, " stitched to ",
                core::patchKindName(remoteKind),
                " but binary expects ",
                core::patchKindName(cfg.remoteKind)));
        }
        if (injector_.patchDead(partner))
            diePatch(partner, "fused partner patch failed");
        // The mapper never places LMAU work on the remote patch, so
        // the remote SPM port stays disabled (NullSpmPort enforces).
        res = core::executeCustom(cfg, in, *tile.spmPort, &nullSpm_);
    }

    // Transient bit flips: the datapath produced a value, but one
    // output bit toggled in flight. The run continues — detecting the
    // corruption is the application's (or validation's) problem,
    // exactly like real silicon.
    if (auto bit = injector_.custFlipBit();
        bit && (res.writeRd0 || res.writeRd1)) {
        if (res.writeRd0)
            res.rd0 ^= Word{1} << *bit;
        else
            res.rd1 ^= Word{1} << *bit;
        ++*bitFlips_;
        if (params_.tracer) {
            params_.tracer->instant(
                obs::Tracer::pidTiles, t, "FAULT bit-flip",
                tile.core->time(),
                {{"bit", static_cast<std::uint64_t>(*bit)}});
        }
    }

    auto &pc = patchCounters_[static_cast<std::size_t>(t)];
    ++*pc.custs;
    *pc.spmLoads += res.spmLoads;
    *pc.spmStores += res.spmStores;
    if (res.usedRemote) {
        ++*pc.fused;
        ++*snocFused_;
        auto hops = static_cast<std::uint64_t>(
            snocCfg_.fusionHops(t, partner));
        *snocHops_ += hops;
        *pc.snocHops += hops;
    }
    return res;
}

Cycles
System::send(TileId src, TileId dst, int tag, Word value, Cycles now)
{
    if (injector_.active()) {
        if (injector_.dropMessage()) {
            // The packet dies in the network. The sender has already
            // paid its injection overhead and moves on (asynchronous
            // send); only the receiver can notice, as a deadlock the
            // run loop will diagnose.
            ++*msgsDropped_;
            if (params_.tracer) {
                params_.tracer->instant(
                    obs::Tracer::pidNoc, src, "FAULT pkt dropped",
                    now,
                    {{"dst", static_cast<std::uint64_t>(dst)},
                     {"tag", static_cast<std::uint64_t>(tag)}});
            }
            return noc_.params().nicInject;
        }
        Cycles extra = injector_.messageDelay();
        if (extra > 0)
            ++*msgsDelayed_;
        sentThisStep_.push_back({src, dst, tag});
        return noc_.send(src, dst, tag, value, now, extra);
    }
    sentThisStep_.push_back({src, dst, tag});
    return noc_.send(src, dst, tag, value, now);
}

std::optional<std::pair<Word, Cycles>>
System::tryRecv(TileId dst, TileId src, int tag)
{
    return noc_.tryRecv(dst, src, tag);
}

std::array<Cycles, numCycleBuckets>
System::bucketsNow(TileId t) const
{
    const auto &cc = coreCounters_[static_cast<std::size_t>(t)];
    std::array<Cycles, numCycleBuckets> b{};
    b[static_cast<int>(CycleBucket::Issue)] =
        *cc.instructions - *cc.custs + 3 * *cc.muls + *cc.branches;
    b[static_cast<int>(CycleBucket::CustExecute)] = *cc.custs;
    b[static_cast<int>(CycleBucket::CacheMiss)] = *cc.imiss + *cc.dmiss;
    b[static_cast<int>(CycleBucket::Spm)] = *cc.spm;
    b[static_cast<int>(CycleBucket::SendBlocked)] = *cc.send;
    b[static_cast<int>(CycleBucket::RecvBlocked)] = *cc.recv;
    return b;
}

void
System::sampleStep(TileId t)
{
    auto now = bucketsNow(t);
    auto &last = sampledBuckets_[static_cast<std::size_t>(t)];
    Cycles time = tiles_[static_cast<std::size_t>(t)].core->time();
    for (int b = 0; b < numCycleBuckets; ++b) {
        auto i = static_cast<std::size_t>(b);
        if (now[i] != last[i])
            params_.sampler->add(t, time, b, now[i] - last[i]);
    }
    last = now;
}

void
System::noteDeadlock(RunStats &stats)
{
    // Nothing runnable: either done, or deadlocked. A deadlock is a
    // termination with per-tile diagnostics, not an abort — partial
    // stats stay inspectable.
    for (TileId t = 0; t < numTiles; ++t) {
        Tile &tile = tiles_[static_cast<std::size_t>(t)];
        if (!tile.loaded || !tile.blocked)
            continue;
        BlockedTileDiag diag;
        diag.tile = t;
        if (const auto &pending = tile.core->pendingRecv()) {
            diag.waitingSrc = pending->src;
            diag.waitingTag = pending->tag;
        }
        diag.pc = tile.core->pc();
        diag.time = tile.core->time();
        if (params_.tracer) {
            params_.tracer->instant(
                obs::Tracer::pidTiles, t, "DEADLOCK blocked",
                diag.time,
                {{"src",
                  static_cast<std::uint64_t>(diag.waitingSrc)},
                 {"tag",
                  static_cast<std::uint64_t>(diag.waitingTag)}});
        }
        stats.blockedTiles.push_back(diag);
    }
    if (!stats.blockedTiles.empty())
        stats.termination = fault::Termination::Deadlock;
}

void
System::dispatch(RunStats &stats, std::uint64_t maxInstructions)
{
    // One advance policy per run (table at SchedulerKind).
    enum class Advance { Step, ExactSlice, RelaxedSlice, Compiled };
    const bool sampling = params_.sampler != nullptr;
    Advance advance = Advance::Compiled;
    if (params_.scheduler == SchedulerKind::Step || sampling)
        advance = Advance::Step;
    else if (params_.tracer || injector_.active() ||
             maxInstructions < runawayInstructionBudget)
        advance = Advance::ExactSlice;
    else if (params_.scheduler == SchedulerKind::Slice)
        advance = Advance::RelaxedSlice;

    std::uint64_t executed = 0;
    TileId running = -1;
    queue_.clear();
    for (TileId t = 0; t < numTiles; ++t) {
        Tile &tile = tiles_[static_cast<std::size_t>(t)];
        if (tile.loaded && !tile.core->halted() && !tile.blocked)
            queue_.push(t, tile.core->time());
    }

    auto crashed = [&](const FatalError &err) {
        stats.termination = fault::Termination::Fault;
        stats.faultMessage = detail::formatMessage(
            "tile ", running, " crashed: ", err.what());
        warn(stats.faultMessage);
    };

    try {
        while (!queue_.empty()) {
            if (executed >= maxInstructions) {
                // The budget ran out with work remaining: a bounded,
                // non-fatal termination (exactly maxInstructions
                // attempts were made).
                stats.termination = fault::Termination::InstructionLimit;
                return;
            }

            // Cooperative wall-clock cancellation, polled once per
            // dispatch and never inside a slice.
            if (params_.abortFlag &&
                params_.abortFlag->load(std::memory_order_relaxed))
                throw fault::DeadlineExceededError(
                    detail::formatMessage(
                        "run aborted by deadline watchdog after ",
                        executed, " instructions"));

            // The top core is the globally minimal (time, id) key —
            // the linear scan's pick — and stays at the heap top
            // while it runs: its slice ends exactly when it stops
            // being the minimum, so one updateTop() restores the
            // invariant instead of a pop+push round trip.
            running = queue_.top();
            Tile &tile = tiles_[static_cast<std::size_t>(running)];
            RunQueue::Entry horizon{~Cycles{0}, numTiles};
            if (advance != Advance::Step && queue_.size() > 1)
                horizon = queue_.second();

            cpu::StepResult result;
            switch (advance) {
              case Advance::Step:
                result = tile.core->step();
                ++executed;
                if (sampling)
                    sampleStep(running);
                break;
              case Advance::ExactSlice:
              case Advance::RelaxedSlice:
                result = tile.core->runSlice(
                    maxInstructions, executed, horizon.time,
                    horizon.tile, advance == Advance::RelaxedSlice);
                break;
              case Advance::Compiled:
                result = tile.core->runCompiled(
                    maxInstructions, executed, horizon.time,
                    horizon.tile);
                break;
            }

            if (result == cpu::StepResult::Blocked) {
                tile.blocked = true;
                queue_.pop();
            } else if (tile.core->halted()) {
                queue_.pop();
            } else {
                queue_.updateTop(tile.core->time());
            }

            // Wake exactly the receivers whose pending RECV matches a
            // message injected this dispatch; they re-enter the queue
            // at the time they blocked.
            if (!sentThisStep_.empty()) {
                for (const auto &msg : sentThisStep_) {
                    Tile &rx = tiles_[static_cast<std::size_t>(msg.dst)];
                    if (!rx.blocked)
                        continue;
                    const auto &pending = rx.core->pendingRecv();
                    if (pending && pending->src == msg.src &&
                        pending->tag == msg.tag) {
                        rx.blocked = false;
                        queue_.push(msg.dst, rx.core->time());
                    }
                }
                sentThisStep_.clear();
            }
        }
        noteDeadlock(stats);
    } catch (const fault::ExecutionFaultError &err) {
        // Wild branch or runaway PC: a run outcome, never misuse.
        crashed(err);
    } catch (const fault::PatchFaultError &err) {
        stats.termination = fault::Termination::Fault;
        stats.patchFault = err.fault();
        stats.faultMessage = err.what();
        warn(err.what());
    } catch (const fault::DeadlineExceededError &) {
        // A watchdog abort is a service-tier outcome, not a hardware
        // fault of this run: let the engine type it as "deadline".
        throw;
    } catch (const FatalError &err) {
        // With injection active, a core tripping over state an
        // injected fault corrupted (e.g. a flipped CUST output used
        // as an address) is a run outcome; otherwise it is real
        // misuse and propagates.
        if (!injector_.active())
            throw;
        crashed(err);
    }
}

std::string
System::dumpTraces() const
{
    std::string out;
    for (TileId t = 0; t < numTiles; ++t) {
        const Tile &tile = tiles_[static_cast<std::size_t>(t)];
        if (!tile.loaded || tile.core->traceCount() == 0)
            continue;
        out += detail::formatMessage("=== tile ", t, " (",
                                     tile.core->traceCount(),
                                     " traces) ===\n");
        out += tile.core->dumpJitTraces();
    }
    return out;
}

RunStats
System::run(std::uint64_t maxInstructions)
{
    RunStats stats;
    // Injected-fault counters describe one run, like the per-tile
    // patch counters (handles stay valid; values zero in place).
    faultStats_.reset();
    // A run cut short mid-step can leave stale send records behind;
    // they must not wake anyone in the next run.
    sentThisStep_.clear();

    if (params_.sampler) {
        params_.sampler->beginRun(cycleBucketNames());
        // Baseline the deltas at the counters' current values (zero
        // after loadProgram, but not if the same program runs twice).
        for (TileId t = 0; t < numTiles; ++t)
            sampledBuckets_[static_cast<std::size_t>(t)] =
                bucketsNow(t);
    }

    dispatch(stats, maxInstructions);

    // A run cut short (deadlock, fault, step budget) may never reach
    // the harness's orderly ~Tracer: make the on-disk trace a valid
    // JSON document now, at zero cost to completed runs.
    if (stats.termination != fault::Termination::Completed &&
        params_.tracer)
        params_.tracer->flush();

    collectRunStats(stats);
    return stats;
}

namespace
{

/** Max hot blocks reported per run (RunStats::hotBlocks). */
constexpr std::size_t maxHotBlocks = 8;

/**
 * Static CFG blocks of one tile's program, ranked later across tiles.
 * Leaders: instruction 0, every instruction after a control op, and
 * every static branch/JAL target. JALR has no static target — its
 * destination simply starts at the next leader it falls into.
 */
void
appendTileBlocks(TileId t, const cpu::Core &core,
                 std::vector<HotBlock> &out)
{
    const isa::Program &prog = core.program();
    const auto &code = prog.code();
    const auto &counts = core.executionCounts();
    if (code.empty())
        return;

    std::vector<std::int32_t> wordToIndex(prog.wordCount(), -1);
    for (std::size_t i = 0; i < code.size(); ++i)
        wordToIndex[prog.wordAddrOf(i)] = static_cast<std::int32_t>(i);

    std::vector<bool> leader(code.size(), false);
    leader[0] = true;
    for (std::size_t i = 0; i < code.size(); ++i) {
        const isa::Instr &in = code[i];
        if (isa::isControlOp(in.op) && i + 1 < code.size())
            leader[i + 1] = true;
        std::int64_t target = -1;
        if (in.op == isa::Opcode::Jal)
            target = in.imm;
        else if (isa::isControlOp(in.op) &&
                 in.op != isa::Opcode::Jalr &&
                 in.op != isa::Opcode::Halt)
            target = static_cast<std::int64_t>(prog.wordAddrOf(i)) +
                     in.imm;
        if (target >= 0 &&
            target < static_cast<std::int64_t>(wordToIndex.size())) {
            std::int32_t ti =
                wordToIndex[static_cast<std::size_t>(target)];
            if (ti >= 0)
                leader[static_cast<std::size_t>(ti)] = true;
        }
    }

    for (std::size_t i = 0; i < code.size();) {
        std::size_t end = i + 1;
        while (end < code.size() && !leader[end])
            ++end;
        HotBlock hb;
        hb.tile = t;
        hb.pc = prog.wordAddrOf(i);
        hb.length = static_cast<std::uint32_t>(end - i);
        for (std::size_t k = i; k < end; ++k)
            hb.instructions += counts[k];
        if (hb.instructions > 0)
            out.push_back(hb);
        i = end;
    }
}

} // namespace

void
System::collectRunStats(RunStats &stats)
{
    for (TileId t = 0; t < numTiles; ++t) {
        Tile &tile = tiles_[static_cast<std::size_t>(t)];
        if (!tile.loaded)
            continue;
        TileStats &ts = stats.perTile[static_cast<std::size_t>(t)];
        const StatGroup &cs = tile.core->stats();
        const StatGroup &ps = patchStats_[static_cast<std::size_t>(t)];
        ts.loaded = true;
        ts.cycles = tile.core->time();
        ts.instructions = tile.core->instructionsRetired();
        ts.customInstructions = cs.get("custom_instructions");
        ts.fusedCustomInstructions =
            ps.get("fused_custom_instructions");
        ts.muls = cs.get("muls");
        ts.branchesTaken = cs.get("branches_taken");
        ts.imissStallCycles = cs.get("imiss_stall_cycles");
        ts.dmissStallCycles = cs.get("dmiss_stall_cycles");
        ts.spmStallCycles = cs.get("spm_stall_cycles");
        ts.sendStallCycles = cs.get("send_stall_cycles");
        ts.recvWaitCycles = cs.get("recv_wait_cycles");
        ts.msgsSent = cs.get("msgs_sent");
        ts.msgsReceived = cs.get("msgs_received");
        ts.snocHops = ps.get("snoc_hops");
        stats.makespan = std::max(stats.makespan, ts.cycles);
        stats.instructions += ts.instructions;
        stats.customInstructions += ts.customInstructions;
        stats.fusedCustomInstructions += ts.fusedCustomInstructions;
    }
    // Hot basic blocks (run report "hot_blocks", smoke_app
    // --dump-hot): derived from execution counts every scheduler
    // fills identically, so the section never breaks report parity.
    std::vector<HotBlock> blocks;
    for (TileId t = 0; t < numTiles; ++t) {
        const Tile &tile = tiles_[static_cast<std::size_t>(t)];
        if (tile.loaded)
            appendTileBlocks(t, *tile.core, blocks);
    }
    std::sort(blocks.begin(), blocks.end(),
              [](const HotBlock &a, const HotBlock &b) {
                  if (a.instructions != b.instructions)
                      return a.instructions > b.instructions;
                  if (a.tile != b.tile)
                      return a.tile < b.tile;
                  return a.pc < b.pc;
              });
    if (blocks.size() > maxHotBlocks)
        blocks.resize(maxHotBlocks);
    stats.hotBlocks = std::move(blocks);

    stats.snocHops = snocStats_.get("hops");
    stats.messages = noc_.stats().get("packets");
    stats.linkBusyCycles = noc_.linkBusyCycles();
    stats.messagesDropped = faultStats_.get("messages_dropped");
    stats.messagesDelayed = faultStats_.get("messages_delayed");
    stats.custBitFlips = faultStats_.get("cust_bit_flips");
}

} // namespace stitch::sim
