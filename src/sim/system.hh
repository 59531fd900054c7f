/**
 * @file
 * The full 16-tile Stitch system simulator: cores, private memories,
 * the inter-core NoC, the patches, and the preset inter-patch sNoC.
 *
 * Multi-core time is coordinated with an exact conservative
 * discipline: the runnable core with the smallest local time executes
 * next, so a RECV that finds no message can safely block — any future
 * sender is already at a later local time.
 */

#ifndef STITCH_SIM_SYSTEM_HH
#define STITCH_SIM_SYSTEM_HH

#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "compiler/rewriter.hh"
#include "core/arch.hh"
#include "core/locus.hh"
#include "core/snoc.hh"
#include "cpu/core.hh"
#include "cpu/patch_handler.hh"
#include "fault/fault.hh"
#include "mem/tile_memory.hh"
#include "noc/noc_model.hh"
#include "obs/registry.hh"
#include "obs/sampler.hh"
#include "sim/sched.hh"

namespace stitch::sim
{

/** Which accelerator fabric the system instantiates. */
enum class AccelMode
{
    None,   ///< the 16-core message-passing baseline
    Locus,  ///< per-core LOCUS SFUs
    Stitch, ///< polymorphic patches + inter-patch sNoC
};

/**
 * How System::run advances the core it picks. All three schedulers
 * share one dispatch loop — the (time, id) run queue of sim/sched.hh,
 * one wake-up pass and one watchdog poll per dispatch — and produce
 * bit-identical RunStats, reports, traces and profiles; they differ
 * only in the advance policy, chosen once per run (DESIGN.md §10 has
 * the invariant proofs):
 *
 *  | chosen when                                 | advance           |
 *  |---------------------------------------------|-------------------|
 *  | Step, or a sampler is set                   | Core::step()      |
 *  | tracer set, injector active, or a budget    | exact runSlice    |
 *  |   below runawayInstructionBudget            |                   |
 *  | Slice                                       | relaxed runSlice  |
 *  | Compiled                                    | Core::runCompiled |
 *
 *  - step: one instruction per pick, the simple reference. Interval
 *    profiling needs it so bucket deltas land in the reference
 *    sample windows.
 *  - exact slice: the slice ends as soon as the core's clock passes
 *    the next-runnable tile's key, reproducing step's total
 *    instruction interleaving one-for-one. Chosen whenever something
 *    observes that total order: cycle tracing (event file order),
 *    active fault injection (partial stats at a Fault termination),
 *    or a finite instruction budget (which attempt is the cutoff).
 *    Compiled falls back here too.
 *  - relaxed slice (the production path): a core runs ahead through
 *    tile-private work (ALU, control flow, private-memory traffic)
 *    without limit; only the globally visible operations — SEND,
 *    RECV, CUST — wait until the core holds the globally minimal
 *    (time, id) key. The global event order, and with it every
 *    message arrival and every final counter, is exactly step's.
 *  - compiled: the relaxed discipline driven through translation-
 *    cached micro-op traces with inline-cached memory routing and
 *    superinstructions (src/jit/, DESIGN.md §15) instead of the
 *    per-instruction fetch→decode→switch.
 *
 * The `sched_parity_is_exact` ctest and tests/test_sched.cc (the
 * app parity suite and the random multi-tile SchedulerFuzz) hold all
 * three schedulers to byte-equality across all of these regimes.
 */
enum class SchedulerKind
{
    Step,     ///< reference: one instruction per pick
    Slice,    ///< run-ahead slices (relaxed when unobserved)
    Compiled, ///< relaxed slices through translation-cached traces
};

/** Printable name ("step" / "slice" / "compiled"). */
const char *schedulerKindName(SchedulerKind k);

/** Parse a --scheduler= value; throws fault::ConfigError otherwise. */
SchedulerKind schedulerKindFromName(const std::string &name);

/** System-wide configuration. */
struct SystemParams
{
    mem::MemParams mem;
    noc::NocParams noc;
    core::StitchArch arch = core::StitchArch::standard();
    AccelMode accel = AccelMode::Stitch;

    /** Run-loop dispatch strategy (results are identical either way). */
    SchedulerKind scheduler = SchedulerKind::Slice;

    /** Hardware faults to inject (default: none). */
    fault::FaultPlan faults;

    /**
     * Cooperative cancellation token (service tier): when non-null,
     * the run loops poll it at dispatch granularity and raise
     * fault::DeadlineExceededError once it reads true. Null (the
     * default) costs one predictable branch per dispatch and keeps
     * every run byte-identical to a token-free build.
     */
    const std::atomic<bool> *abortFlag = nullptr;

    /**
     * Event trace of this run (null = off). The System hands it to
     * the cores, caches and NoC model it owns; every hook is one
     * predictable `if (tracer_)` branch, and a traced run is
     * bit-identical to an untraced one. Concurrent runs may share a
     * tracer.
     */
    obs::Tracer *tracer = nullptr;

    /**
     * Interval sampler of this run (null = off): run() feeds it the
     * per-tile cycle-bucket deltas of every step. Owned by the
     * caller, one per concurrently running System.
     */
    obs::Sampler *sampler = nullptr;
};

/** Per-tile activity of one run. */
struct TileStats
{
    bool loaded = false;
    Cycles cycles = 0; ///< local time at halt
    std::uint64_t instructions = 0;
    std::uint64_t customInstructions = 0;
    std::uint64_t fusedCustomInstructions = 0; ///< CUSTs over the sNoC
    std::uint64_t muls = 0;          ///< each costs 3 extra cycles
    std::uint64_t branchesTaken = 0; ///< each costs 1 extra cycle
    Cycles imissStallCycles = 0;
    Cycles dmissStallCycles = 0;
    Cycles spmStallCycles = 0;  ///< core-side SPM sequencer waits
    Cycles sendStallCycles = 0; ///< NoC injection overhead of SENDs
    Cycles recvWaitCycles = 0; ///< RECV waiting on in-flight messages
    std::uint64_t msgsSent = 0;
    std::uint64_t msgsReceived = 0;
    std::uint64_t snocHops = 0; ///< mesh links this tile's fused CUSTs
                                ///< crossed

    /**
     * Fraction of the makespan this tile spent executing. A tile that
     * never ran has no meaningful utilization: report 0 rather than
     * divide stale cycles by another run's makespan.
     */
    double
    utilization(Cycles makespan) const
    {
        return !loaded || makespan == 0
                   ? 0.0
                   : static_cast<double>(cycles) /
                         static_cast<double>(makespan);
    }
};

/**
 * One cycle-attribution bucket of a tile's local time. The buckets
 * partition every local cycle exactly (see the accounting identity in
 * cpu/core.hh): summed over a loaded tile they equal TileStats::cycles
 * bit-for-bit, which the profiling layer (src/prof/) asserts per run.
 */
enum class CycleBucket
{
    Issue,       ///< issue/execute cycles of ordinary instructions
                 ///< (base cycle + MUL iterations + taken branches)
    CustExecute, ///< single-cycle CUST evaluations on the patch fabric
    CacheMiss,   ///< I-/D-cache miss stalls (DRAM behind the caches)
    Spm,         ///< scratchpad sequencer waits on core LW/SW
    SendBlocked, ///< NoC injection overhead paid by SEND
    RecvBlocked, ///< RECV waiting on an in-flight message
};

inline constexpr int numCycleBuckets = 6;

/** Printable bucket name ("issue", "cust_execute", ...). */
const char *cycleBucketName(CycleBucket b);

/** Names of all buckets, in enum order (sampler series order). */
const std::vector<std::string> &cycleBucketNames();

/** Derive the bucket partition of one tile's local cycles. */
std::array<Cycles, numCycleBuckets>
cycleBuckets(const TileStats &ts);

/**
 * One hot basic block of a finished run: a static CFG block (leaders
 * are instruction 0, every instruction after a control op, and every
 * static branch/JAL target) ranked by dynamically retired
 * instructions. Derived from Core::executionCounts, which every
 * scheduler fills identically, so the ranking is scheduler-independent.
 */
struct HotBlock
{
    TileId tile = 0;
    Addr pc = 0; ///< entry word address of the block
    std::uint32_t length = 0; ///< static instructions in the block
    std::uint64_t instructions = 0; ///< dynamic instructions retired
};

/** One tile blocked in RECV when the run ended (diagnostics). */
struct BlockedTileDiag
{
    TileId tile = -1;
    TileId waitingSrc = -1; ///< SEND partner the RECV polls for
    int waitingTag = 0;
    Addr pc = 0;       ///< word address of the stalled RECV
    Cycles time = 0;   ///< the tile's local time when it stalled
};

/** Per-run statistics. */
struct RunStats
{
    /**
     * How the run ended. Abnormal ends (deadlock, instruction limit,
     * injected fault) are terminations, not exceptions: the partial
     * stats below describe the run up to that point, and the
     * diagnostics fields say why it stopped. Only misconfiguration
     * (a binary the system cannot execute) still throws.
     */
    fault::Termination termination = fault::Termination::Completed;

    /** Blocked-in-RECV tiles; non-empty iff termination==Deadlock. */
    std::vector<BlockedTileDiag> blockedTiles;

    /** The surfaced fault; set iff the fault was a dead patch. */
    std::optional<fault::PatchFault> patchFault;

    /**
     * Why the run faulted; set iff termination==Fault. Covers dead
     * patches and secondary damage (e.g. a flipped CUST output word
     * feeding address arithmetic until a core accesses unmapped
     * memory).
     */
    std::string faultMessage;

    /** Injected-fault activity during the run. */
    std::uint64_t messagesDropped = 0;
    std::uint64_t messagesDelayed = 0;
    std::uint64_t custBitFlips = 0;

    Cycles makespan = 0;
    std::uint64_t instructions = 0; ///< sum over loaded tiles only
    std::uint64_t customInstructions = 0;
    std::uint64_t fusedCustomInstructions = 0;
    std::uint64_t snocHops = 0; ///< mesh links crossed by fused CUSTs
    std::uint64_t messages = 0;
    std::array<TileStats, numTiles> perTile{};

    /** Hottest static basic blocks, by retired instructions (top 8;
     *  ties break on tile then pc for determinism). */
    std::vector<HotBlock> hotBlocks;

    /** Busy cycles of every inter-core NoC link (see NocModel). */
    std::vector<Cycles> linkBusyCycles;

    /** Busy fraction of NoC link `link` over the makespan. */
    double
    linkUtilization(int link) const
    {
        auto i = static_cast<std::size_t>(link);
        return makespan == 0 || i >= linkBusyCycles.size()
                   ? 0.0
                   : static_cast<double>(linkBusyCycles[i]) /
                         static_cast<double>(makespan);
    }
};

/** The chip. */
class System : public cpu::CustomHandler, public cpu::MessageHub
{
  public:
    /**
     * Validates `params` eagerly: malformed memory/NoC parameters or
     * an invalid FaultPlan throw fault::ConfigError here rather than
     * corrupting a run later.
     */
    explicit System(const SystemParams &params = SystemParams{});

    /** Load a binary onto a tile (resets that core). */
    void loadProgram(TileId tile,
                     const compiler::RewrittenProgram &binary);

    /** Declare tile `local`'s patch fused with tile `remote`'s. */
    void setFusionPartner(TileId local, TileId remote);

    /** Preset the inter-patch NoC (validated; Stitch mode only). */
    void configureSnoc(const core::SnocConfig &snoc);

    /** Write one word into a tile's private memory (comm tables). */
    void pokeWord(TileId tile, Addr addr, Word value);

    /**
     * The default `maxInstructions` of run(): a runaway backstop,
     * not a measurement feature. Passing anything smaller marks the
     * budget as meaningful, which makes slice and compiled runs use
     * reference-exact interleaving so the cutoff lands on the very
     * same instruction attempt as under the step scheduler.
     */
    static constexpr std::uint64_t runawayInstructionBudget =
        2'000'000'000ull;

    /**
     * Run every loaded core until completion, deadlock, the step
     * budget, or a surfaced hardware fault — see
     * RunStats::termination. Never throws for those; it throws
     * (typed) only for binaries the system cannot execute at all.
     */
    RunStats run(
        std::uint64_t maxInstructions = runawayInstructionBudget);

    /**
     * Dump every translated trace of every loaded tile (compiled
     * scheduler diagnostics; empty when no traces were translated).
     */
    std::string dumpTraces() const;

    cpu::Core &coreAt(TileId t);
    mem::TileMemory &memoryAt(TileId t);
    noc::NocModel &noc() { return noc_; }
    const SystemParams &params() const { return params_; }

    /**
     * Every component's StatGroup under its dotted path
     * ("tile3.dcache", "noc", ...); valid for this System's lifetime.
     */
    const obs::Registry &registry() const { return registry_; }

    // CustomHandler: dispatch CUST to the tile's patch or SFU.
    core::CustResult executeCustom(TileId tile, std::uint64_t blob,
                                   const std::array<Word, 4> &in)
        override;

    // MessageHub: delegate to the NoC, tracking unblocks.
    Cycles send(TileId src, TileId dst, int tag, Word value,
                Cycles now) override;
    std::optional<std::pair<Word, Cycles>>
    tryRecv(TileId dst, TileId src, int tag) override;

  private:
    struct Tile
    {
        std::unique_ptr<mem::TileMemory> memory;
        std::unique_ptr<cpu::Core> core;
        std::unique_ptr<cpu::TileSpmPort> spmPort;
        std::unique_ptr<core::LocusSfu> locus;
        TileId fusionPartner = -1;
        bool loaded = false;
        bool blocked = false;
    };

    /** Cached handles into one tile's patch StatGroup. */
    struct PatchCounters
    {
        Counter *custs = nullptr;
        Counter *fused = nullptr;
        Counter *spmLoads = nullptr;
        Counter *spmStores = nullptr;
        Counter *snocHops = nullptr;
    };

    /**
     * Cached handles into one core's StatGroup, so the run loop's
     * stat fill and the interval sampler never pay a per-step string
     * lookup. Values reset in place on loadProgram; handles persist.
     */
    struct CoreCounters
    {
        Counter *instructions = nullptr;
        Counter *custs = nullptr;
        Counter *muls = nullptr;
        Counter *branches = nullptr;
        Counter *imiss = nullptr;
        Counter *dmiss = nullptr;
        Counter *spm = nullptr;
        Counter *send = nullptr;
        Counter *recv = nullptr;
    };

    /** Cumulative buckets of tile `t` right now (from CoreCounters). */
    std::array<Cycles, numCycleBuckets> bucketsNow(TileId t) const;

    /** Feed the stepped tile's new bucket cycles to the sampler. */
    void sampleStep(TileId t);

    /**
     * The run loop: advance the minimal (time, id) runnable tile
     * under the run's policy (see SchedulerKind) until the queue
     * drains, the budget runs out or a fault surfaces.
     */
    void dispatch(RunStats &stats, std::uint64_t maxInstructions);

    /** Collect blocked-tile diagnostics when nothing is runnable. */
    void noteDeadlock(RunStats &stats);

    /** Fill the per-tile / chip-wide totals of a finished run. */
    void collectRunStats(RunStats &stats);

    /** A message injected during the current dispatch (for wake-up). */
    struct SentMessage
    {
        TileId src = -1;
        TileId dst = -1;
        int tag = 0;
    };

    SystemParams params_;
    noc::NocModel noc_;
    std::array<Tile, numTiles> tiles_;
    core::NullSpmPort nullSpm_;
    fault::FaultInjector injector_;
    std::vector<SentMessage> sentThisStep_;
    RunQueue queue_; ///< runnable tiles of the dispatch loop

    core::SnocConfig snocCfg_; ///< preset kept for hop attribution
    std::array<StatGroup, numTiles> patchStats_;
    std::array<PatchCounters, numTiles> patchCounters_;
    std::array<CoreCounters, numTiles> coreCounters_;

    /** Sampler state: last seen cumulative buckets per tile. */
    std::array<std::array<Cycles, numCycleBuckets>, numTiles>
        sampledBuckets_{};
    StatGroup snocStats_;
    Counter *snocFused_ = nullptr;
    Counter *snocHops_ = nullptr;

    /** Injected-fault activity (registered as "fault" when armed). */
    StatGroup faultStats_;
    Counter *msgsDropped_ = nullptr;
    Counter *msgsDelayed_ = nullptr;
    Counter *bitFlips_ = nullptr;

    obs::Registry registry_;
};

} // namespace stitch::sim

#endif // STITCH_SIM_SYSTEM_HH
