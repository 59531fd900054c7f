#include "apps/app_runner.hh"

#include "common/logging.hh"
#include "common/table.hh"

namespace stitch::apps
{

const char *
appModeName(AppMode mode)
{
    switch (mode) {
      case AppMode::Baseline: return "baseline";
      case AppMode::Locus: return "LOCUS";
      case AppMode::StitchNoFusion: return "Stitch w/o fusion";
      case AppMode::Stitch: return "Stitch";
    }
    STITCH_PANIC("bad AppMode");
}

AppRunner::AppRunner(int samplesShort, int samplesLong)
    : samplesShort_(samplesShort), samplesLong_(samplesLong)
{
    STITCH_ASSERT(samplesLong_ > samplesShort_ && samplesShort_ >= 1);
}

const compiler::CompiledKernel &
AppRunner::compiledFor(const std::string &kernel,
                       const kernels::PipelineShape &shape)
{
    std::string key = strformat("%s/%d/%d/%d", kernel.c_str(),
                                shape.numIn, shape.numOut,
                                shape.samples);
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        auto it = cache_.find(key);
        if (it != cache_.end())
            return *it->second;
    }
    // Compile outside the lock — it is the expensive step, and two
    // workers compiling the same kernel is merely redundant work
    // (the loser's copy is dropped), never wrong.
    auto input = kernels::kernelByName(kernel).build(shape);
    auto compiled = std::make_unique<compiler::CompiledKernel>(
        compiler::compileKernel(kernel, input));
    std::lock_guard<std::mutex> lock(cacheMutex_);
    auto [it, inserted] = cache_.emplace(key, std::move(compiled));
    (void)inserted;
    return *it->second;
}

RunConfig
AppRunner::config() const
{
    RunConfig cfg;
    cfg.arch = arch_;
    cfg.policy = policy_;
    cfg.health = health_;
    cfg.faults = faults_;
    cfg.scheduler = scheduler_;
    return cfg;
}

AppRunResult
AppRunner::run(const AppSpec &app, AppMode mode)
{
    return run(app, mode, config());
}

AppRunResult
AppRunner::run(const AppSpec &app, AppMode mode,
               const RunConfig &config)
{
    const int stages = static_cast<int>(app.stageKernels.size());
    STITCH_ASSERT(stages <= numTiles, "application too wide");

    // Per-call measurement overrides (job specs); 0 = runner default.
    const int samplesShort =
        config.samplesShort > 0 ? config.samplesShort : samplesShort_;
    const int samplesLong =
        config.samplesLong > 0 ? config.samplesLong : samplesLong_;
    if (!(samplesLong > samplesShort && samplesShort >= 1))
        throw fault::ConfigError(detail::formatMessage(
            "invalid sample window: short=", samplesShort,
            " long=", samplesLong,
            " (need 1 <= short < long)"));

    // Compile every stage (cached across stages and apps).
    std::vector<const compiler::CompiledKernel *> compiled;
    std::vector<kernels::PipelineShape> shapes;
    {
        telem::ScopedSpan span(config.trace, telem::Stage::Compile);
        for (int k = 0; k < stages; ++k) {
            kernels::PipelineShape shape;
            shape.numIn = app.inDegree(k);
            shape.numOut = app.outDegree(k);
            shapes.push_back(shape);
            compiled.push_back(&compiledFor(
                app.stageKernels[static_cast<std::size_t>(k)],
                shape));
        }
    }

    // Decide placements and per-stage binaries.
    AppRunResult result;
    result.mode = mode;
    result.samples = samplesLong - samplesShort;

    std::vector<TileId> tileOf(static_cast<std::size_t>(stages));
    std::vector<const compiler::RewrittenProgram *> binaries(
        static_cast<std::size_t>(stages));
    std::vector<compiler::RewrittenProgram> softwareBinaries(
        static_cast<std::size_t>(stages));

    sim::SystemParams sysParams;
    sysParams.faults = config.faults;
    sysParams.scheduler = config.scheduler;
    sysParams.abortFlag = config.abortFlag;
    sysParams.tracer = config.tracer;
    switch (mode) {
      case AppMode::Baseline:
        sysParams.accel = sim::AccelMode::None;
        break;
      case AppMode::Locus:
        sysParams.accel = sim::AccelMode::Locus;
        break;
      default:
        sysParams.accel = sim::AccelMode::Stitch;
        break;
    }

    if (mode == AppMode::Baseline || mode == AppMode::Locus) {
        for (int k = 0; k < stages; ++k) {
            tileOf[static_cast<std::size_t>(k)] = k;
            if (mode == AppMode::Baseline) {
                softwareBinaries[static_cast<std::size_t>(k)].program =
                    compiled[static_cast<std::size_t>(k)]->software;
                binaries[static_cast<std::size_t>(k)] =
                    &softwareBinaries[static_cast<std::size_t>(k)];
            } else {
                const auto *variant =
                    compiled[static_cast<std::size_t>(k)]
                        ->locusVariant();
                STITCH_ASSERT(variant, "missing LOCUS variant");
                binaries[static_cast<std::size_t>(k)] =
                    &variant->binary;
            }
        }
    } else {
        // Build the stitcher's view of the kernels.
        std::vector<compiler::KernelProfile> profiles;
        for (int k = 0; k < stages; ++k) {
            compiler::KernelProfile prof;
            prof.name = strformat(
                "%s#%d",
                app.stageKernels[static_cast<std::size_t>(k)].c_str(),
                k);
            prof.swCycles =
                compiled[static_cast<std::size_t>(k)]->softwareCycles;
            for (const auto &variant :
                 compiled[static_cast<std::size_t>(k)]->variants) {
                if (variant.target.type ==
                    compiler::AccelTarget::Type::Locus)
                    continue;
                prof.options.push_back(
                    {variant.target, variant.cycles});
            }
            profiles.push_back(std::move(prof));
        }

        compiler::StitchOptions stitchOpts;
        stitchOpts.allowFusion = mode == AppMode::Stitch;
        stitchOpts.policy = config.policy;
        sysParams.arch = config.arch;
        {
            telem::ScopedSpan span(config.trace,
                                   telem::Stage::Stitch);
            result.plan = compiler::stitchApplication(
                profiles, sysParams.arch, config.health, stitchOpts);
        }
        result.hasPlan = true;

        for (int k = 0; k < stages; ++k) {
            const auto &placement =
                result.plan.placements[static_cast<std::size_t>(k)];
            tileOf[static_cast<std::size_t>(k)] = placement.tile;
            if (placement.accel) {
                const auto *variant =
                    compiled[static_cast<std::size_t>(k)]->find(
                        *placement.accel);
                STITCH_ASSERT(variant,
                              "plan chose a missing variant");
                binaries[static_cast<std::size_t>(k)] =
                    &variant->binary;
            } else {
                softwareBinaries[static_cast<std::size_t>(k)].program =
                    compiled[static_cast<std::size_t>(k)]->software;
                binaries[static_cast<std::size_t>(k)] =
                    &softwareBinaries[static_cast<std::size_t>(k)];
            }
        }
    }

    // Simulate a short and a long run; the marginal cost of the
    // extra samples is the steady-state throughput.
    auto simulate = [&](int nSamples,
                        obs::Json *statsOut) -> sim::RunStats {
        sim::System system(sysParams);
        if (result.hasPlan)
            system.configureSnoc(result.plan.snoc);
        for (int k = 0; k < stages; ++k)
            system.loadProgram(tileOf[static_cast<std::size_t>(k)],
                               *binaries[static_cast<std::size_t>(k)]);
        if (result.hasPlan) {
            for (const auto &placement : result.plan.placements)
                if (placement.accel &&
                    placement.accel->type ==
                        compiler::AccelTarget::Type::FusedPair)
                    system.setFusionPartner(placement.tile,
                                            placement.remoteTile);
        }

        // Wire the message channels: channel order must match the
        // builder's (i-th in-edge / out-edge in spec order).
        std::vector<int> inSeen(static_cast<std::size_t>(stages), 0);
        std::vector<int> outSeen(static_cast<std::size_t>(stages), 0);
        for (const auto &edge : app.edges) {
            TileId fromTile =
                tileOf[static_cast<std::size_t>(edge.from)];
            TileId toTile = tileOf[static_cast<std::size_t>(edge.to)];
            int outIdx =
                outSeen[static_cast<std::size_t>(edge.from)]++;
            int inIdx = inSeen[static_cast<std::size_t>(edge.to)]++;
            system.pokeWord(fromTile,
                            kernels::commOutTableAddr +
                                static_cast<Addr>(4 * outIdx),
                            static_cast<Word>(toTile));
            system.pokeWord(toTile,
                            kernels::commInTableAddr +
                                static_cast<Addr>(4 * inIdx),
                            static_cast<Word>(fromTile));
        }
        for (int k = 0; k < stages; ++k)
            system.pokeWord(tileOf[static_cast<std::size_t>(k)],
                            kernels::commSamplesAddr,
                            static_cast<Word>(nSamples));

        auto stats = system.run(
            config.maxInstructions > 0
                ? config.maxInstructions
                : sim::System::runawayInstructionBudget);
        if (statsOut) {
            *statsOut = system.registry().toJson(/*skipZero=*/true);
            if (config.dumpTraces)
                result.traceDump = system.dumpTraces();
        }
        return stats;
    };

    result.samplesLong = samplesLong;
    for (int k = 0; k < stages; ++k)
        result.stageBindings.emplace_back(
            strformat(
                "%s#%d",
                app.stageKernels[static_cast<std::size_t>(k)].c_str(),
                k),
            tileOf[static_cast<std::size_t>(k)]);

    telem::ScopedSpan simSpan(config.trace, telem::Stage::Simulate);
    sim::RunStats shortRun = simulate(samplesShort, nullptr);
    if (config.profileInterval > 0) {
        result.timeline = obs::Sampler(config.profileInterval);
        sysParams.sampler = &result.timeline;
    }
    result.stats = simulate(samplesLong, &result.statsDump);
    simSpan.close();
    if (shortRun.termination == fault::Termination::Completed &&
        result.stats.termination == fault::Termination::Completed) {
        result.marginalCycles =
            static_cast<double>(result.stats.makespan -
                                shortRun.makespan) /
            static_cast<double>(samplesLong - samplesShort);
    } else {
        // An aborted run has no steady state; leave the marginal cost
        // at zero and let callers key on stats.termination.
        result.marginalCycles = 0.0;
    }
    return result;
}

} // namespace apps = stitch::apps
