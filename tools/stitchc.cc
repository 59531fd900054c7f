/**
 * @file
 * stitchc — command-line front end to the Stitch compiler.
 *
 * Usage:
 *   stitchc <kernel> [--listing] [--dfg] [--configs]
 *           [--trace=FILE] [--report=FILE] [--stats=FILE] [--verbose]
 *
 *   <kernel>    a catalog kernel name (see `stitchc --list`)
 *   --listing   disassemble the best stitched binary
 *   --dfg       dump the hot-block dataflow graphs
 *   --configs   decode every 19-bit patch configuration the binary
 *               carries (the paper's control words, human readable)
 *
 * The observability switches re-run the best stitched binary on a
 * standalone tile: --trace records its Chrome trace, --report /
 * --stats write that run's JSON report and counter dump.
 *
 * Always prints the measured speedup of every acceleration target.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "compiler/driver.hh"
#include "compiler/liveness.hh"
#include "compiler/profiler.hh"
#include "cpu/patch_handler.hh"
#include "kernels/catalog.hh"
#include "obs/buildinfo.hh"
#include "obs/cli.hh"
#include "sim/report.hh"

using namespace stitch;

int
main(int argc, char **argv)
{
    obs::CliOptions obsOpts;
    bool listing = false, dfg = false, configs = false;
    std::string kernel;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--version")) {
            std::printf("%s\n",
                        obs::versionText("stitchc").c_str());
            return 0;
        }
        if (obsOpts.parse(argv[i]))
            continue;
        if (!std::strcmp(argv[i], "--listing"))
            listing = true;
        else if (!std::strcmp(argv[i], "--dfg"))
            dfg = true;
        else if (!std::strcmp(argv[i], "--configs"))
            configs = true;
        else if (!std::strcmp(argv[i], "--list")) {
            for (const auto &f : kernels::kernelCatalog())
                std::printf("%s\n", f.name.c_str());
            return 0;
        } else {
            kernel = argv[i];
        }
    }
    if (kernel.empty()) {
        std::fprintf(stderr,
                     "usage: stitchc <kernel> [--listing] [--dfg] "
                     "[--configs] [--trace=FILE] [--report=FILE] "
                     "[--stats=FILE] [--verbose] | --list\n");
        return 2;
    }
    obsOpts.begin();

    auto input = kernels::kernelByName(kernel).build({});
    auto compiled = compiler::compileKernel(kernel, input);

    std::printf("%s: software %llu cycles; %zu hot-chain strings\n\n",
                kernel.c_str(),
                static_cast<unsigned long long>(
                    compiled.softwareCycles),
                compiled.chainStrings.size());
    std::printf("%-16s %10s %8s %6s %6s\n", "target", "cycles",
                "speedup", "CUSTs", "fused");
    for (const auto &v : compiled.variants) {
        std::printf("%-16s %10llu %7.2fx %6d %6d\n",
                    v.target.name().c_str(),
                    static_cast<unsigned long long>(v.cycles),
                    v.speedup, v.binary.custCount,
                    v.binary.fusedCustCount);
    }

    if (dfg) {
        auto profile = compiler::profileProgram(compiled.software);
        auto liveOuts = compiler::blockLiveOuts(compiled.software,
                                                profile.blocks);
        auto spmIns = compiler::blockSpmPointers(
            compiled.software, profile.blocks, input.spmBaseRegs);
        for (auto bi : profile.hotBlocks) {
            const auto &bb = profile.blocks[bi];
            std::printf("\n-- hot block %zu [%zu, %zu) x%llu --\n",
                        bi, bb.begin, bb.end,
                        static_cast<unsigned long long>(
                            bb.execCount));
            std::vector<RegId> spmRegs(spmIns[bi].begin(),
                                       spmIns[bi].end());
            auto graph = compiler::Dfg::build(
                compiled.software, bb, spmRegs, &liveOuts[bi]);
            std::printf("%s", graph.toString().c_str());
        }
    }

    const auto *best = compiled.bestStitch();
    if (listing) {
        std::printf("\n-- best stitched binary (%s) --\n%s",
                    best->target.name().c_str(),
                    best->binary.program.listing().c_str());
    }

    if (configs) {
        std::printf("\n-- decoded ISE configurations (%s) --\n",
                    best->target.name().c_str());
        const auto &table = best->binary.program.iseTable();
        for (std::size_t i = 0; i < table.size(); ++i) {
            auto cfg = core::FusedConfig::unpackBlob(table[i]);
            std::printf("cfg%zu local %s [%s]\n", i,
                        core::patchKindName(cfg.localKind),
                        cfg.local.toString().c_str());
            if (cfg.usesRemote) {
                std::printf("      remote %s [%s]%s\n",
                            core::patchKindName(cfg.remoteKind),
                            cfg.remote.toString().c_str(),
                            cfg.writeLocalToRd1 ? " +rd1=local"
                                                : "");
            }
        }
    }

    if (!obsOpts.tracePath.empty() || !obsOpts.reportPath.empty() ||
        !obsOpts.statsPath.empty()) {
        // Observed re-run of the best stitched binary on a standalone
        // tile (the measurement runs above stay untraced so the trace
        // covers exactly one execution).
        mem::TileMemory memory{mem::MemParams{}};
        cpu::LocalPatchHandler handler(best->target.local, memory);
        cpu::Core core(0, memory, &handler, nullptr, obsOpts.tracer());
        obs::Registry registry;
        registry.add("tile0.core", core.stats());
        registry.add("tile0.mem", memory.stats());
        registry.add("tile0.icache", memory.icache().stats());
        registry.add("tile0.dcache", memory.dcache().stats());
        core.loadProgram(best->binary.program);
        core.runToHalt();

        sim::RunStats stats;
        const StatGroup &cs = core.stats();
        auto &ts = stats.perTile[0];
        ts.loaded = true;
        ts.cycles = core.time();
        ts.instructions = core.instructionsRetired();
        ts.customInstructions = cs.get("custom_instructions");
        ts.imissStallCycles = cs.get("imiss_stall_cycles");
        ts.dmissStallCycles = cs.get("dmiss_stall_cycles");
        stats.makespan = ts.cycles;
        stats.instructions = ts.instructions;
        stats.customInstructions = ts.customInstructions;
        if (!obsOpts.reportPath.empty())
            sim::writeRunReport(obsOpts.reportPath, stats, &registry);
        if (!obsOpts.statsPath.empty())
            obs::writeJsonFile(obsOpts.statsPath,
                               registry.toJson(/*skipZero=*/true));
    }
    return 0;
}
