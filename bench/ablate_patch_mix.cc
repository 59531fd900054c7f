/**
 * @file
 * A2: patch-mix ablation. The paper chose 8 {AT-MA} + 4 {AT-AS} +
 * 4 {AT-SA} from the chain statistics of Section III-A. This bench
 * re-runs the four applications under alternative mixes.
 */

#include "bench/bench_common.hh"

using namespace stitch;
using namespace stitch::bench;
using core::PatchKind;

namespace
{

core::StitchArch
mixArch(int ma, int as, int sa)
{
    core::StitchArch arch{};
    // Interleave kinds round-robin across the mesh so fusion
    // partners stay reachable.
    std::vector<PatchKind> kinds;
    for (int i = 0; i < ma; ++i)
        kinds.push_back(PatchKind::ATMA);
    for (int i = 0; i < as; ++i)
        kinds.push_back(PatchKind::ATAS);
    for (int i = 0; i < sa; ++i)
        kinds.push_back(PatchKind::ATSA);
    // Deterministic interleave: stride through the list.
    for (TileId t = 0; t < numTiles; ++t)
        arch.placement[static_cast<std::size_t>(t)] =
            kinds[static_cast<std::size_t>((t * 7 + t / 4) %
                                           numTiles)];
    return arch;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::initObs(argc, argv);
    printHeader("Ablation A2", "patch-mix sweep (Stitch mode)");

    struct Mix
    {
        const char *name;
        core::StitchArch arch;
    };
    const Mix mixes[] = {
        {"8/4/4 (paper)", core::StitchArch::standard()},
        {"16/0/0 all AT-MA", mixArch(16, 0, 0)},
        {"0/8/8 no multiplier", mixArch(0, 8, 8)},
        {"6/5/5 balanced", mixArch(6, 5, 5)},
        {"12/2/2 MA-heavy", mixArch(12, 2, 2)},
    };

    TextTable table({"mix", "APP1", "APP2", "APP3", "APP4", "avg"});

    // One shared runner (thread-safe kernel cache); each mix is an
    // independent sweep task carrying its arch in a private
    // RunConfig. Rows come back in mix order, so the table and the
    // recorded metrics are byte-identical for any --jobs value.
    apps::AppRunner runner(4, 12);
    runner.setScheduler(bench::schedulerFlag());
    struct MixRow
    {
        std::vector<std::string> cells;
        double avg = 0;
    };
    sim::SweepRunner sweep(bench::jobsFlag());
    auto rows = sweep.map(
        static_cast<int>(std::size(mixes)), [&](int i) {
            const Mix &mix = mixes[static_cast<std::size_t>(i)];
            apps::RunConfig cfg = bench::runConfig(runner);
            cfg.arch = mix.arch;
            MixRow row;
            row.cells = {mix.name};
            double sum = 0;
            for (const auto &app : apps::allApps()) {
                auto base =
                    runner.run(app, apps::AppMode::Baseline, cfg);
                auto full =
                    runner.run(app, apps::AppMode::Stitch, cfg);
                double boost = base.perSampleCycles() /
                               full.perSampleCycles();
                sum += boost;
                row.cells.push_back(strformat("%.2f", boost));
            }
            row.avg = sum / 4;
            row.cells.push_back(strformat("%.2f", row.avg));
            return row;
        });
    for (std::size_t i = 0; i < std::size(mixes); ++i) {
        recordMetric(std::string(mixes[i].name) + "/avg_boost",
                     rows[i].avg);
        table.addRow(rows[i].cells);
    }
    table.print();

    std::printf(
        "\nThe paper's heterogeneous 8/4/4 mix serves the diverse "
        "kernel set: an\nall-{AT-MA} chip loses the shift-chain "
        "kernels, a multiplier-free chip loses\nthe MAC kernels, "
        "and the 8/4/4 split tracks the chain occurrence rates\n"
        "({AT} 95.7%%, {MA} 47.8%%, {AS}/{SA} 21.7%% each).\n");
    return 0;
}
