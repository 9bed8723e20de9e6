/**
 * @file
 * Lifetime reliability study: simulate a supercomputer's memory system
 * over a multi-year mission and compare no-repair, PPR, FreeFault, and
 * RelaxFault on DUEs, silent corruptions, and module replacements.
 *
 *   ./examples/lifetime_study --nodes=4096 --years=6 --trials=20 \
 *       --fit-scale=1 [--policy=replA|replB] [--threads=N] [--progress]
 *
 * `--threads` only changes wall-clock time: a given seed produces
 * bit-identical results at any thread count.
 */

#include <cstdio>
#include <iostream>
#include <memory>

#include "common/cli.h"
#include "common/table.h"
#include "dram/address_map.h"
#include "repair/freefault_repair.h"
#include "repair/ppr_repair.h"
#include "repair/relaxfault_repair.h"
#include "sim/lifetime.h"

using namespace relaxfault;

int
main(int argc, char **argv)
{
    const CliOptions options(argc, argv,
                             {"nodes", "years", "fit-scale", "policy",
                              "trials", "seed", "threads", "progress"});
    LifetimeConfig config;
    config.nodesPerSystem =
        static_cast<unsigned>(options.getPositiveInt("nodes", 4096));
    config.faultModel.missionHours =
        options.getDouble("years", 6.0) * 8766.0;
    config.faultModel.fitScale = options.getDouble("fit-scale", 1.0);
    config.policy = options.getString("policy", "replA") == "replB"
        ? ReplacePolicy::OnFrequentErrors : ReplacePolicy::AfterDue;
    const auto trials =
        static_cast<unsigned>(options.getPositiveInt("trials", 20));
    const auto seed = static_cast<uint64_t>(options.getInt("seed", 2718));
    TrialRunOptions run;
    run.parallel.threads =
        static_cast<unsigned>(options.getNonNegativeInt("threads", 0));
    run.progress = options.has("progress");

    std::printf("Lifetime study: %u nodes, %.1f years, %.0fx FIT, %s, "
                "%u trials\n\n",
                config.nodesPerSystem,
                config.faultModel.missionHours / 8766.0,
                config.faultModel.fitScale,
                config.policy == ReplacePolicy::AfterDue
                    ? "replace-after-DUE" : "replace-on-frequent-errors",
                trials);

    const LifetimeSimulator simulator(config);
    const DramGeometry geometry = config.faultModel.geometry;
    const CacheGeometry llc{8 * 1024 * 1024, 16, 64};
    const RepairBudget budget{1, 32768};

    struct Row
    {
        const char *name;
        LifetimeSimulator::MechanismFactory factory;
    };
    const DramAddressMap address_map = makeAddressMap("fig7a", geometry);
    const std::vector<Row> rows = {
        {"no-repair", {}},
        {"PPR",
         [&] { return std::make_unique<PprRepair>(geometry); }},
        {"FreeFault-1way",
         [&] {
             return std::make_unique<FreeFaultRepair>(address_map, llc,
                                                      budget, true);
         }},
        {"RelaxFault-1way",
         [&] {
             return std::make_unique<RelaxFaultRepair>(geometry, llc,
                                                       budget, true);
         }},
    };

    TextTable table;
    table.setHeader({"mechanism", "faulty-nodes", "repaired-nodes(%)",
                     "DUEs", "SDCs", "replacements"});
    for (const auto &row : rows) {
        run.progressLabel = std::string(row.name) + " trials";
        const LifetimeSummary s =
            simulator.runTrials(trials, row.factory, seed, run);
        const double repaired_pct = s.faultyNodes.mean() > 0
            ? 100.0 * s.fullyRepairedNodes.mean() / s.faultyNodes.mean()
            : 0.0;
        table.addRow({row.name, TextTable::num(s.faultyNodes.mean(), 0),
                      TextTable::num(repaired_pct, 1),
                      TextTable::num(s.dues.mean(), 2) + " +/-" +
                          TextTable::num(s.dues.ci95(), 2),
                      TextTable::num(s.sdcs.mean(), 4),
                      TextTable::num(s.replacements.mean(), 1)});
    }
    table.print(std::cout);

    std::printf("\nNotes: a node is 8 chipkill DIMMs (144 DRAM devices); "
                "faults follow the Cielo field-study rates\nwith the "
                "paper's accelerated-population refinement. SDC counts "
                "are expectations.\n");
    return 0;
}
