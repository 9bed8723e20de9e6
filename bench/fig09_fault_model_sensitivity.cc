/**
 * @file
 * Reproduces paper Fig. 9: sensitivity of the refined fault model.
 *
 *  (a,b) sweep the FIT acceleration factor (0..200x) with 0.1% of nodes
 *        and DIMMs accelerated;
 *  (c,d) sweep the accelerated fraction (0..0.5%) at 100x.
 *
 * Metrics per 16,384-node system over 6 years under ReplA, no repair:
 * faulty nodes, DIMMs with multi-device faults, DUEs, SDCs, DIMM
 * replacements. The left-most point of (a,b) is the prior uniform model,
 * which under-predicts DUEs by an order of magnitude (the paper's
 * motivation for the refinement).
 */

#include <iostream>
#include <map>

#include "lifetime_bench.h"

using namespace relaxfault;
using namespace relaxfault::bench;

namespace {

/**
 * Print @p panel's table and JSON rows. A point whose config an earlier
 * point already ran (its `unit` names another point) reuses that
 * unit's summary from @p summaries instead of running it again.
 */
bool
runSweep(LifetimeBench &bench, const std::string &panel,
         std::map<std::string, LifetimeSummary> &summaries)
{
    const bool sweep_factor = panel == "factor-sweep";
    TextTable table;
    table.setHeader({sweep_factor ? "acceleration" : "fraction(%)",
                     "faulty-nodes", "multi-dev-DIMMs", "DUEs", "SDCs",
                     "replacements"});
    for (const Fig09Point &point : fig09Points()) {
        if (point.panel != panel)
            continue;
        if (summaries.count(point.unit) == 0) {
            const LifetimeSimulator simulator(point.apply(bench.config()));
            // Unit key = panel/point-index of the config's first point:
            // stable across runs because the sweep points are compiled in.
            const CampaignResult unit_result =
                bench.runUnit(point.unit, simulator, {});
            if (unit_result.interrupted)
                return false;
            summaries.emplace(point.unit, unit_result.summary);
        }
        const LifetimeSummary &summary = summaries.at(point.unit);
        table.addRow({sweep_factor
                          ? TextTable::num(point.factor, 0) + "x"
                          : TextTable::num(100.0 * point.fraction, 2),
                      TextTable::num(summary.faultyNodes.mean(), 0),
                      TextTable::num(summary.multiDeviceFaultDimms.mean(),
                                     0),
                      TextTable::num(summary.dues.mean(), 2),
                      TextTable::num(summary.sdcs.mean(), 4),
                      TextTable::num(summary.replacements.mean(), 2)});
        bench.report().addRow()
            .set("panel", panel)
            .set("acceleration_factor", point.factor)
            .set("accelerated_fraction", point.fraction)
            .set("faulty_nodes", summary.faultyNodes.mean())
            .set("multi_device_fault_dimms",
                 summary.multiDeviceFaultDimms.mean())
            .set("dues", summary.dues.mean())
            .set("sdcs", summary.sdcs.mean())
            .set("replacements", summary.replacements.mean());
    }
    table.print(std::cout);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    LifetimeBench bench(argc, argv, kFig09Bench);
    std::map<std::string, LifetimeSummary> summaries;
    std::cout << "Fig. 9a/9b: acceleration-factor sweep at 0.1% of nodes "
                 "and DIMMs (" << bench.nodes() << " nodes, "
              << bench.trials() << " trials)\n\n";
    if (runSweep(bench, "factor-sweep", summaries)) {
        std::cout << "\nFig. 9c/9d: accelerated-fraction sweep at 100x ("
                  << bench.nodes() << " nodes, " << bench.trials()
                  << " trials)\n\n";
        runSweep(bench, "fraction-sweep", summaries);
    }
    return bench.finish();
}
