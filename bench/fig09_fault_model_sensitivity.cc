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

#include "lifetime_bench.h"

using namespace relaxfault;
using namespace relaxfault::bench;

namespace {

bool
runSweep(LifetimeBench &bench,
         const std::vector<std::pair<double, double>> &points,
         bool sweep_factor)
{
    TextTable table;
    table.setHeader({sweep_factor ? "acceleration" : "fraction(%)",
                     "faulty-nodes", "multi-dev-DIMMs", "DUEs", "SDCs",
                     "replacements"});
    unsigned point_index = 0;
    for (const auto &[factor, fraction] : points) {
        LifetimeConfig config = bench.config();
        if (factor <= 1.0) {
            config.faultModel.accelerationEnabled = false;
        } else {
            config.faultModel.accelerationFactor = factor;
            config.faultModel.acceleratedNodeFraction = fraction;
            config.faultModel.acceleratedDimmFraction = fraction;
        }
        const LifetimeSimulator simulator(config);
        // Unit key = panel/point-index: stable across runs because the
        // sweep points are compiled in.
        const CampaignResult unit_result = bench.runUnit(
            (sweep_factor ? "factor-sweep/" : "fraction-sweep/") +
                std::to_string(point_index++),
            simulator, {});
        if (unit_result.interrupted)
            return false;
        const LifetimeSummary &summary = unit_result.summary;
        table.addRow({sweep_factor
                          ? TextTable::num(factor, 0) + "x"
                          : TextTable::num(100.0 * fraction, 2),
                      TextTable::num(summary.faultyNodes.mean(), 0),
                      TextTable::num(summary.multiDeviceFaultDimms.mean(),
                                     0),
                      TextTable::num(summary.dues.mean(), 2),
                      TextTable::num(summary.sdcs.mean(), 4),
                      TextTable::num(summary.replacements.mean(), 2)});
        bench.report().addRow()
            .set("panel", sweep_factor ? "factor-sweep" : "fraction-sweep")
            .set("acceleration_factor", factor)
            .set("accelerated_fraction", fraction)
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
    std::cout << "Fig. 9a/9b: acceleration-factor sweep at 0.1% of nodes "
                 "and DIMMs (" << bench.nodes() << " nodes, "
              << bench.trials() << " trials)\n\n";
    bool completed = runSweep(bench,
                              {{1.0, 0.001},
                               {50.0, 0.001},
                               {100.0, 0.001},
                               {150.0, 0.001},
                               {200.0, 0.001}},
                              true);

    if (completed) {
        std::cout << "\nFig. 9c/9d: accelerated-fraction sweep at 100x ("
                  << bench.nodes() << " nodes, " << bench.trials()
                  << " trials)\n\n";
        runSweep(bench,
                 {{1.0, 0.0},
                  {100.0, 0.0001},
                  {100.0, 0.001},
                  {100.0, 0.002},
                  {100.0, 0.003},
                  {100.0, 0.004},
                  {100.0, 0.005}},
                 false);
    }
    return bench.finish();
}
