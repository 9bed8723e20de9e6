/**
 * @file
 * Reproduces paper Fig. 13: expected number of SDCs over 6 years in a
 * 16,384-node system for the repair-mechanism matrix at 1x and 10x FIT.
 *
 * Paper anchors: ~0.02 SDCs with no repair at 1x (SDCs are very rare);
 * RelaxFault reduces SDCs by ~41%; PPR is INeffective at reducing SDCs
 * because the multi-fine-fault devices that cause them exceed PPR's one
 * spare row per bank group but not LLC-based repair.
 */

#include <iostream>

#include "lifetime_bench.h"

using namespace relaxfault;
using namespace relaxfault::bench;

int
main(int argc, char **argv)
{
    LifetimeBench bench(argc, argv, kFig13Bench);
    for (const double fit : {1.0, 10.0}) {
        LifetimeConfig config = bench.config();
        config.faultModel.fitScale = fit;
        std::cout << "Fig. 13" << (fit == 1.0 ? "a" : "b")
                  << ": expected SDCs per system, " << fit << "x FIT, "
                  << bench.nodes() << " nodes, " << bench.trials()
                  << " trials\n\n";
        if (!runRepairMatrix(bench, config, &LifetimeSummary::sdcs, "SDCs",
                             fit == 1.0 ? "1x-fit" : "10x-fit"))
            break;
        std::cout << "\n";
    }
    return bench.finish();
}
