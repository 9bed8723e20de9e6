/**
 * @file
 * Reproduces paper Fig. 12: expected number of DUEs over 6 years in a
 * 16,384-node system (8 x4 DIMMs per node) for no-repair / PPR /
 * FreeFault / RelaxFault at 1 and 4 ways, at 1x and 10x FIT.
 *
 * Paper anchors: ~8 DUEs with no repair at 1x FIT; all repair schemes
 * cut DUEs roughly in half (RelaxFault best at 52%); ~150-200 DUEs at
 * 10x FIT with RelaxFault reducing by ~37%; DUE reduction is largely
 * insensitive to the way limit.
 */

#include <iostream>

#include "lifetime_bench.h"

using namespace relaxfault;
using namespace relaxfault::bench;

int
main(int argc, char **argv)
{
    LifetimeBench bench(argc, argv, kFig12Bench);
    for (const double fit : {1.0, 10.0}) {
        LifetimeConfig config = bench.config();
        config.faultModel.fitScale = fit;
        std::cout << "Fig. 12" << (fit == 1.0 ? "a" : "b")
                  << ": expected DUEs per system, " << fit << "x FIT, "
                  << bench.nodes() << " nodes, " << bench.trials()
                  << " trials\n\n";
        if (!runRepairMatrix(bench, config, &LifetimeSummary::dues, "DUEs",
                             fit == 1.0 ? "1x-fit" : "10x-fit"))
            break;
        std::cout << "\n";
    }
    return bench.finish();
}
