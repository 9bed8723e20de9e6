/**
 * @file
 * Reproduces paper Fig. 10: cumulative repair coverage vs required LLC
 * capacity at the baseline (1x) Cielo FIT rates, for PPR and
 * {Free,Relax}Fault x {1,4,16}-way.
 *
 * Paper anchors: RelaxFault-1way saturates at 90% (<82KiB);
 * RelaxFault-4way ~97% (~256KiB); FreeFault-1way 84%; PPR ~73%.
 */

#include <iostream>

#include "coverage_curves.h"

int
main(int argc, char **argv)
{
    const relaxfault::CliOptions options(
        argc, argv, {"faulty-nodes", "seed", "json"});
    std::cout << "Fig. 10: repair coverage (%) vs required LLC capacity, "
                 "1x FIT\n\n";
    relaxfault::bench::BenchReport report(options,
                                          "fig10_coverage_base_fit");
    relaxfault::bench::runCoverageCurves(1.0, options, &report);
    report.write();
    return 0;
}
