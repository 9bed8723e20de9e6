/**
 * @file
 * Reproduces paper Fig. 11: cumulative repair coverage vs required LLC
 * capacity at 10x the baseline FIT rates.
 *
 * Paper anchors: RelaxFault-1way 84% (<93KiB); RelaxFault-4way >95%
 * (<256KiB); PPR drops to ~63%.
 */

#include <iostream>

#include "coverage_curves.h"

int
main(int argc, char **argv)
{
    const relaxfault::CliOptions options(
        argc, argv, {"faulty-nodes", "seed", "json"});
    std::cout << "Fig. 11: repair coverage (%) vs required LLC capacity, "
                 "10x FIT\n\n";
    relaxfault::bench::BenchReport report(options,
                                          "fig11_coverage_10x_fit");
    relaxfault::bench::runCoverageCurves(10.0, options, &report);
    report.write();
    return 0;
}
