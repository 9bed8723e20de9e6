/**
 * @file
 * Reproduces paper Fig. 14: expected DIMM replacements over 6 years in a
 * 16,384-node system under two replacement policies, at 1x and 10x FIT:
 *
 *   ReplA - replace after the first permanent-fault DUE;
 *   ReplB - replace when a fault's corrected-error stream exceeds a
 *           threshold within a service window (frequent errors).
 *
 * Paper anchors: repair cuts ReplA replacements sharply (RelaxFault-4way
 * by >10x, PPR ~4x); ReplB is ~350x more aggressive than ReplA; with
 * repair, ~87% of module replacements are avoided.
 */

#include <iostream>

#include "lifetime_bench.h"

using namespace relaxfault;
using namespace relaxfault::bench;

int
main(int argc, char **argv)
{
    LifetimeBench bench(argc, argv, kFig14Bench);
    const struct
    {
        const char *name;
        ReplacePolicy policy;
    } policies[] = {
        {"ReplA (after first DUE)", ReplacePolicy::AfterDue},
        {"ReplB (frequent errors)", ReplacePolicy::OnFrequentErrors},
    };

    char panel = 'a';
    bool completed = true;
    for (const auto &policy : policies) {
        for (const double fit : {1.0, 10.0}) {
            LifetimeConfig config = bench.config();
            config.faultModel.fitScale = fit;
            config.policy = policy.policy;
            std::cout << "Fig. 14" << panel << ": expected DIMM "
                      << "replacements, " << policy.name << ", " << fit
                      << "x FIT, " << bench.nodes() << " nodes, "
                      << bench.trials() << " trials\n\n";
            completed = runRepairMatrix(
                bench, config,
                [](const LifetimeSummary &s) -> const RunningStat &
                { return s.replacements; },
                "replacements", std::string("14") + panel);
            if (!completed)
                break;
            std::cout << "\n";
            ++panel;
        }
        if (!completed)
            break;
    }
    return bench.finish();
}
