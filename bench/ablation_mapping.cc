/**
 * @file
 * Ablation: which of RelaxFault's two ideas buys what?
 *
 *  1. *Coalescing* — a remap line holds one device's 64B, cutting line
 *     count by 16x (vs FreeFault's physical-block locking);
 *  2. *Structured placement* — the set index is built from {row-low,
 *     column-group}, so a row/column/subarray fault occupies distinct
 *     sets deterministically instead of birthday-colliding.
 *
 * Compared at a 1-way-per-set budget:
 *   FreeFault (hash)       - neither idea
 *   RelaxFault hash-only   - coalescing only (placement is a pure hash)
 *   RelaxFault structured  - both, no tag fold
 *   RelaxFault folded      - both + tag fold (the paper's design)
 */

#include <iostream>

#include "bench_json.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "repair/coverage.h"

using namespace relaxfault;
using namespace relaxfault::bench;

int
main(int argc, char **argv)
{
    const CliOptions options(
        argc, argv, {"faulty-nodes", "seed", "json", "mapping"});
    CoverageConfig config;
    config.faultyNodeTarget = static_cast<uint64_t>(
        options.getPositiveInt("faulty-nodes", 15000));
    const uint64_t seed =
        static_cast<uint64_t>(options.getInt("seed", 20160618));
    const std::string mapping = mappingFlag(options);

    BenchReport report(options, "ablation_mapping");
    report.record().setSeed(seed);
    report.record().setConfig("faulty_nodes", static_cast<int64_t>(
        config.faultyNodeTarget));
    report.record().setConfig("mapping", mapping);

    const CoverageEvaluator evaluator(config);
    const DramGeometry geometry = config.faultModel.geometry;
    const CacheGeometry llc = paperLlc();
    const RepairBudget budget{1, kCoverageCapBytes / llc.lineBytes};
    const DramAddressMap address_map = makeAddressMap(mapping, geometry);

    struct Variant
    {
        const char *label;
        const char *ideas;
        CoverageEvaluator::MechanismFactory factory;
    };
    const std::vector<Variant> variants = {
        {"FreeFault (hash)", "neither",
         [&] {
             return std::make_unique<FreeFaultRepair>(address_map, llc,
                                                      budget, true);
         }},
        {"RelaxFault hash-only", "coalescing",
         [&] {
             return std::make_unique<RelaxFaultRepair>(
                 geometry, llc, budget,
                 RelaxFaultMap::IndexMode::HashOnly);
         }},
        {"RelaxFault structured", "coalescing + placement",
         [&] {
             return std::make_unique<RelaxFaultRepair>(
                 geometry, llc, budget,
                 RelaxFaultMap::IndexMode::Structured);
         }},
        {"RelaxFault folded", "coalescing + placement + fold",
         [&] {
             return std::make_unique<RelaxFaultRepair>(
                 geometry, llc, budget,
                 RelaxFaultMap::IndexMode::StructuredFolded);
         }},
    };

    std::cout << "Ablation: RelaxFault design ideas, 1-way-per-set "
                 "budget, 1x FIT\n\n";
    TextTable table;
    table.setHeader({"variant", "ideas", "coverage(%)",
                     "coverage@128KiB(%)"});
    for (const auto &variant : variants) {
        Rng rng(seed);  // Identical fault population per variant.
        const CoverageResult result = evaluator.run(variant.factory, rng);
        table.addRow({variant.label, variant.ideas,
                      TextTable::num(100.0 * result.coverage(), 1),
                      TextTable::num(
                          100.0 * result.coverageAtCapacity(128 * 1024),
                          1)});
        report.addRow()
            .set("variant", variant.label)
            .set("ideas", variant.ideas)
            .set("coverage", result.coverage())
            .set("coverage_at_128kib",
                 result.coverageAtCapacity(128 * 1024));
    }
    table.print(std::cout);
    std::cout << "\nReading: coalescing with *random* placement can even "
                 "lose to FreeFault under a\n1-way budget - column/"
                 "subarray faults birthday-collide in sets. The "
                 "structured\nindex (the paper's actual contribution) "
                 "removes those collisions by construction\nwhile "
                 "keeping the 16x line-count advantage.\n";
    report.write();
    return 0;
}
