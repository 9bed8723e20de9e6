/**
 * @file
 * Reproduces paper Fig. 8: cumulative repair coverage of RelaxFault and
 * FreeFault, with and without XOR-based LLC set-index hashing, when at
 * most 1 way in any LLC set may be used for repair.
 *
 * Paper values: FreeFault 74.0 (no hash) / 84.2 (hash);
 *               RelaxFault 89.0 (no hash) / 90.3 (hash).
 */

#include <iostream>

#include "coverage_curves.h"

using namespace relaxfault;
using namespace relaxfault::bench;

int
main(int argc, char **argv)
{
    const CliOptions options(
        argc, argv, {"faulty-nodes", "seed", "json", "mapping"});
    CoverageConfig config;
    config.faultyNodeTarget = static_cast<uint64_t>(
        options.getPositiveInt("faulty-nodes", 20000));
    const uint64_t seed =
        static_cast<uint64_t>(options.getInt("seed", 20160618));
    const std::string mapping = mappingFlag(options);

    BenchReport report(options, "fig08_hash_sensitivity");
    report.record().setSeed(seed);
    report.record().setConfig("faulty_nodes", static_cast<int64_t>(
        config.faultyNodeTarget));
    report.record().setConfig("mapping", mapping);

    const CoverageEvaluator evaluator(config);
    const DramGeometry geometry = config.faultModel.geometry;
    const DramAddressMap address_map = makeAddressMap(mapping, geometry);

    const std::vector<MechanismSpec> specs = hashSensitivitySpecs();
    const double paper[] = {74.0, 84.2, 89.0, 90.3};

    std::cout << "Fig. 8: repair coverage (%) with <=1 LLC way per set, "
                 "8x 8GiB DIMMs, 8MiB 16-way LLC\n\n";
    TextTable table;
    table.setHeader({"mechanism", "hash", "coverage(%)", "paper(%)",
                     "faulty-nodes"});
    unsigned row = 0;
    for (const auto &spec : specs) {
        Rng rng(seed);  // Same fault population for every mechanism.
        const CoverageResult result =
            evaluator.run(makeFactory(spec, geometry, address_map), rng);
        table.addRow({spec.kind == MechanismSpec::Kind::RelaxFault
                          ? "RelaxFault" : "FreeFault",
                      spec.hash ? "yes" : "no",
                      TextTable::num(100.0 * result.coverage(), 1),
                      TextTable::num(paper[row], 1),
                      TextTable::num(result.faultyNodes)});
        report.addRow()
            .set("mechanism",
                 spec.kind == MechanismSpec::Kind::RelaxFault
                     ? "RelaxFault" : "FreeFault")
            .set("hash", spec.hash)
            .set("coverage", result.coverage())
            .set("paper_coverage_pct", paper[row])
            .set("faulty_nodes",
                 static_cast<uint64_t>(result.faultyNodes));
        ++row;
    }
    table.print(std::cout);
    report.write();
    return 0;
}
