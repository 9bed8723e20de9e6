/**
 * @file
 * Extension bench: RelaxFault across memory organizations.
 *
 * The paper argues (Sec. 2) that DDR3/DDR4 DIMMs, LPDDR, and stacked
 * designs are "almost equivalent" for RelaxFault because they share the
 * same device organization. This bench re-runs the 1-way / 4-way repair
 * coverage on the four geometry presets and reports the capacity needed,
 * checking that the mechanism's effectiveness is organization-agnostic.
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
    const CliOptions options(argc, argv, {"faulty-nodes", "seed", "json"});
    const uint64_t faulty_target = static_cast<uint64_t>(
        options.getPositiveInt("faulty-nodes", 10000));
    const uint64_t seed =
        static_cast<uint64_t>(options.getInt("seed", 20160618));

    BenchReport report(options, "ext_organizations");
    report.record().setSeed(seed);
    report.record().setConfig("faulty_nodes",
                              static_cast<int64_t>(faulty_target));

    const struct
    {
        const char *name;
        DramGeometry geometry;
    } organizations[] = {
        {"DDR3 DIMM (paper)", DramGeometry::ddr3Dimm()},
        {"DDR4 DIMM", DramGeometry::ddr4Dimm()},
        {"LPDDR4 soldered", DramGeometry::lpddr4()},
        {"HBM-style stack", DramGeometry::hbmStack()},
    };

    std::cout << "Extension: RelaxFault repair coverage across memory "
                 "organizations (1x FIT, 6 years)\n\n";
    TextTable table;
    table.setHeader({"organization", "node-capacity", "1-way(%)",
                     "4-way(%)", "99.9%-capacity(KiB)"});
    for (const auto &organization : organizations) {
        CoverageConfig config;
        config.faultModel.geometry = organization.geometry;
        config.faultyNodeTarget = faulty_target;
        const CoverageEvaluator evaluator(config);
        const CacheGeometry llc = paperLlc();

        std::vector<std::string> row = {
            organization.name,
            TextTable::num(organization.geometry.nodeBytes() >> 30) +
                "GiB"};
        uint64_t quantile = 0;
        for (const unsigned ways : {1u, 4u}) {
            Rng rng(seed);
            const CoverageResult result = evaluator.run(
                [&] {
                    return std::make_unique<RelaxFaultRepair>(
                        organization.geometry, llc,
                        RepairBudget{ways, 32768}, true);
                },
                rng);
            row.push_back(TextTable::num(100.0 * result.coverage(), 1));
            if (ways == 1)
                quantile = result.capacityForQuantile(0.999) / 1024;
            report.addRow()
                .set("organization", organization.name)
                .set("ways", ways)
                .set("coverage", result.coverage())
                .set("node_capacity_bytes",
                     organization.geometry.nodeBytes());
        }
        report.addRow()
            .set("organization", organization.name)
            .set("metric", "capacity_for_99.9pct_kib")
            .set("value", quantile);
        row.push_back(TextTable::num(quantile));
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\nThe coalescing map derives its fields from the "
                 "geometry, so coverage holds across\norganizations; "
                 "smaller device rows (LPDDR/HBM) need proportionally "
                 "fewer remap lines.\n";
    report.write();
    return 0;
}
