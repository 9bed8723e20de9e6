/**
 * @file
 * Extension bench: quantifies the paper's Sec. 6 comparison against the
 * coarser repair alternatives it discusses qualitatively —
 *
 *  - OS page retirement (AIX / Solaris / NVIDIA): unmap 4KiB frames
 *    covering faulty cells; costs DRAM capacity and is bounded by an OS
 *    retirement budget;
 *  - device sparing / bit-steering (IBM Memory ProteXion, Intel DDDC):
 *    steer a whole faulty device into the rank's redundant device; free
 *    and powerful but one-shot per rank and ECC-degrading.
 *
 * Reported: repair coverage, plus each mechanism's own cost metric
 * (LLC bytes, retired DRAM capacity, degraded ranks).
 */

#include <iostream>

#include "bench_json.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "repair/coverage.h"
#include "repair/device_sparing.h"
#include "repair/page_retirement.h"

using namespace relaxfault;
using namespace relaxfault::bench;

int
main(int argc, char **argv)
{
    const CliOptions options(
        argc, argv, {"faulty-nodes", "seed", "page-budget-mib", "json"});
    CoverageConfig config;
    config.faultyNodeTarget = static_cast<uint64_t>(
        options.getPositiveInt("faulty-nodes", 15000));
    const uint64_t seed =
        static_cast<uint64_t>(options.getInt("seed", 20160618));
    const uint64_t page_budget = static_cast<uint64_t>(
        options.getPositiveInt("page-budget-mib", 64)) << 20;

    BenchReport report(options, "ext_retirement_comparison");
    report.record().setSeed(seed);
    report.record().setConfig("faulty_nodes", static_cast<int64_t>(
        config.faultyNodeTarget));
    report.record().setConfig("page_budget_mib",
                              static_cast<int64_t>(page_budget >> 20));

    const CoverageEvaluator evaluator(config);
    const DramGeometry geometry = config.faultModel.geometry;
    const CacheGeometry llc = paperLlc();
    const DramAddressMap address_map = makeAddressMap("fig7a", geometry);

    std::cout << "Extension: RelaxFault vs the coarse retirement "
                 "alternatives of Sec. 6\n(page budget "
              << (page_budget >> 20) << "MiB per node)\n\n";

    TextTable table;
    table.setHeader({"mechanism", "coverage(%)", "cost of repair"});

    {
        Rng rng(seed);
        const CoverageResult r = evaluator.run(
            [&] {
                return std::make_unique<RelaxFaultRepair>(
                    geometry, llc, RepairBudget{1, 32768}, true);
            },
            rng);
        table.addRow({"RelaxFault-1way",
                      TextTable::num(100.0 * r.coverage(), 1),
                      "<=" + TextTable::num(uint64_t{
                          r.capacityForQuantile(0.999) / 1024}) +
                          "KiB of LLC"});
        report.addRow()
            .set("mechanism", "RelaxFault-1way")
            .set("coverage", r.coverage())
            .set("llc_capacity_99.9pct_kib",
                 r.capacityForQuantile(0.999) / 1024);
    }
    {
        // Track average retired capacity with a shared accumulator.
        Rng rng(seed);
        double retired_sum = 0.0;
        uint64_t repaired = 0;
        const CoverageResult r = evaluator.run(
            [&]() -> std::unique_ptr<RepairMechanism> {
                class Counting : public PageRetirement
                {
                  public:
                    Counting(const DramAddressMap &map, uint64_t page,
                             uint64_t budget, double &sum,
                             uint64_t &count)
                        : PageRetirement(map, page, budget), sum_(sum),
                          count_(count)
                    {
                    }
                    bool
                    tryRepair(const FaultRecord &fault) override
                    {
                        const bool ok = PageRetirement::tryRepair(fault);
                        if (ok) {
                            sum_ += static_cast<double>(retiredBytes());
                            ++count_;
                        }
                        return ok;
                    }

                  private:
                    double &sum_;
                    uint64_t &count_;
                };
                return std::make_unique<Counting>(
                    address_map, 4096, page_budget, retired_sum,
                    repaired);
            },
            rng);
        const double avg_kib =
            repaired ? retired_sum / repaired / 1024.0 : 0.0;
        table.addRow({"PageRetirement-4KiB",
                      TextTable::num(100.0 * r.coverage(), 1),
                      TextTable::num(avg_kib, 0) +
                          "KiB of DRAM retired (avg after a repair)"});
        report.addRow()
            .set("mechanism", "PageRetirement-4KiB")
            .set("coverage", r.coverage())
            .set("avg_retired_kib", avg_kib);
    }
    {
        Rng rng(seed);
        const CoverageResult r = evaluator.run(
            [&] { return std::make_unique<DeviceSparing>(geometry, 1); },
            rng);
        table.addRow({"DeviceSparing (DDDC)",
                      TextTable::num(100.0 * r.coverage(), 1),
                      "1 check device per repaired rank: chipkill "
                      "degraded to detect-only"});
        report.addRow()
            .set("mechanism", "DeviceSparing-DDDC")
            .set("coverage", r.coverage());
    }
    table.print(std::cout);

    std::cout << "\nReading: device sparing covers even massive faults "
                 "but burns the rank's ECC margin\nand cannot absorb a "
                 "second faulty device; page retirement pays hundreds of "
                 "frames\nfor one device row because the swizzled "
                 "mapping scatters it across the PA space.\n";
    report.write();
    return 0;
}
