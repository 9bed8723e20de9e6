/**
 * @file
 * Reproduces paper Fig. 16: DRAM dynamic power consumption relative to
 * the full-capacity LLC (no repair), for the multi-threaded workloads,
 * under 100KiB / 1-way / 4-way RelaxFault repair.
 *
 * Power follows the Micron TN-41-01 model from counted DRAM operations.
 * Paper anchors: power tracks performance — only DC and LULESH move
 * perceptibly at 4 ways; the 100KiB configuration is within noise of no
 * repair everywhere.
 */

#include <iostream>

#include "bench_json.h"
#include "common/cli.h"
#include "common/table.h"
#include "dram/power.h"
#include "perf/perf_sim.h"

using namespace relaxfault;
using relaxfault::bench::BenchReport;

int
main(int argc, char **argv)
{
    const CliOptions options(argc, argv, {"instructions", "seed", "json"});
    PerfConfig config;
    config.instructionsPerCore = static_cast<uint64_t>(
        options.getPositiveInt("instructions", 1'000'000));
    const auto seed = static_cast<uint64_t>(options.getInt("seed", 1616));
    PerfSimulator simulator(config);

    BenchReport report(options, "fig16_dram_power");
    report.record().setSeed(seed);
    report.record().setConfig("instructions", static_cast<int64_t>(
        config.instructionsPerCore));
    simulator.setTelemetry(report.metrics());

    const DramPowerModel power_model(
        DramPowerParams{}, config.dramTiming,
        PerfConfig::dramGeometry().devicesPerRank());

    const std::vector<LlcRepairConfig> repairs = {
        LlcRepairConfig::none(),
        LlcRepairConfig::randomBytes(100 * 1024, seed),
        LlcRepairConfig::ways(1),
        LlcRepairConfig::ways(4),
    };

    std::cout << "Fig. 16: relative DRAM dynamic power (%) vs full LLC "
                 "capacity, multi-threaded workloads\n\n";
    TextTable table;
    table.setHeader({"workload", "no-repair(mW)", "100KiB(%)", "1-way(%)",
                     "4-way(%)"});
    for (const auto &name : WorkloadParams::multiThreadedNames()) {
        const std::vector<WorkloadParams> workloads(
            config.cores, WorkloadParams::preset(name));
        std::vector<std::string> row = {name};
        double baseline_mw = 0.0;
        for (const auto &repair : repairs) {
            const PerfResult result =
                simulator.run(workloads, repair, seed);
            const double mw = power_model.dynamicPowerMw(result.dram);
            if (repair.kind == LlcRepairConfig::Kind::None) {
                baseline_mw = mw;
                row.push_back(TextTable::num(mw, 1));
            } else {
                row.push_back(TextTable::num(100.0 * mw / baseline_mw, 1));
            }
            report.addRow()
                .set("workload", name)
                .set("repair", repair.label())
                .set("dynamic_power_mw", mw)
                .set("relative_power_pct", 100.0 * mw / baseline_mw);
        }
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\n(dynamic power only; background power, roughly half "
                 "of DRAM total, is unaffected by repair)\n";
    report.write();
    return 0;
}
