/**
 * @file
 * Reproduces paper Fig. 15: weighted speedup (Eq. 2) of the Table 3
 * system under LLC capacity dedicated to RelaxFault repair: none, a
 * 100KiB random placement, 1 locked way, and 4 locked ways.
 *
 * Paper anchors: no benchmark except LULESH shows perceptible
 * sensitivity even to 4 locked ways (LULESH loses ~7%); the realistic
 * 100KiB configuration is indistinguishable from no repair.
 */

#include <iostream>
#include <map>

#include "bench_json.h"
#include "common/cli.h"
#include "common/table.h"
#include "perf/perf_sim.h"

using namespace relaxfault;
using relaxfault::bench::BenchReport;

namespace {

/** Per-core workload list of a named Fig. 15 group. */
std::vector<WorkloadParams>
groupWorkloads(const std::string &group, unsigned cores)
{
    std::vector<std::string> names;
    if (group == "MEM") {
        names = WorkloadParams::specMemMix();
    } else if (group == "COMP") {
        names = WorkloadParams::specCompMix();
    } else {
        names.assign(cores, group);  // Multi-threaded: one app, N threads.
    }
    std::vector<WorkloadParams> workloads;
    for (unsigned i = 0; i < cores; ++i)
        workloads.push_back(WorkloadParams::preset(names[i % names.size()]));
    return workloads;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions options(argc, argv, {"instructions", "seed", "json"});
    PerfConfig config;
    config.instructionsPerCore = static_cast<uint64_t>(
        options.getPositiveInt("instructions", 1'000'000));
    const auto seed = static_cast<uint64_t>(options.getInt("seed", 1515));
    PerfSimulator simulator(config);

    BenchReport report(options, "fig15_performance");
    report.record().setSeed(seed);
    report.record().setConfig("instructions", static_cast<int64_t>(
        config.instructionsPerCore));
    simulator.setTelemetry(report.metrics());

    std::cout << "Table 3 system: 8-core 4GHz, 32KiB L1 / 128KiB L2 "
                 "private, 8MiB 16-way shared LLC,\n2 DDR3-1600 channels "
                 "x 2 ranks x 8 banks, FR-FCFS open page, bank XOR "
                 "hash.\nTable 4 workloads: NPB CG/DC/LU/SP/UA, LULESH, "
                 "SPEC MEM/COMP mixes ("
              << config.instructionsPerCore / 1000
              << "K instructions per core).\n\n";

    const std::vector<std::string> groups = {"CG", "DC", "LU", "SP", "UA",
                                             "LULESH", "MEM", "COMP"};
    const std::vector<LlcRepairConfig> repairs = {
        LlcRepairConfig::none(),
        LlcRepairConfig::randomBytes(100 * 1024, seed),
        LlcRepairConfig::ways(1),
        LlcRepairConfig::ways(4),
    };

    std::cout << "Fig. 15: weighted speedup\n\n";
    TextTable table;
    table.setHeader({"workload", "no-repair", "100KiB", "1-way", "4-way",
                     "4-way-loss"});
    std::map<std::string, double> alone_cache;
    for (const auto &group : groups) {
        const auto workloads = groupWorkloads(group, config.cores);

        // Alone-run baselines (full LLC), one per distinct preset.
        std::vector<double> alone;
        for (const auto &workload : workloads) {
            auto cached = alone_cache.find(workload.name);
            if (cached == alone_cache.end()) {
                cached = alone_cache
                             .emplace(workload.name,
                                      simulator.aloneIpc(workload,
                                                         seed + 1))
                             .first;
            }
            alone.push_back(cached->second);
        }

        std::vector<std::string> row = {group};
        double base_ws = 0.0;
        double four_way_ws = 0.0;
        for (const auto &repair : repairs) {
            const PerfResult shared =
                simulator.run(workloads, repair, seed);
            const double ws = weightedSpeedup(shared, alone);
            if (repair.kind == LlcRepairConfig::Kind::None)
                base_ws = ws;
            if (repair.kind == LlcRepairConfig::Kind::LockedWays &&
                repair.lockedWays == 4)
                four_way_ws = ws;
            row.push_back(TextTable::num(ws, 3));
            report.addRow()
                .set("workload", group)
                .set("repair", repair.label())
                .set("weighted_speedup", ws);
        }
        row.push_back(
            TextTable::num(100.0 * (1.0 - four_way_ws / base_ws), 1) +
            "%");
        table.addRow(row);
    }
    table.print(std::cout);
    report.write();
    return 0;
}
