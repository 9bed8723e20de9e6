/**
 * @file
 * Ablation/validation of the fault-model inputs:
 *
 *  1. Cielo vs Hopper rates — the paper states (Sec. 4.1.2) that
 *     applying rates from other reported systems has little impact on
 *     RelaxFault's results; we check the headline coverage.
 *  2. Sensitivity of the coverage conclusions to the two calibration
 *     constants the paper does not publish (column-fault extent and the
 *     bank-fault extent mixture): the RelaxFault > FreeFault ordering
 *     and magnitudes should be robust across a wide band.
 */

#include <iostream>

#include "bench_json.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "repair/coverage.h"

using namespace relaxfault;
using namespace relaxfault::bench;

namespace {

struct Outcome
{
    double relax = 0.0;
    double free_fault = 0.0;
};

Outcome
coverageFor(const FaultModelConfig &model, uint64_t faulty_nodes,
            uint64_t seed)
{
    CoverageConfig config;
    config.faultModel = model;
    config.faultyNodeTarget = faulty_nodes;
    const CoverageEvaluator evaluator(config);
    const CacheGeometry llc = paperLlc();
    const RepairBudget budget{1, 32768};
    const DramAddressMap map = makeAddressMap("fig7a", model.geometry);

    Outcome outcome;
    Rng rng_a(seed);
    outcome.relax =
        evaluator
            .run(
                [&] {
                    return std::make_unique<RelaxFaultRepair>(
                        model.geometry, llc, budget, true);
                },
                rng_a)
            .coverage();
    Rng rng_b(seed);
    outcome.free_fault =
        evaluator
            .run(
                [&] {
                    return std::make_unique<FreeFaultRepair>(map, llc,
                                                             budget, true);
                },
                rng_b)
            .coverage();
    return outcome;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions options(argc, argv, {"faulty-nodes", "seed", "json"});
    const uint64_t faulty_nodes = static_cast<uint64_t>(
        options.getPositiveInt("faulty-nodes", 8000));
    const uint64_t seed =
        static_cast<uint64_t>(options.getInt("seed", 20160618));

    BenchReport report(options, "ablation_fault_model");
    report.record().setSeed(seed);
    report.record().setConfig("faulty_nodes",
                              static_cast<int64_t>(faulty_nodes));

    std::cout << "Fault-model ablations (1-way budget, coverage %)\n\n";

    {
        std::cout << "1) Field-study rate source (paper: little "
                     "impact)\n\n";
        TextTable table;
        table.setHeader({"rates", "RelaxFault-1way", "FreeFault-1way"});
        for (const auto &[name, rates] :
             {std::pair<const char *, FitRates>{"Cielo",
                                                FitRates::cielo()},
              std::pair<const char *, FitRates>{"Hopper",
                                                FitRates::hopper()}}) {
            FaultModelConfig model;
            model.rates = rates;
            const Outcome outcome =
                coverageFor(model, faulty_nodes, seed);
            table.addRow({name, TextTable::num(100 * outcome.relax, 1),
                          TextTable::num(100 * outcome.free_fault, 1)});
            report.addRow()
                .set("panel", "rate-source")
                .set("rates", name)
                .set("relaxfault_coverage", outcome.relax)
                .set("freefault_coverage", outcome.free_fault);
        }
        table.print(std::cout);
    }

    {
        std::cout << "\n2) Column-fault extent (calibrated mean rows "
                     "per column fault)\n\n";
        TextTable table;
        table.setHeader({"columnRowsMean", "RelaxFault-1way",
                         "FreeFault-1way", "gap"});
        for (const double mean : {30.0, 60.0, 90.0, 180.0}) {
            FaultModelConfig model;
            model.geometryParams.columnRowsMean = mean;
            const Outcome outcome =
                coverageFor(model, faulty_nodes, seed);
            table.addRow({TextTable::num(mean, 0),
                          TextTable::num(100 * outcome.relax, 1),
                          TextTable::num(100 * outcome.free_fault, 1),
                          TextTable::num(
                              100 * (outcome.relax - outcome.free_fault),
                              1)});
            report.addRow()
                .set("panel", "column-extent")
                .set("column_rows_mean", mean)
                .set("relaxfault_coverage", outcome.relax)
                .set("freefault_coverage", outcome.free_fault);
        }
        table.print(std::cout);
    }

    {
        std::cout << "\n3) Bank-fault extent mixture (medium share; "
                     "small share shrinks to match)\n\n";
        TextTable table;
        table.setHeader({"bankMediumProb", "RelaxFault-1way",
                         "FreeFault-1way", "gap"});
        for (const double medium : {0.20, 0.35, 0.50}) {
            FaultModelConfig model;
            model.geometryParams.bankMediumProb = medium;
            model.geometryParams.bankSmallProb = 0.80 - medium;
            const Outcome outcome =
                coverageFor(model, faulty_nodes, seed);
            table.addRow({TextTable::num(medium, 2),
                          TextTable::num(100 * outcome.relax, 1),
                          TextTable::num(100 * outcome.free_fault, 1),
                          TextTable::num(
                              100 * (outcome.relax - outcome.free_fault),
                              1)});
            report.addRow()
                .set("panel", "bank-extent-mix")
                .set("bank_medium_prob", medium)
                .set("relaxfault_coverage", outcome.relax)
                .set("freefault_coverage", outcome.free_fault);
        }
        table.print(std::cout);
    }

    std::cout << "\nThe RelaxFault advantage persists across the whole "
                 "calibration band; the absolute\ncoverage moves by a "
                 "few points, which bounds the uncertainty our "
                 "unpublished-extent\nassumptions introduce into the "
                 "Fig. 8/10/11 reproductions.\n";
    report.write();
    return 0;
}
