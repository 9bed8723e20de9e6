/**
 * @file
 * Shared driver for the Fig. 10 / Fig. 11 coverage-vs-capacity curves,
 * and the mechanism lists of Figs. 8, 10 and 11 (also run by the
 * result pins).
 */

#ifndef RELAXFAULT_BENCH_COVERAGE_CURVES_H
#define RELAXFAULT_BENCH_COVERAGE_CURVES_H

#include <iostream>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "repair/coverage.h"

namespace relaxfault::bench {

/** The seven mechanisms of the Fig. 10 / 11 curves, in column order. */
inline std::vector<MechanismSpec>
coverageCurveSpecs()
{
    return {
        MechanismSpec::ppr(),
        MechanismSpec::freeFault(1),
        MechanismSpec::freeFault(4),
        MechanismSpec::freeFault(16),
        MechanismSpec::relaxFault(1),
        MechanismSpec::relaxFault(4),
        MechanismSpec::relaxFault(16),
    };
}

/** Fig. 8's rows: 1-way FreeFault and RelaxFault, without/with hashing. */
inline std::vector<MechanismSpec>
hashSensitivitySpecs()
{
    return {
        MechanismSpec::freeFault(1, false),
        MechanismSpec::freeFault(1, true),
        MechanismSpec::relaxFault(1, false),
        MechanismSpec::relaxFault(1, true),
    };
}

/**
 * Run the seven-mechanism coverage comparison at a FIT scale. A non-null
 * @p report gets one row per (mechanism, capacity) point.
 */
inline void
runCoverageCurves(double fit_scale, const CliOptions &options,
                  BenchReport *report = nullptr)
{
    CoverageConfig config;
    config.faultModel.fitScale = fit_scale;
    config.faultyNodeTarget = static_cast<uint64_t>(
        options.getPositiveInt("faulty-nodes", 20000));
    const uint64_t seed =
        static_cast<uint64_t>(options.getInt("seed", 20160618));
    if (report != nullptr) {
        report->record().setSeed(seed);
        report->record().setConfig("faulty_nodes", static_cast<int64_t>(
            config.faultyNodeTarget));
        report->record().setConfig("fit_scale", fit_scale);
    }

    const CoverageEvaluator evaluator(config);
    const DramGeometry geometry = config.faultModel.geometry;

    const std::vector<MechanismSpec> specs = coverageCurveSpecs();

    const uint64_t KiB = 1024;
    const std::vector<uint64_t> capacities = {
        64,        16 * KiB,  32 * KiB,   64 * KiB,   96 * KiB,
        128 * KiB, 192 * KiB, 256 * KiB,  512 * KiB,  1024 * KiB,
        1536 * KiB, 2048 * KiB};

    TextTable table;
    std::vector<std::string> header = {"capacity"};
    for (const auto &spec : specs)
        header.push_back(spec.label);
    table.setHeader(header);

    std::vector<CoverageResult> results;
    double faulty_fraction = 0.0;
    for (const auto &spec : specs) {
        Rng rng(seed);  // Identical fault population per mechanism.
        results.push_back(evaluator.run(makeFactory(spec, geometry), rng));
        faulty_fraction = results.back().faultyFraction();
    }

    for (const auto capacity : capacities) {
        std::vector<std::string> row = {
            capacity >= KiB ? std::to_string(capacity / KiB) + "KiB"
                            : std::to_string(capacity) + "B"};
        for (size_t m = 0; m < specs.size(); ++m) {
            // PPR needs no LLC capacity: its coverage is flat.
            const double value = specs[m].kind == MechanismSpec::Kind::Ppr
                ? results[m].coverage()
                : results[m].coverageAtCapacity(capacity);
            row.push_back(TextTable::num(100.0 * value, 1));
            if (report != nullptr) {
                report->addRow()
                    .set("mechanism", specs[m].label)
                    .set("capacity_bytes", capacity)
                    .set("coverage", value);
            }
        }
        table.addRow(row);
    }
    table.print(std::cout);

    std::cout << "\nfraction of nodes with any permanent fault over 6 "
                 "years: "
              << TextTable::num(100.0 * faulty_fraction, 1) << "%\n";
    std::cout << "capacity to reach 99.9% of RelaxFault-1way repairs: "
              << results[4].capacityForQuantile(0.999) / 1024 << "KiB\n";
    std::cout << "capacity to reach 99.9% of RelaxFault-4way repairs: "
              << results[5].capacityForQuantile(0.999) / 1024 << "KiB\n";
}

} // namespace relaxfault::bench

#endif // RELAXFAULT_BENCH_COVERAGE_CURVES_H
