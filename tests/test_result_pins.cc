/**
 * @file
 * Cross-commit result pins: the digest (`LifetimeSummary::digest`, an
 * FNV-1a over every statistic) of each Fig. 9, 12, 13 and 14 unit and
 * of the `fleet_scale` unit, at a tiny config (512 nodes, 2 trials,
 * each bench's default seed), checked against `tests/result_pins.txt`.
 * The units run through the benches' own harness (`LifetimeBench`), so
 * a change that moves any random stream of these figures fails here,
 * in tier-1. `fleet_scale` is checked in-process and at two workers
 * against the same pin.
 *
 * The Fig. 8, 10 and 11 coverage rows are pinned too, as a digest of
 * each `CoverageResult` (its counts and capacity-histogram bins) at
 * 1000 faulty nodes and the benches' default seed; Fig. 8 also at every
 * non-default `--mapping` scheme, and `ablation_mapping`'s hash-only
 * RelaxFault row, whose placement is not linear.
 *
 * A change that moves a stream on purpose regenerates the pins in the
 * same change, and says why in CHANGES.md:
 *
 *   RELAXFAULT_UPDATE_PINS=1 ./build/tests/test_result_pins
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "coverage_curves.h"
#include "lifetime_bench.h"

namespace relaxfault {
namespace {

using bench::LifetimeBench;
using bench::LifetimeBenchSpec;

/** "bench unit" -> digest. */
using Digests = std::map<std::string, std::string>;

Digests
loadPins()
{
    Digests pins;
    std::ifstream in(RELAXFAULT_PINS_FILE);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string bench_name, unit, digest;
        if (fields >> bench_name >> unit >> digest)
            pins[bench_name + " " + unit] = digest;
    }
    return pins;
}

/**
 * Compare @p actual with the committed pins, or with
 * RELAXFAULT_UPDATE_PINS set, merge it into the pin file instead.
 */
void
checkPins(const Digests &actual)
{
    ASSERT_FALSE(actual.empty());
    Digests pins = loadPins();
    if (std::getenv("RELAXFAULT_UPDATE_PINS") != nullptr) {
        for (const auto &[key, digest] : actual)
            pins[key] = digest;
        std::ofstream out(RELAXFAULT_PINS_FILE, std::ios::trunc);
        out << "# <bench> <unit> <digest>: LifetimeSummary::digest at 512 "
               "nodes, 2 trials; coverage digests at 1000 faulty nodes; "
               "default seeds.\n"
               "# Regenerate: RELAXFAULT_UPDATE_PINS=1 "
               "./build/tests/test_result_pins\n";
        for (const auto &[key, digest] : pins)
            out << key << " " << digest << "\n";
        ASSERT_TRUE(out.good()) << "cannot write " << RELAXFAULT_PINS_FILE;
        return;
    }
    for (const auto &[key, digest] : actual) {
        const auto pin = pins.find(key);
        ASSERT_NE(pin, pins.end())
            << "no pin for " << key
            << "; regenerate with RELAXFAULT_UPDATE_PINS=1";
        EXPECT_EQ(pin->second, digest)
            << key << ": a random stream moved. If on purpose, regenerate "
                      "the pins (see tests/test_result_pins.cc) and say "
                      "why in CHANGES.md";
    }
}

/** @p spec's bench at the pin config, plus @p extra flags. */
std::unique_ptr<LifetimeBench>
tinyBench(const LifetimeBenchSpec &spec,
          const std::vector<std::string> &extra = {})
{
    std::vector<std::string> args = {spec.name, "--trials=2",
                                      "--nodes=512", "--threads=2"};
    args.insert(args.end(), extra.begin(), extra.end());
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return std::make_unique<LifetimeBench>(static_cast<int>(argv.size()),
                                           argv.data(), spec);
}

/** Runs one unit and records its digest under `<bench> <unit>`. */
void
runPinned(LifetimeBench &bench, Digests &digests, const std::string &unit,
          const LifetimeSimulator &simulator,
          const LifetimeSimulator::MechanismFactory &factory)
{
    const CampaignResult result = bench.runUnit(unit, simulator, factory);
    ASSERT_FALSE(result.interrupted) << unit;
    ASSERT_TRUE(result.quarantinedShards.empty()) << unit;
    digests[bench.fingerprint().campaign + " " + unit] =
        result.summary.digest();
}

/** The Figs. 12-14 matrix on @p config as units `panel/<row>`. */
void
runMatrix(LifetimeBench &bench, Digests &digests,
          const LifetimeConfig &config, const std::string &panel)
{
    const DramGeometry geometry = config.faultModel.geometry;
    const DramAddressMap address_map =
        makeAddressMap(config.mapping, geometry);
    const LifetimeSimulator simulator(config);
    for (const bench::RepairMatrixRow &row : bench::repairMatrixRows()) {
        const bool none = row.spec.kind == bench::MechanismSpec::Kind::None;
        runPinned(bench, digests, panel + "/" + row.label, simulator,
                  none ? LifetimeSimulator::MechanismFactory{}
                       : bench::makeFactory(row.spec, geometry,
                                            address_map));
    }
}

TEST(ResultPins, Fig09SweepUnits)
{
    const auto bench = tinyBench(bench::kFig09Bench);
    Digests digests;
    // Each distinct config once, under the unit fig09 runs it as: a
    // point whose unit names an earlier point has no pin of its own.
    for (const bench::Fig09Point &point : bench::fig09Points()) {
        if (point.unit != point.panel + "/" + std::to_string(point.index))
            continue;
        const LifetimeSimulator simulator(point.apply(bench->config()));
        runPinned(*bench, digests, point.unit, simulator, {});
    }
    EXPECT_EQ(digests.size(), 10u);
    checkPins(digests);
}

/** Figs. 12 and 13: the matrix at 1x and 10x FIT, ReplA. */
void
checkDueSdcMatrix(const LifetimeBenchSpec &spec)
{
    const auto bench = tinyBench(spec);
    Digests digests;
    for (const double fit : {1.0, 10.0}) {
        LifetimeConfig config = bench->config();
        config.faultModel.fitScale = fit;
        runMatrix(*bench, digests, config,
                  fit == 1.0 ? "1x-fit" : "10x-fit");
    }
    checkPins(digests);
}

TEST(ResultPins, Fig12MatrixUnits)
{
    checkDueSdcMatrix(bench::kFig12Bench);
}

TEST(ResultPins, Fig13MatrixUnits)
{
    checkDueSdcMatrix(bench::kFig13Bench);
}

TEST(ResultPins, Fig14MatrixUnits)
{
    const auto bench = tinyBench(bench::kFig14Bench);
    Digests digests;
    // Panels a-d of bench/fig14_dimm_replacements.cc.
    char panel = 'a';
    for (const ReplacePolicy policy :
         {ReplacePolicy::AfterDue, ReplacePolicy::OnFrequentErrors}) {
        for (const double fit : {1.0, 10.0}) {
            LifetimeConfig config = bench->config();
            config.faultModel.fitScale = fit;
            config.policy = policy;
            runMatrix(*bench, digests, config, std::string("14") + panel++);
        }
    }
    checkPins(digests);
}

/** fleet_scale's one unit: RelaxFault-4way on the fleet engine. */
void
checkFleetScale(const std::vector<std::string> &extra)
{
    const auto bench = tinyBench(bench::kFleetScaleBench, extra);
    const FleetSimulator simulator(bench->config());
    Digests digests;
    runPinned(*bench, digests, "fleet", simulator,
              bench::makeFactory(bench::MechanismSpec::relaxFault(4),
                                 bench->config().faultModel.geometry));
    checkPins(digests);
}

TEST(ResultPins, FleetScaleInProcess)
{
    checkFleetScale({});
}

TEST(ResultPins, FleetScaleAtTwoWorkers)
{
    SignalGuard::reset();
    checkFleetScale({"--workers=2"});
}

/** FNV-1a over @p result's counts and capacity-histogram bins. */
std::string
coverageDigest(const CoverageResult &result)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    const auto mix = [&hash](uint64_t word) {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (word >> (8 * byte)) & 0xff;
            hash *= 0x100000001b3ull;
        }
    };
    const Histogram &bins = result.capacityHistogram;
    for (const uint64_t count :
         {result.nodesSampled, result.faultyNodes, result.repairedNodes,
          uint64_t{bins.binCount()}})
        mix(count);
    for (size_t bin = 0; bin < bins.binCount(); ++bin)
        mix(std::bit_cast<uint64_t>(bins.binWeight(bin)));
    mix(std::bit_cast<uint64_t>(bins.overflowWeight()));
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(hash));
    return hex;
}

/** The pinned coverage config at @p fit. */
CoverageConfig
coverageConfig(double fit)
{
    CoverageConfig config;
    config.faultModel.fitScale = fit;
    config.faultyNodeTarget = 1000;
    return config;
}

/** Digest of one coverage run on the benches' default --seed. */
std::string
coverageRunDigest(const CoverageEvaluator &evaluator,
                  const CoverageEvaluator::MechanismFactory &factory)
{
    Rng rng(20160618);
    return coverageDigest(evaluator.run(factory, rng));
}

/**
 * @p specs' coverage runs at @p fit on the @p mapping address map, as
 * units `<label>`, or `<mapping>/<label>` off the default map.
 */
void
checkCoverage(const std::string &bench_name,
              const std::vector<bench::MechanismSpec> &specs, double fit,
              const std::string &mapping = "fig7a")
{
    const CoverageConfig config = coverageConfig(fit);
    const CoverageEvaluator evaluator(config);
    const DramGeometry &geometry = config.faultModel.geometry;
    const DramAddressMap address_map = makeAddressMap(mapping, geometry);
    const std::string prefix = mapping == "fig7a" ? "" : mapping + "/";
    Digests digests;
    for (const bench::MechanismSpec &spec : specs) {
        digests[bench_name + " " + prefix + spec.label] = coverageRunDigest(
            evaluator, bench::makeFactory(spec, geometry, address_map));
    }
    checkPins(digests);
}

TEST(ResultPins, Fig08HashSensitivityRows)
{
    checkCoverage("fig08_hash_sensitivity", bench::hashSensitivitySpecs(),
                  1.0);
}

/** Fig. 8 at every other registered address map (`--mapping`). */
TEST(ResultPins, Fig08HashSensitivityRowsOffDefaultMaps)
{
    for (const std::string &mapping : addressMapNames()) {
        if (mapping != "fig7a") {
            checkCoverage("fig08_hash_sensitivity",
                          bench::hashSensitivitySpecs(), 1.0, mapping);
        }
    }
}

/** ablation_mapping's hash-only RelaxFault (no linear placement). */
TEST(ResultPins, AblationHashOnlyRow)
{
    const CoverageConfig config = coverageConfig(1.0);
    const CoverageEvaluator evaluator(config);
    const DramGeometry geometry = config.faultModel.geometry;
    const CacheGeometry llc = bench::paperLlc();
    const RepairBudget budget{1, bench::kCoverageCapBytes / llc.lineBytes};
    Digests digests;
    digests["ablation_mapping RelaxFault-hashonly"] = coverageRunDigest(
        evaluator, [&] {
            return std::make_unique<RelaxFaultRepair>(
                geometry, llc, budget, RelaxFaultMap::IndexMode::HashOnly);
        });
    checkPins(digests);
}

TEST(ResultPins, Fig10CoverageCurves)
{
    checkCoverage("fig10_coverage_base_fit", bench::coverageCurveSpecs(),
                  1.0);
}

TEST(ResultPins, Fig11CoverageCurves)
{
    checkCoverage("fig11_coverage_10x_fit", bench::coverageCurveSpecs(),
                  10.0);
}

} // namespace
} // namespace relaxfault
