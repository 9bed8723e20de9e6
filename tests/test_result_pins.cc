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
 * A change that moves a stream on purpose regenerates the pins in the
 * same change, and says why in CHANGES.md:
 *
 *   RELAXFAULT_UPDATE_PINS=1 ./build/tests/test_result_pins
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

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
        out << "# <bench> <unit> <LifetimeSummary::digest> at 512 nodes, "
               "2 trials, default seed.\n"
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
    // The sweep points of bench/fig09_fault_model_sensitivity.cc.
    const struct
    {
        const char *panel;
        std::vector<std::pair<double, double>> points;
    } sweeps[] = {
        {"factor-sweep/",
         {{1.0, 0.001}, {50.0, 0.001}, {100.0, 0.001}, {150.0, 0.001},
          {200.0, 0.001}}},
        {"fraction-sweep/",
         {{1.0, 0.0}, {100.0, 0.0001}, {100.0, 0.001}, {100.0, 0.002},
          {100.0, 0.003}, {100.0, 0.004}, {100.0, 0.005}}},
    };
    for (const auto &sweep : sweeps) {
        unsigned index = 0;
        for (const auto &[factor, fraction] : sweep.points) {
            LifetimeConfig config = bench->config();
            if (factor <= 1.0) {
                config.faultModel.accelerationEnabled = false;
            } else {
                config.faultModel.accelerationFactor = factor;
                config.faultModel.acceleratedNodeFraction = fraction;
                config.faultModel.acceleratedDimmFraction = fraction;
            }
            const LifetimeSimulator simulator(config);
            runPinned(*bench, digests,
                      sweep.panel + std::to_string(index++), simulator, {});
        }
    }
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

} // namespace
} // namespace relaxfault
