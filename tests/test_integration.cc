/**
 * @file
 * Cross-module integration tests: the statistical repair machinery and
 * the functional controller must agree; sampled faults must flow through
 * the whole stack (sampler -> repair -> datapath -> ECC) preserving
 * data; and the coverage evaluator's verdict must be reproducible from
 * the controller's behaviour.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "core/relaxfault_controller.h"
#include "faults/fault_model.h"
#include "repair/coverage.h"
#include "repair/freefault_repair.h"
#include "repair/relaxfault_repair.h"

namespace relaxfault {
namespace {

TEST(Integration, SampledFaultsThroughFullDatapath)
{
    // Sample realistic faulty nodes; for each repairable permanent
    // fault, the controller must keep previously-written data intact on
    // every line the fault touches (up to an enumeration cap).
    FaultModelConfig model_config;
    model_config.fitScale = 40.0;  // Densify faults for the test.
    model_config.accelerationEnabled = false;
    const NodeFaultSampler sampler(model_config);
    Rng rng(123);

    unsigned faults_checked = 0;
    unsigned nodes_tried = 0;
    while (faults_checked < 25 && nodes_tried < 200) {
        ++nodes_tried;
        const NodeSample node = sampler.sampleNode(rng);
        if (!node.anyPermanent())
            continue;

        ControllerConfig config;
        config.budget = RepairBudget{4, 32768};
        RelaxFaultController controller(config);

        for (const auto &fault : node.faults) {
            if (!fault.permanent())
                continue;
            // Pre-write pattern data into a sample of affected lines.
            std::vector<std::pair<uint64_t, std::array<uint8_t, 64>>>
                shadow;
            for (const auto &part : fault.parts) {
                unsigned sampled = 0;
                part.region.forEachUnit(
                    controller.config().geometry, 1,
                    [&](unsigned bank, uint32_t row, uint16_t col) {
                        if (sampled >= 8 || (row + col) % 7 != 0)
                            return;
                        ++sampled;
                        LineCoord coord;
                        coord.channel = part.dimm /
                            controller.config().geometry.ranksPerChannel;
                        coord.rank = part.dimm %
                            controller.config().geometry.ranksPerChannel;
                        coord.bank = bank;
                        coord.row = row;
                        coord.colBlock = col;
                        const uint64_t pa =
                            controller.addressMap().encode(coord);
                        std::array<uint8_t, 64> data;
                        for (unsigned i = 0; i < 64; ++i)
                            data[i] = static_cast<uint8_t>(
                                (pa >> (i % 8)) ^ i);
                        controller.write(pa, data.data());
                        shadow.emplace_back(pa, data);
                    });
                if (part.region.massive())
                    break;
            }

            const bool repaired = controller.reportFault(fault);
            if (!repaired)
                continue;
            ++faults_checked;
            for (const auto &[pa, expected] : shadow) {
                uint8_t out[64];
                const EccStatus status = controller.read(pa, out);
                ASSERT_NE(status, EccStatus::Uncorrectable);
                ASSERT_EQ(std::memcmp(out, expected.data(), 64), 0)
                    << "data corrupted after repair";
            }
        }
    }
    EXPECT_GE(faults_checked, 25u);
}

TEST(Integration, ControllerAgreesWithMechanismVerdict)
{
    // The controller's reportFault must return exactly what a bare
    // RelaxFaultRepair with the same budget decides.
    FaultModelConfig model_config;
    model_config.fitScale = 40.0;
    model_config.accelerationEnabled = false;
    const NodeFaultSampler sampler(model_config);
    Rng rng(321);

    ControllerConfig config;
    const DramGeometry geometry = config.geometry;
    const CacheGeometry llc = config.llc;

    for (int trial = 0; trial < 30; ++trial) {
        const NodeSample node = sampler.sampleNode(rng);
        if (!node.anyPermanent())
            continue;
        RelaxFaultController controller(config);
        RelaxFaultRepair reference(geometry, llc, config.budget,
                                   config.xorFold);
        for (const auto &fault : node.faults) {
            if (!fault.permanent())
                continue;
            const bool expected = reference.tryRepair(fault);
            EXPECT_EQ(controller.reportFault(fault), expected);
        }
        EXPECT_EQ(controller.repair().usedLines(),
                  reference.usedLines());
    }
}

TEST(Integration, CoverageRankingStableAcrossSeeds)
{
    // RelaxFault >= FreeFault on the same fault population, for several
    // independent populations (a property, not a lucky seed).
    CoverageConfig config;
    config.faultyNodeTarget = 600;
    const CoverageEvaluator evaluator(config);
    const DramGeometry geometry = config.faultModel.geometry;
    const CacheGeometry llc{8 * 1024 * 1024, 16, 64};
    const RepairBudget budget{1, 32768};
    const DramAddressMap map = makeAddressMap("fig7a", geometry);

    for (uint64_t seed = 1; seed <= 5; ++seed) {
        Rng rng_a(seed);
        Rng rng_b(seed);
        const CoverageResult relax = evaluator.run(
            [&] {
                return std::make_unique<RelaxFaultRepair>(geometry, llc,
                                                          budget, true);
            },
            rng_a);
        const CoverageResult free_fault = evaluator.run(
            [&] {
                return std::make_unique<FreeFaultRepair>(map, llc,
                                                         budget, true);
            },
            rng_b);
        EXPECT_GE(relax.coverage() + 1e-9, free_fault.coverage())
            << "seed " << seed;
    }
}

TEST(Integration, RelaxFaultCapacityRoughly16xBelowFreeFault)
{
    // For single row faults the paper's headline resource claim: the
    // coalescing map needs 1/16th the lines of physical-block locking.
    const DramGeometry geometry;
    const CacheGeometry llc{8 * 1024 * 1024, 16, 64};
    const DramAddressMap map = makeAddressMap("fig7a", geometry);
    RelaxFaultRepair relax(geometry, llc, RepairBudget{16, 65536}, true);
    FreeFaultRepair free_fault(map, llc, RepairBudget{16, 65536}, true);

    Rng rng(77);
    const FaultGeometrySampler sampler(geometry, FaultGeometryParams{});
    for (int i = 0; i < 20; ++i) {
        FaultRecord fault;
        fault.persistence = Persistence::Permanent;
        fault.parts.push_back(
            {static_cast<unsigned>(rng.uniformInt(8)),
             static_cast<unsigned>(rng.uniformInt(18)),
             sampler.sample(FaultMode::SingleRow, rng)});
        ASSERT_TRUE(relax.tryRepair(fault));
        ASSERT_TRUE(free_fault.tryRepair(fault));
    }
    EXPECT_NEAR(static_cast<double>(free_fault.usedLines()) /
                    static_cast<double>(relax.usedLines()),
                16.0, 0.5);
}

TEST(Integration, EndToEndSeedReproducibility)
{
    // Same seed => byte-identical experiment outcomes across the stack.
    CoverageConfig config;
    config.faultyNodeTarget = 300;
    const CoverageEvaluator evaluator(config);
    const DramGeometry geometry = config.faultModel.geometry;
    const CacheGeometry llc{8 * 1024 * 1024, 16, 64};

    auto factory = [&] {
        return std::make_unique<RelaxFaultRepair>(
            geometry, llc, RepairBudget{1, 32768}, true);
    };
    Rng rng_a(2016);
    Rng rng_b(2016);
    const CoverageResult a = evaluator.run(factory, rng_a);
    const CoverageResult b = evaluator.run(factory, rng_b);
    EXPECT_EQ(a.repairedNodes, b.repairedNodes);
    EXPECT_EQ(a.faultyNodes, b.faultyNodes);
    EXPECT_EQ(a.nodesSampled, b.nodesSampled);
}

} // namespace
} // namespace relaxfault
