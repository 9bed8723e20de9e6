/**
 * @file
 * Budget-exhaustion and graceful-degradation tests: every repair
 * mechanism past its documented ceiling fails cleanly (all-or-nothing,
 * state untouched), and the controller's degradation policy turns an
 * uncovered fault into the configured, observable outcome — page
 * retirement, DUE accounting, or fail-stop.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "core/relaxfault_controller.h"
#include "repair/degradation.h"
#include "repair/device_sparing.h"
#include "repair/freefault_repair.h"
#include "repair/ppr_repair.h"
#include "repair/relaxfault_repair.h"
#include "sim/lifetime.h"
#include "telemetry/metrics.h"

namespace relaxfault {
namespace {

DramGeometry
geom()
{
    return DramGeometry{};
}

CacheGeometry
llc()
{
    return CacheGeometry{8 * 1024 * 1024, 16, 64};
}

FaultRecord
makeFault(FaultRegion region, unsigned dimm = 0, unsigned device = 0)
{
    FaultRecord fault;
    fault.persistence = Persistence::Permanent;
    fault.parts.push_back({dimm, device, std::move(region)});
    return fault;
}

FaultRegion
rowRegion(unsigned bank, uint32_t row)
{
    RegionCluster cluster;
    cluster.bankMask = 1u << bank;
    cluster.rows = RowSet::of({row});
    cluster.cols = ColSet::allCols();
    return FaultRegion({cluster});
}

FaultRegion
bitRegion(unsigned bank, uint32_t row, uint16_t col)
{
    RegionCluster cluster;
    cluster.bankMask = 1u << bank;
    cluster.rows = RowSet::of({row});
    cluster.cols = ColSet::of({col});
    cluster.bitMask = 1;
    return FaultRegion({cluster});
}

// ---------------------------------------------------------------------
// Policy flag spelling.

TEST(DegradationPolicy, NamesRoundTrip)
{
    for (const DegradationPolicy policy :
         {DegradationPolicy::RetirePages, DegradationPolicy::CountDue,
          DegradationPolicy::FailStop}) {
        const auto parsed =
            parseDegradationPolicy(degradationPolicyName(policy));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, policy);
    }
    EXPECT_FALSE(parseDegradationPolicy("").has_value());
    EXPECT_FALSE(parseDegradationPolicy("panic").has_value());
}

// ---------------------------------------------------------------------
// Each mechanism past its budget: fail cleanly, state untouched.

TEST(BudgetExhaustion, RelaxFaultCapacityCeiling)
{
    // A device row needs 16 coalesced lines; a 4-line budget cannot
    // hold it, and the failed attempt must not leak partial locks.
    RelaxFaultRepair repair(geom(), llc(), RepairBudget{4, 4});
    EXPECT_FALSE(repair.tryRepair(makeFault(rowRegion(1, 500), 0, 6)));
    EXPECT_EQ(repair.usedLines(), 0u);

    // A single-bit fault still fits; only the over-budget fault fails.
    EXPECT_TRUE(repair.tryRepair(makeFault(bitRegion(2, 9, 3), 0, 2)));
    const uint64_t lines = repair.usedLines();
    EXPECT_FALSE(repair.tryRepair(makeFault(rowRegion(3, 800), 0, 7)));
    EXPECT_EQ(repair.usedLines(), lines);
}

TEST(BudgetExhaustion, RelaxFaultWayCeiling)
{
    // maxWaysPerSet=1 with ample capacity: pile remap units into the
    // same set until the way bound, not the capacity bound, refuses.
    RelaxFaultRepair repair(geom(), llc(), RepairBudget{1, 32768});
    unsigned repaired = 0;
    unsigned refused = 0;
    for (unsigned device = 0; device < 18 && refused == 0; ++device) {
        // Same bank/row on every device: the coalesced keys differ only
        // in the device field, which lands some pairs in one set.
        if (repair.tryRepair(makeFault(rowRegion(1, 500), 0, device)))
            ++repaired;
        else
            ++refused;
    }
    EXPECT_GT(repaired, 0u);
    EXPECT_LE(repair.maxWaysUsed(), 1u);
}

TEST(BudgetExhaustion, FreeFaultCapacityCeiling)
{
    // FreeFault locks one whole line per 64B block: a full device row
    // far exceeds a small line budget.
    const DramAddressMap map = makeAddressMap("fig7a", geom());
    FreeFaultRepair repair(map, llc(), RepairBudget{4, 8});
    EXPECT_FALSE(repair.tryRepair(makeFault(rowRegion(1, 500), 0, 6)));
    EXPECT_EQ(repair.usedLines(), 0u);

    EXPECT_TRUE(repair.tryRepair(makeFault(bitRegion(2, 9, 3), 0, 2)));
    EXPECT_GT(repair.usedLines(), 0u);
}

TEST(BudgetExhaustion, PprSpareRowsPerBankGroup)
{
    // DDR4 PPR: one spare row per bank group per device. Two faulty
    // rows in the same bank exhaust the group's spare.
    PprRepair repair(geom(), 4, 1);
    EXPECT_TRUE(repair.tryRepair(makeFault(rowRegion(1, 500), 0, 6)));
    const uint64_t spares = repair.sparesUsed();
    EXPECT_GT(spares, 0u);
    EXPECT_FALSE(repair.tryRepair(makeFault(rowRegion(1, 501), 0, 6)));
    EXPECT_EQ(repair.sparesUsed(), spares);

    // A different bank group still has its spare.
    EXPECT_TRUE(repair.tryRepair(makeFault(rowRegion(4, 500), 0, 6)));
}

TEST(BudgetExhaustion, DeviceSparingOnePerRank)
{
    // One redundant device per rank: the second faulty device in the
    // same rank cannot be steered.
    DeviceSparing repair(geom(), 1);
    EXPECT_TRUE(repair.tryRepair(makeFault(rowRegion(1, 500), 0, 6)));
    EXPECT_EQ(repair.sparedDevices(), 1u);
    EXPECT_EQ(repair.degradedRanks(), 1u);

    EXPECT_FALSE(repair.tryRepair(makeFault(rowRegion(2, 900), 0, 9)));
    EXPECT_EQ(repair.sparedDevices(), 1u);

    // Another rank (other DIMM) is unaffected.
    EXPECT_TRUE(repair.tryRepair(makeFault(rowRegion(1, 500), 1, 6)));
}

// ---------------------------------------------------------------------
// Controller degradation policies.

ControllerConfig
tinyBudgetConfig(DegradationPolicy policy)
{
    ControllerConfig config;
    config.budget = RepairBudget{1, 0};  // Nothing is repairable.
    config.degradation = policy;
    return config;
}

TEST(ControllerDegradation, CountDueLeavesFaultExposedAndCounted)
{
    RelaxFaultController controller(
        tinyBudgetConfig(DegradationPolicy::CountDue));
    EXPECT_FALSE(
        controller.reportFault(makeFault(bitRegion(1, 500, 3), 0, 6)));

    EXPECT_EQ(controller.stats().budgetExhausted, 1u);
    EXPECT_EQ(controller.stats().degradedDues, 1u);
    EXPECT_EQ(controller.stats().degradedToRetirement, 0u);
    EXPECT_EQ(controller.stats().failStops, 0u);
    EXPECT_FALSE(controller.failedStop());
    EXPECT_EQ(controller.retirement(), nullptr);
    // The fault is tracked but unrepaired.
    ASSERT_EQ(controller.faults().faults().size(), 1u);
    EXPECT_FALSE(controller.faults().repaired(0));
}

TEST(ControllerDegradation, RetirePagesAbsorbsTheFault)
{
    RelaxFaultController controller(
        tinyBudgetConfig(DegradationPolicy::RetirePages));
    EXPECT_FALSE(
        controller.reportFault(makeFault(bitRegion(1, 500, 3), 0, 6)));

    EXPECT_EQ(controller.stats().budgetExhausted, 1u);
    EXPECT_EQ(controller.stats().degradedToRetirement, 1u);
    EXPECT_EQ(controller.stats().degradedDues, 0u);
    ASSERT_NE(controller.retirement(), nullptr);
    EXPECT_GT(controller.retirement()->retiredPages(), 0u);
}

TEST(ControllerDegradation, RetirePagesFallsThroughToDueAtItsOwnCap)
{
    // Retirement has its own capacity cap: a fault too large even for
    // the fallback lands in the DUE accounting.
    ControllerConfig config = tinyBudgetConfig(DegradationPolicy::RetirePages);
    config.retireMaxBytes = 4096;  // One frame.
    RelaxFaultController controller(config);
    EXPECT_FALSE(
        controller.reportFault(makeFault(rowRegion(1, 500), 0, 6)));
    EXPECT_EQ(controller.stats().budgetExhausted, 1u);
    EXPECT_EQ(controller.stats().degradedToRetirement, 0u);
    EXPECT_EQ(controller.stats().degradedDues, 1u);
}

TEST(ControllerDegradation, FailStopHaltsTheDatapath)
{
    RelaxFaultController controller(
        tinyBudgetConfig(DegradationPolicy::FailStop));

    // Write good data while healthy.
    uint8_t data[64];
    for (unsigned i = 0; i < 64; ++i)
        data[i] = static_cast<uint8_t>(i + 1);
    const uint64_t pa =
        controller.addressMap().encode(LineCoord{0, 0, 4, 900, 3});
    controller.write(pa, data);

    EXPECT_FALSE(
        controller.reportFault(makeFault(bitRegion(1, 500, 3), 0, 6)));
    EXPECT_TRUE(controller.failedStop());
    EXPECT_EQ(controller.stats().failStops, 1u);

    // Down means down: reads are DUEs, writes are dropped, further
    // fault reports are refused — and the transition count stays 1.
    uint8_t out[64];
    std::memset(out, 0xee, sizeof(out));
    EXPECT_EQ(controller.read(pa, out), EccStatus::Uncorrectable);
    const uint64_t dues = controller.stats().uncorrectableReads;
    EXPECT_GT(dues, 0u);
    controller.write(pa, data);
    EXPECT_FALSE(
        controller.reportFault(makeFault(bitRegion(2, 600, 4), 0, 7)));
    EXPECT_EQ(controller.stats().failStops, 1u);
}

// ---------------------------------------------------------------------
// Lifetime-simulation integration: policies surface in the metrics.

LifetimeConfig
exhaustedLifetimeConfig(DegradationPolicy policy)
{
    LifetimeConfig config;
    config.nodesPerSystem = 128;
    config.faultModel.fitScale = 10.0;
    config.degradation = policy;
    return config;
}

LifetimeSimulator::MechanismFactory
starvedFactory()
{
    // A 2-line budget: any row/column-scale fault exhausts it.
    return []() -> std::unique_ptr<RepairMechanism> {
        return std::make_unique<RelaxFaultRepair>(geom(), llc(),
                                                  RepairBudget{1, 2});
    };
}

TEST(LifetimeDegradation, CountDueReportsExhaustionOnly)
{
    const LifetimeSimulator simulator(
        exhaustedLifetimeConfig(DegradationPolicy::CountDue));
    const LifetimeSummary summary =
        simulator.runTrials(4, starvedFactory(), 99, {});
    EXPECT_GT(summary.budgetExhausted.sum(), 0.0);
    EXPECT_GT(summary.degradedDues.sum(), 0.0);
    EXPECT_EQ(summary.degradedToRetirement.sum(), 0.0);
    EXPECT_EQ(summary.failStops.sum(), 0.0);
}

TEST(LifetimeDegradation, RetirePagesAbsorbsSomeFaults)
{
    const LifetimeSimulator simulator(
        exhaustedLifetimeConfig(DegradationPolicy::RetirePages));
    const LifetimeSummary summary =
        simulator.runTrials(4, starvedFactory(), 99, {});
    EXPECT_GT(summary.budgetExhausted.sum(), 0.0);
    EXPECT_GT(summary.degradedToRetirement.sum(), 0.0);
    EXPECT_EQ(summary.failStops.sum(), 0.0);
}

TEST(LifetimeDegradation, FailStopStopsNodes)
{
    const LifetimeSimulator simulator(
        exhaustedLifetimeConfig(DegradationPolicy::FailStop));
    const LifetimeSummary summary =
        simulator.runTrials(4, starvedFactory(), 99, {});
    EXPECT_GT(summary.budgetExhausted.sum(), 0.0);
    EXPECT_GT(summary.failStops.sum(), 0.0);
    EXPECT_EQ(summary.degradedToRetirement.sum(), 0.0);
}

TEST(LifetimeDegradation, DefaultPolicyMatchesPrePolicyBehavior)
{
    // Under CountDue every original metric is computed exactly as
    // before the policy existed; the new fields are pure additions. A
    // well-budgeted mechanism never degrades at all.
    LifetimeConfig config;
    config.nodesPerSystem = 128;
    config.faultModel.fitScale = 10.0;
    const LifetimeSimulator simulator(config);
    const auto factory = []() -> std::unique_ptr<RepairMechanism> {
        return std::make_unique<RelaxFaultRepair>(
            geom(), llc(), RepairBudget{4, 32768});
    };
    const LifetimeSummary summary =
        simulator.runTrials(6, factory, 123, {});
    EXPECT_EQ(summary.degradedToRetirement.sum(), 0.0);
    EXPECT_EQ(summary.failStops.sum(), 0.0);
    EXPECT_GT(summary.permanentFaults.sum(), 0.0);
}

TEST(LifetimeDegradation, CountersReachTelemetry)
{
    const LifetimeSimulator simulator(
        exhaustedLifetimeConfig(DegradationPolicy::RetirePages));
    MetricRegistry metrics;
    TrialRunOptions options;
    options.parallel.threads = 1;
    options.metrics = &metrics;
    simulator.runTrials(4, starvedFactory(), 99, options);

    const MetricsSnapshot snapshot = metrics.snapshot();
    auto counter = [&](const std::string &name) {
        for (const auto &[key, value] : snapshot.counters) {
            if (key == name)
                return value;
        }
        return uint64_t{0};
    };
    EXPECT_GT(counter("repair.budget_exhausted"), 0u);
    EXPECT_GT(counter("repair.degraded_to_retirement"), 0u);
}

} // namespace
} // namespace relaxfault
