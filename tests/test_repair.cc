/**
 * @file
 * Tests for the repair mechanisms: the RelaxFault coalescing map
 * (injectivity, deterministic set spreading for correlated faults), the
 * line tracker's transactional limits, RelaxFault/FreeFault/PPR repair
 * semantics, and the coverage evaluator. Several tests check the paper's
 * qualitative claims directly (e.g., FreeFault needs ~16x the lines,
 * column faults defeat unhashed FreeFault).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "repair/coverage.h"
#include "repair/freefault_repair.h"
#include "repair/no_repair.h"
#include "repair/ppr_repair.h"
#include "repair/relaxfault_repair.h"

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
rowFault(unsigned bank, uint32_t row)
{
    RegionCluster cluster;
    cluster.bankMask = 1u << bank;
    cluster.rows = RowSet::of({row});
    cluster.cols = ColSet::allCols();
    return FaultRegion({cluster});
}

FaultRegion
columnFault(unsigned bank, uint32_t first_row, unsigned row_count,
            uint16_t col, uint32_t bit = 0)
{
    std::vector<uint32_t> rows;
    for (unsigned i = 0; i < row_count; ++i)
        rows.push_back(first_row + i);
    RegionCluster cluster;
    cluster.bankMask = 1u << bank;
    cluster.rows = RowSet::of(std::move(rows));
    cluster.cols = ColSet::of({col});
    cluster.bitMask = 1u << bit;
    return FaultRegion({cluster});
}

FaultRegion
bitFault(unsigned bank, uint32_t row, uint16_t col)
{
    RegionCluster cluster;
    cluster.bankMask = 1u << bank;
    cluster.rows = RowSet::of({row});
    cluster.cols = ColSet::of({col});
    cluster.bitMask = 1;
    return FaultRegion({cluster});
}

FaultRegion
massiveBank(unsigned bank)
{
    RegionCluster cluster;
    cluster.bankMask = 1u << bank;
    cluster.rows = RowSet::allRows();
    cluster.cols = ColSet::allCols();
    return FaultRegion({cluster});
}

class RelaxFaultMapTest : public ::testing::TestWithParam<bool>
{
};

TEST_P(RelaxFaultMapTest, LocateInvertRoundTrip)
{
    const RelaxFaultMap map(geom(), llc(), GetParam());
    Rng rng(1);
    for (int i = 0; i < 20000; ++i) {
        RemapUnit unit;
        unit.dimm = static_cast<unsigned>(rng.uniformInt(8));
        unit.device = static_cast<unsigned>(rng.uniformInt(18));
        unit.bank = static_cast<unsigned>(rng.uniformInt(8));
        unit.row = static_cast<uint32_t>(rng.uniformInt(65536));
        unit.colGroup = static_cast<uint16_t>(rng.uniformInt(16));
        const RemapLocation loc = map.locate(unit);
        ASSERT_LT(loc.set, llc().sets());
        EXPECT_EQ(map.invert(loc), unit);
    }
}

TEST_P(RelaxFaultMapTest, RowFaultSpreadsAcrossDistinctSets)
{
    // The 16 remap units of one device row must land in 16 distinct
    // sets by construction (colGroup is part of the index).
    const RelaxFaultMap map(geom(), llc(), GetParam());
    std::vector<uint64_t> sets;
    RemapUnit unit{0, 3, 2, 12345, 0};
    for (uint16_t g = 0; g < 16; ++g) {
        unit.colGroup = g;
        sets.push_back(map.locate(unit).set);
    }
    std::sort(sets.begin(), sets.end());
    EXPECT_EQ(std::unique(sets.begin(), sets.end()) - sets.begin(), 16);
}

TEST_P(RelaxFaultMapTest, ColumnFaultSpreadsAcrossDistinctSets)
{
    // Units that differ only in low row bits (a subarray-local column
    // fault) land in distinct sets: row-low is part of the index.
    const RelaxFaultMap map(geom(), llc(), GetParam());
    std::vector<uint64_t> sets;
    RemapUnit unit{1, 7, 4, 0, 3};
    const uint32_t base = 512 * 17;  // Some subarray.
    for (uint32_t r = 0; r < 512; ++r) {
        unit.row = base + r;
        sets.push_back(map.locate(unit).set);
    }
    std::sort(sets.begin(), sets.end());
    EXPECT_EQ(std::unique(sets.begin(), sets.end()) - sets.begin(), 512);
}

INSTANTIATE_TEST_SUITE_P(FoldModes, RelaxFaultMapTest, ::testing::Bool());

TEST(RelaxFaultMapTest2, DifferentDevicesDifferentTags)
{
    const RelaxFaultMap map(geom(), llc(), true);
    RemapUnit a{0, 3, 2, 100, 5};
    RemapUnit b = a;
    b.device = 4;
    EXPECT_NE(map.locate(a).tag, map.locate(b).tag);
}

TEST(LineTracker, TransactionalWayLimit)
{
    RepairLineTracker tracker(16, RepairBudget{2, 100});
    // Three lines into one set exceeds the 2-way limit: all-or-nothing.
    EXPECT_FALSE(tracker.tryAdd({{5, 1}, {5, 2}, {5, 3}}));
    EXPECT_EQ(tracker.usedLines(), 0u);
    EXPECT_TRUE(tracker.tryAdd({{5, 1}, {5, 2}}));
    EXPECT_EQ(tracker.usedLines(), 2u);
    EXPECT_EQ(tracker.setLoad(5), 2u);
    // Set 5 is now full.
    EXPECT_FALSE(tracker.tryAdd({{5, 9}}));
    // Re-adding an existing key is free sharing.
    EXPECT_TRUE(tracker.tryAdd({{5, 1}}));
    EXPECT_EQ(tracker.usedLines(), 2u);
}

TEST(LineTracker, CapacityLimit)
{
    RepairLineTracker tracker(1024, RepairBudget{16, 4});
    EXPECT_TRUE(tracker.tryAdd({{0, 1}, {1, 2}, {2, 3}, {3, 4}}));
    EXPECT_FALSE(tracker.tryAdd({{4, 5}}));
    EXPECT_EQ(tracker.maxWaysUsed(), 1u);
}

TEST(LineTracker, DuplicatesWithinRequestCountOnce)
{
    RepairLineTracker tracker(16, RepairBudget{1, 10});
    EXPECT_TRUE(tracker.tryAdd({{3, 7}, {3, 7}, {3, 7}}));
    EXPECT_EQ(tracker.usedLines(), 1u);
    EXPECT_EQ(tracker.setLoad(3), 1u);
}

class RelaxFaultRepairTest : public ::testing::Test
{
  protected:
    RelaxFaultRepair repair_{geom(), llc(), RepairBudget{1, 32768}, true};
};

TEST_F(RelaxFaultRepairTest, BitFaultUsesOneLine)
{
    EXPECT_TRUE(repair_.tryRepair(makeFault(bitFault(0, 10, 20))));
    EXPECT_EQ(repair_.usedLines(), 1u);
    EXPECT_EQ(repair_.maxWaysUsed(), 1u);
    EXPECT_TRUE(repair_.bankFlagged(0, 0));
    EXPECT_FALSE(repair_.bankFlagged(0, 1));
    EXPECT_TRUE(repair_.unitRepaired(RemapUnit{0, 0, 0, 10, 1}));
    EXPECT_FALSE(repair_.unitRepaired(RemapUnit{0, 0, 0, 11, 1}));
}

TEST_F(RelaxFaultRepairTest, RowFaultUses16LinesAt1Way)
{
    EXPECT_TRUE(repair_.tryRepair(makeFault(rowFault(3, 4242))));
    EXPECT_EQ(repair_.usedLines(), 16u);
    EXPECT_EQ(repair_.maxWaysUsed(), 1u);  // Spread by construction.
}

TEST_F(RelaxFaultRepairTest, SubarrayColumnFaultRepairableAt1Way)
{
    EXPECT_TRUE(repair_.tryRepair(
        makeFault(columnFault(2, 512 * 9, 512, 33))));
    EXPECT_EQ(repair_.usedLines(), 512u);
    EXPECT_EQ(repair_.maxWaysUsed(), 1u);
}

TEST_F(RelaxFaultRepairTest, MassiveBankUnrepairable)
{
    EXPECT_FALSE(repair_.tryRepair(makeFault(massiveBank(1))));
    EXPECT_EQ(repair_.usedLines(), 0u);
    EXPECT_FALSE(repair_.bankFlagged(0, 1));
}

TEST_F(RelaxFaultRepairTest, FailedRepairLeavesStateUnchanged)
{
    EXPECT_TRUE(repair_.tryRepair(makeFault(bitFault(0, 1, 1))));
    const uint64_t before = repair_.usedLines();
    // Same rows in the same device/bank collide set-wise with a second
    // identical-row fault in a different column group? No — force a
    // conflict by exceeding capacity instead.
    RelaxFaultRepair tiny(geom(), llc(), RepairBudget{1, 8}, true);
    EXPECT_FALSE(tiny.tryRepair(makeFault(rowFault(0, 5))));
    EXPECT_EQ(tiny.usedLines(), 0u);
    EXPECT_EQ(repair_.usedLines(), before);
}

TEST_F(RelaxFaultRepairTest, SharedUnitsNotDoubleCounted)
{
    // Two bit faults in the same 64B device sub-block share a line.
    EXPECT_TRUE(repair_.tryRepair(makeFault(bitFault(0, 10, 20))));
    EXPECT_TRUE(repair_.tryRepair(makeFault(bitFault(0, 10, 21))));
    EXPECT_EQ(repair_.usedLines(), 1u);
}

TEST_F(RelaxFaultRepairTest, ResetReleasesEverything)
{
    EXPECT_TRUE(repair_.tryRepair(makeFault(rowFault(0, 1))));
    repair_.reset();
    EXPECT_EQ(repair_.usedLines(), 0u);
    EXPECT_FALSE(repair_.bankFlagged(0, 0));
}

TEST(FreeFaultTest, RowFaultUses256Lines)
{
    const DramAddressMap map = makeAddressMap("fig7a", geom());
    FreeFaultRepair repair(map, llc(), RepairBudget{1, 32768}, true);
    EXPECT_TRUE(repair.tryRepair(makeFault(rowFault(0, 100))));
    // 16x the lines RelaxFault needs for the same fault (paper Sec. 1).
    EXPECT_EQ(repair.usedLines(), 256u);
}

TEST(FreeFaultTest, RowFaultRepairableWithoutHash)
{
    // Column-block bits reach the set index, so a row's 256 lines fall
    // into 256 distinct sets even without hashing.
    const DramAddressMap map = makeAddressMap("fig7a", geom());
    FreeFaultRepair repair(map, llc(), RepairBudget{1, 32768}, false);
    EXPECT_TRUE(repair.tryRepair(makeFault(rowFault(5, 31000))));
    EXPECT_EQ(repair.maxWaysUsed(), 1u);
}

TEST(FreeFaultTest, ColumnFaultDefeatsUnhashedLlc)
{
    // All lines of a column fault share channel/column/bank/rank bits:
    // one set, many lines -> unrepairable without XOR hashing (Fig. 8).
    const DramAddressMap map = makeAddressMap("fig7a", geom());
    FreeFaultRepair unhashed(map, llc(), RepairBudget{1, 32768}, false);
    EXPECT_FALSE(unhashed.tryRepair(
        makeFault(columnFault(1, 512 * 3, 24, 77))));

    FreeFaultRepair hashed(map, llc(), RepairBudget{1, 32768}, true);
    EXPECT_TRUE(hashed.tryRepair(
        makeFault(columnFault(1, 512 * 3, 24, 77))));
}

TEST(FreeFaultTest, ColumnFaultEvenDefeats16WayUnhashed)
{
    // The memory controller's bank XOR permutation spreads a column
    // fault over at most 2^bankBits = 8 sets, so a large column fault
    // (~64 lines per set) exceeds even full associativity when the LLC
    // set index is unhashed.
    const DramAddressMap map = makeAddressMap("fig7a", geom());
    FreeFaultRepair unhashed(map, llc(), RepairBudget{16, 32768}, false);
    EXPECT_FALSE(unhashed.tryRepair(
        makeFault(columnFault(1, 512 * 3, 512, 77))));
    // A small column fault (<= 8 lines, one per permuted bank value)
    // can still fit in 16 ways.
    EXPECT_TRUE(unhashed.tryRepair(
        makeFault(columnFault(1, 512 * 3, 8, 77))));
}

TEST(FreeFaultTest, MassiveAndOversizedRejected)
{
    const DramAddressMap map = makeAddressMap("fig7a", geom());
    FreeFaultRepair repair(map, llc(), RepairBudget{16, 32768}, true);
    EXPECT_FALSE(repair.tryRepair(makeFault(massiveBank(0))));
    // A 512-row medium bank fault needs 131072 lines > 32768 budget.
    std::vector<uint32_t> rows;
    for (uint32_t r = 0; r < 512; ++r)
        rows.push_back(r * 128);
    RegionCluster cluster;
    cluster.bankMask = 1;
    cluster.rows = RowSet::of(std::move(rows));
    cluster.cols = ColSet::allCols();
    EXPECT_FALSE(repair.tryRepair(makeFault(FaultRegion({cluster}))));
    EXPECT_EQ(repair.usedLines(), 0u);
}

TEST(PprTest, SingleRowRepairable)
{
    PprRepair ppr(geom());
    EXPECT_TRUE(ppr.tryRepair(makeFault(rowFault(0, 7))));
    EXPECT_EQ(ppr.sparesUsed(), 1u);
    EXPECT_TRUE(ppr.rowRepaired(0, 0, 0, 7));
    EXPECT_EQ(ppr.usedLines(), 0u);  // No LLC cost.
}

TEST(PprTest, BitFaultConsumesSpareRow)
{
    PprRepair ppr(geom());
    EXPECT_TRUE(ppr.tryRepair(makeFault(bitFault(3, 9, 4))));
    EXPECT_EQ(ppr.sparesUsed(), 1u);
}

TEST(PprTest, SecondRowInSameBankGroupFails)
{
    PprRepair ppr(geom());
    // Banks 0 and 1 share bank group 0 (8 banks / 4 groups).
    EXPECT_TRUE(ppr.tryRepair(makeFault(rowFault(0, 7))));
    EXPECT_FALSE(ppr.tryRepair(makeFault(rowFault(1, 9))));
    // A row in another group still works.
    EXPECT_TRUE(ppr.tryRepair(makeFault(rowFault(2, 9))));
    // Other devices have their own spares.
    EXPECT_TRUE(ppr.tryRepair(makeFault(rowFault(0, 11), 0, 5)));
}

TEST(PprTest, MultiRowColumnFaultUnrepairable)
{
    PprRepair ppr(geom());
    EXPECT_FALSE(ppr.tryRepair(makeFault(columnFault(0, 0, 2, 5))));
    EXPECT_EQ(ppr.sparesUsed(), 0u);
    // A single-row column fault is fine.
    EXPECT_TRUE(ppr.tryRepair(makeFault(columnFault(0, 0, 1, 5))));
}

TEST(PprTest, MassiveRejected)
{
    PprRepair ppr(geom());
    EXPECT_FALSE(ppr.tryRepair(makeFault(massiveBank(2))));
}

TEST(PprTest, SameRowTwiceSharesSpare)
{
    PprRepair ppr(geom());
    EXPECT_TRUE(ppr.tryRepair(makeFault(bitFault(0, 7, 1))));
    EXPECT_TRUE(ppr.tryRepair(makeFault(bitFault(0, 7, 200))));
    EXPECT_EQ(ppr.sparesUsed(), 1u);
}

TEST(NoRepairTest, AlwaysFails)
{
    NoRepair none;
    EXPECT_FALSE(none.tryRepair(makeFault(bitFault(0, 0, 0))));
    EXPECT_EQ(none.usedLines(), 0u);
}

TEST(Coverage, RelaxFaultBeatsFreeFaultBeatsNothing)
{
    CoverageConfig config;
    config.faultyNodeTarget = 1500;
    CoverageEvaluator evaluator(config);

    const DramGeometry geometry = config.faultModel.geometry;
    const CacheGeometry cache = llc();
    const RepairBudget budget{1, 32768};

    Rng rng_a(42);
    const CoverageResult relax = evaluator.run(
        [&] {
            return std::make_unique<RelaxFaultRepair>(geometry, cache,
                                                      budget, true);
        },
        rng_a);
    Rng rng_b(42);
    const DramAddressMap map = makeAddressMap("fig7a", geometry);
    const CoverageResult free_fault = evaluator.run(
        [&] {
            return std::make_unique<FreeFaultRepair>(map, cache, budget,
                                                     true);
        },
        rng_b);
    Rng rng_c(42);
    const CoverageResult none = evaluator.run(
        [&] { return std::make_unique<NoRepair>(); }, rng_c);

    EXPECT_GT(relax.coverage(), free_fault.coverage());
    EXPECT_GT(free_fault.coverage(), 0.5);
    EXPECT_EQ(none.repairedNodes, 0u);
    EXPECT_GT(relax.coverage(), 0.8);

    // Coverage-at-capacity is monotone and bounded by final coverage.
    EXPECT_LE(relax.coverageAtCapacity(64 * 1024),
              relax.coverageAtCapacity(2 * 1024 * 1024) + 1e-12);
    EXPECT_LE(relax.coverageAtCapacity(2 * 1024 * 1024),
              relax.coverage() + 1e-12);
}

TEST(Coverage, FaultyFractionNearPoissonPrediction)
{
    CoverageConfig config;
    config.faultyNodeTarget = 2000;
    config.faultModel.accelerationEnabled = false;
    CoverageEvaluator evaluator(config);
    Rng rng(7);
    const CoverageResult result = evaluator.run(
        [] { return std::make_unique<NoRepair>(); }, rng);
    // 20 FIT/device permanent * 144 devices * 52596h => P ~ 13.4%.
    const double lambda = 20e-9 * 144 * config.faultModel.missionHours;
    const double expected = 1.0 - std::exp(-lambda);
    EXPECT_NEAR(result.faultyFraction(), expected, 0.02);
}


TEST(Coverage, PaperAnchorsRegression)
{
    // Regression net for the calibration: the headline Fig. 8/10
    // anchors must stay inside bands around the paper's values. If a
    // fault-model change moves these, EXPERIMENTS.md needs updating.
    CoverageConfig config;
    config.faultyNodeTarget = 5000;
    const CoverageEvaluator evaluator(config);
    const DramGeometry geometry = config.faultModel.geometry;
    const CacheGeometry cache{8 * 1024 * 1024, 16, 64};
    const RepairBudget budget{1, 32768};
    const DramAddressMap map = makeAddressMap("fig7a", geometry);

    Rng rng_a(20160618);
    const double relax = evaluator.run(
        [&] {
            return std::make_unique<RelaxFaultRepair>(geometry, cache,
                                                      budget, true);
        },
        rng_a).coverage();
    Rng rng_b(20160618);
    const double free_hash = evaluator.run(
        [&] {
            return std::make_unique<FreeFaultRepair>(map, cache, budget,
                                                     true);
        },
        rng_b).coverage();
    Rng rng_c(20160618);
    const double ppr = evaluator.run(
        [&] { return std::make_unique<PprRepair>(geometry); },
        rng_c).coverage();

    // Paper: 90.3 / 84.2 / ~73 (%); bands allow Monte Carlo noise plus
    // our documented calibration offsets.
    EXPECT_GT(relax, 0.87);
    EXPECT_LT(relax, 0.94);
    EXPECT_GT(free_hash, 0.83);
    EXPECT_LT(free_hash, 0.91);
    EXPECT_GT(ppr, 0.71);
    EXPECT_LT(ppr, 0.80);
    EXPECT_GT(relax, free_hash);
    EXPECT_GT(free_hash, ppr);
}

} // namespace
} // namespace relaxfault
