/**
 * @file
 * Tests for the Sec. 6 comparator mechanisms (OS page retirement,
 * DDDC-style device sparing) and the alternative memory-organization
 * presets.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "repair/device_sparing.h"
#include "repair/page_retirement.h"
#include "repair/relaxfault_map.h"

namespace relaxfault {
namespace {

FaultRecord
makeFault(FaultRegion region, unsigned dimm = 0, unsigned device = 0)
{
    FaultRecord fault;
    fault.persistence = Persistence::Permanent;
    fault.parts.push_back({dimm, device, std::move(region)});
    return fault;
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
massiveBank(unsigned bank)
{
    RegionCluster cluster;
    cluster.bankMask = 1u << bank;
    cluster.rows = RowSet::allRows();
    cluster.cols = ColSet::allCols();
    return FaultRegion({cluster});
}

TEST(PageRetirementTest, BitFaultRetiresOnePage)
{
    const DramAddressMap map = makeAddressMap("fig7a", DramGeometry{});
    PageRetirement retirement(map, 4096, 64 << 20);
    EXPECT_TRUE(retirement.tryRepair(makeFault(bitRegion(0, 10, 20))));
    EXPECT_EQ(retirement.retiredPages(), 1u);
    EXPECT_EQ(retirement.retiredBytes(), 4096u);
}

TEST(PageRetirementTest, DeviceRowCosts16Frames)
{
    // One device row = 256 physical blocks; column bits sit low in the
    // PA, so they tile exactly 16 4KiB frames = 64KiB of DRAM — 64x
    // what RelaxFault pays in LLC (1KiB) for the same fault.
    const DramAddressMap map = makeAddressMap("fig7a", DramGeometry{});
    PageRetirement retirement(map, 4096, 64 << 20);
    EXPECT_TRUE(retirement.tryRepair(makeFault(rowRegion(2, 100))));
    EXPECT_EQ(retirement.retiredPages(), 16u);
    EXPECT_EQ(retirement.retiredBytes(), 64u * 1024);
}

TEST(PageRetirementTest, ColumnFaultCostsOneFramePerBadWord)
{
    // The Sec. 6 point in its sharpest form: a column fault's cells sit
    // in different rows, i.e., different frames — 4KiB retired per 4
    // faulty bytes.
    const DramAddressMap map = makeAddressMap("fig7a", DramGeometry{});
    PageRetirement retirement(map, 4096, 64 << 20);
    std::vector<uint32_t> rows;
    for (uint32_t r = 0; r < 24; ++r)
        rows.push_back(1000 + r);
    RegionCluster cluster;
    cluster.bankMask = 1u << 1;
    cluster.rows = RowSet::of(std::move(rows));
    cluster.cols = ColSet::of({33});
    cluster.bitMask = 0xf;  // 4 bits bad per row.
    EXPECT_TRUE(retirement.tryRepair(makeFault(FaultRegion({cluster}))));
    EXPECT_EQ(retirement.retiredPages(), 24u);
}

TEST(PageRetirementTest, BudgetEnforced)
{
    const DramAddressMap map = makeAddressMap("fig7a", DramGeometry{});
    PageRetirement retirement(map, 4096, 8 * 4096);  // 8 frames.
    EXPECT_FALSE(retirement.tryRepair(makeFault(rowRegion(2, 100))));
    EXPECT_EQ(retirement.retiredPages(), 0u);
    EXPECT_TRUE(retirement.tryRepair(makeFault(bitRegion(0, 1, 1))));
}

TEST(PageRetirementTest, MassiveRejected)
{
    const DramAddressMap map = makeAddressMap("fig7a", DramGeometry{});
    PageRetirement retirement(map, 4096, 1ull << 30);
    EXPECT_FALSE(retirement.tryRepair(makeFault(massiveBank(0))));
}

TEST(PageRetirementTest, SharedFrameNotDoubleCounted)
{
    const DramAddressMap map = makeAddressMap("fig7a", DramGeometry{});
    PageRetirement retirement(map, 4096, 64 << 20);
    EXPECT_TRUE(retirement.tryRepair(makeFault(bitRegion(0, 10, 20))));
    const uint64_t first = retirement.retiredPages();
    // A second fault in the same physical frame costs nothing new.
    LineCoord coord;
    coord.bank = 0;
    coord.row = 10;
    coord.colBlock = 20;
    const uint64_t pa = map.encode(coord);
    EXPECT_TRUE(retirement.pageRetired(pa));
    EXPECT_TRUE(retirement.tryRepair(makeFault(bitRegion(0, 10, 20))));
    EXPECT_EQ(retirement.retiredPages(), first);
}

TEST(DeviceSparingTest, MassiveFaultAbsorbed)
{
    DeviceSparing sparing(DramGeometry{});
    EXPECT_TRUE(sparing.tryRepair(makeFault(massiveBank(3), 2, 9)));
    EXPECT_TRUE(sparing.deviceSpared(2, 9));
    EXPECT_EQ(sparing.degradedRanks(), 1u);
}

TEST(DeviceSparingTest, OneSparePerRank)
{
    DeviceSparing sparing(DramGeometry{}, 1);
    EXPECT_TRUE(sparing.tryRepair(makeFault(bitRegion(0, 1, 1), 0, 4)));
    // Second faulty device in the same rank: no spare left.
    EXPECT_FALSE(sparing.tryRepair(makeFault(bitRegion(0, 2, 2), 0, 5)));
    // Same device again: already steered, free.
    EXPECT_TRUE(sparing.tryRepair(makeFault(rowRegion(1, 7), 0, 4)));
    // Other ranks unaffected.
    EXPECT_TRUE(sparing.tryRepair(makeFault(bitRegion(0, 1, 1), 3, 4)));
    EXPECT_EQ(sparing.sparedDevices(), 2u);  // (0,4) and (3,4).
    EXPECT_EQ(sparing.degradedRanks(), 2u);
}

TEST(DeviceSparingTest, ResetClears)
{
    DeviceSparing sparing(DramGeometry{});
    EXPECT_TRUE(sparing.tryRepair(makeFault(bitRegion(0, 1, 1))));
    sparing.reset();
    EXPECT_EQ(sparing.sparedDevices(), 0u);
    EXPECT_FALSE(sparing.deviceSpared(0, 0));
}

class OrganizationPreset
    : public ::testing::TestWithParam<DramGeometry>
{
};

TEST_P(OrganizationPreset, GeometryConsistent)
{
    const DramGeometry geometry = GetParam();
    EXPECT_TRUE(isPowerOfTwo(geometry.nodeBytes()));
    EXPECT_EQ(geometry.bytesPerDevicePerLine(), 4u);
    // The address map must tile the PA space exactly.
    const DramAddressMap map = makeAddressMap("fig7a", geometry);
    Rng rng(5);
    for (int i = 0; i < 2000; ++i) {
        const uint64_t pa =
            rng.uniformInt(geometry.nodeBytes() / 64) * 64;
        EXPECT_EQ(map.encode(map.decode(pa)), pa);
    }
}

TEST_P(OrganizationPreset, RelaxFaultMapInjective)
{
    const DramGeometry geometry = GetParam();
    const CacheGeometry llc{8 * 1024 * 1024, 16, 64};
    const RelaxFaultMap map(geometry, llc, true);
    Rng rng(6);
    for (int i = 0; i < 5000; ++i) {
        RemapUnit unit;
        unit.dimm = static_cast<unsigned>(
            rng.uniformInt(geometry.dimmsPerNode()));
        unit.device = static_cast<unsigned>(
            rng.uniformInt(geometry.devicesPerRank()));
        unit.bank = static_cast<unsigned>(
            rng.uniformInt(geometry.banksPerDevice));
        unit.row = static_cast<uint32_t>(
            rng.uniformInt(geometry.rowsPerBank));
        unit.colGroup = static_cast<uint16_t>(rng.uniformInt(
            geometry.colBlocksPerRow / geometry.colBlocksPerRemapUnit()));
        const RemapLocation loc = map.locate(unit);
        ASSERT_LT(loc.set, llc.sets());
        EXPECT_EQ(map.invert(loc), unit);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Organizations, OrganizationPreset,
    ::testing::Values(DramGeometry::ddr3Dimm(), DramGeometry::ddr4Dimm(),
                      DramGeometry::lpddr4(), DramGeometry::hbmStack()));

TEST(HashOnlyMode, InjectiveAndColumnCollides)
{
    // The ablation mode must stay injective but lose the deterministic
    // spreading of column faults.
    const DramGeometry geometry;
    const CacheGeometry llc{8 * 1024 * 1024, 16, 64};
    const RelaxFaultMap map(geometry, llc,
                            RelaxFaultMap::IndexMode::HashOnly);
    Rng rng(7);
    for (int i = 0; i < 5000; ++i) {
        RemapUnit unit;
        unit.dimm = static_cast<unsigned>(rng.uniformInt(8));
        unit.device = static_cast<unsigned>(rng.uniformInt(18));
        unit.bank = static_cast<unsigned>(rng.uniformInt(8));
        unit.row = static_cast<uint32_t>(rng.uniformInt(65536));
        unit.colGroup = static_cast<uint16_t>(rng.uniformInt(16));
        EXPECT_EQ(map.invert(map.locate(unit)), unit);
    }

    // 512 consecutive rows: structured mode gives 512 distinct sets;
    // hash-only mode collides with near-certainty (birthday).
    std::vector<uint64_t> sets;
    RemapUnit unit{0, 3, 2, 0, 5};
    for (uint32_t r = 0; r < 512; ++r) {
        unit.row = 512 * 9 + r;
        sets.push_back(map.locate(unit).set);
    }
    std::sort(sets.begin(), sets.end());
    const auto distinct = std::unique(sets.begin(), sets.end()) -
                          sets.begin();
    EXPECT_LT(distinct, 512);
}

} // namespace
} // namespace relaxfault
