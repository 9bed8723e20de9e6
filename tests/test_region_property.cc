/**
 * @file
 * Property tests: the FaultRegion algebra (counts, enumeration,
 * pairwise and codeword-level intersection) must agree exactly with a
 * brute-force cell-set model on randomized regions over a scaled-down
 * geometry.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "common/rng.h"
#include "faults/region.h"

namespace relaxfault {
namespace {

DramGeometry
tinyGeometry()
{
    DramGeometry geometry;
    geometry.banksPerDevice = 4;
    geometry.rowsPerBank = 32;
    geometry.colBlocksPerRow = 16;
    return geometry;
}

using Cell = std::tuple<unsigned, uint32_t, uint16_t>;

/** Brute-force model: slice -> united bit mask. */
std::map<Cell, uint32_t>
materialize(const FaultRegion &region, const DramGeometry &geometry)
{
    std::map<Cell, uint32_t> cells;
    for (const auto &cluster : region.clusters()) {
        for (unsigned bank = 0; bank < geometry.banksPerDevice; ++bank) {
            if (!(cluster.bankMask & (1u << bank)))
                continue;
            for (uint32_t row = 0; row < geometry.rowsPerBank; ++row) {
                if (!cluster.rows.contains(row))
                    continue;
                for (uint16_t col = 0; col < geometry.colBlocksPerRow;
                     ++col) {
                    if (!cluster.cols.contains(col))
                        continue;
                    cells[{bank, row, col}] |= cluster.bitMask;
                }
            }
        }
    }
    return cells;
}

FaultRegion
randomRegion(Rng &rng, const DramGeometry &geometry)
{
    const unsigned cluster_count = 1 + rng.uniformInt(3);
    std::vector<RegionCluster> clusters;
    for (unsigned c = 0; c < cluster_count; ++c) {
        RegionCluster cluster;
        cluster.bankMask = static_cast<uint32_t>(
            1 + rng.uniformInt(maskBits(geometry.banksPerDevice)));
        if (rng.bernoulli(0.15)) {
            cluster.rows = RowSet::allRows();
        } else {
            std::vector<uint32_t> rows;
            const unsigned count = 1 + rng.uniformInt(6);
            for (unsigned i = 0; i < count; ++i)
                rows.push_back(static_cast<uint32_t>(
                    rng.uniformInt(geometry.rowsPerBank)));
            cluster.rows = RowSet::of(std::move(rows));
        }
        if (rng.bernoulli(0.3)) {
            cluster.cols = ColSet::allCols();
        } else {
            std::vector<uint16_t> cols;
            const unsigned count = 1 + rng.uniformInt(4);
            for (unsigned i = 0; i < count; ++i)
                cols.push_back(static_cast<uint16_t>(
                    rng.uniformInt(geometry.colBlocksPerRow)));
            cluster.cols = ColSet::of(std::move(cols));
        }
        cluster.bitMask = static_cast<uint32_t>(rng.next() | 1);
        clusters.push_back(std::move(cluster));
    }
    return FaultRegion(std::move(clusters));
}

class RegionProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RegionProperty, SliceCountMatchesBruteForceWhenDisjoint)
{
    // lineSliceCount sums clusters (documented as exact for sampler
    // output, which uses disjoint clusters) — force disjoint banks.
    const DramGeometry geometry = tinyGeometry();
    Rng rng(GetParam());
    for (int i = 0; i < 50; ++i) {
        FaultRegion region = randomRegion(rng, geometry);
        // Make clusters bank-disjoint by intersecting masks away.
        std::vector<RegionCluster> disjoint;
        uint32_t used = 0;
        for (auto cluster : region.clusters()) {
            cluster.bankMask &= ~used;
            if (cluster.bankMask == 0)
                continue;
            used |= cluster.bankMask;
            disjoint.push_back(std::move(cluster));
        }
        const FaultRegion clean(std::move(disjoint));
        EXPECT_EQ(clean.lineSliceCount(geometry),
                  materialize(clean, geometry).size());
    }
}

TEST_P(RegionProperty, SliceMaskMatchesBruteForce)
{
    const DramGeometry geometry = tinyGeometry();
    Rng rng(GetParam() + 1000);
    for (int i = 0; i < 20; ++i) {
        const FaultRegion region = randomRegion(rng, geometry);
        const auto cells = materialize(region, geometry);
        for (unsigned bank = 0; bank < geometry.banksPerDevice; ++bank) {
            for (uint32_t row = 0; row < geometry.rowsPerBank; ++row) {
                for (uint16_t col = 0; col < geometry.colBlocksPerRow;
                     ++col) {
                    const auto it = cells.find({bank, row, col});
                    const uint32_t expected =
                        it == cells.end() ? 0 : it->second;
                    ASSERT_EQ(region.sliceMask(bank, row, col), expected);
                }
            }
        }
    }
}

TEST_P(RegionProperty, ForEachSliceVisitsBruteForceSet)
{
    const DramGeometry geometry = tinyGeometry();
    Rng rng(GetParam() + 2000);
    for (int i = 0; i < 30; ++i) {
        const FaultRegion region = randomRegion(rng, geometry);
        const auto cells = materialize(region, geometry);
        std::set<Cell> visited;
        region.forEachUnit(geometry, 1,
                           [&](unsigned bank, uint32_t row, uint16_t col) {
                               visited.insert({bank, row, col});
                           });
        std::set<Cell> expected;
        for (const auto &[cell, mask] : cells) {
            (void)mask;
            expected.insert(cell);
        }
        ASSERT_EQ(visited, expected);
    }
}

TEST_P(RegionProperty, CodewordIntersectMatchesBruteForce)
{
    const DramGeometry geometry = tinyGeometry();
    Rng rng(GetParam() + 3000);
    auto symbol_mask = [](uint32_t mask) {
        uint32_t symbols = 0;
        for (unsigned s = 0; s < 4; ++s) {
            if (mask & (0xffu << (8 * s)))
                symbols |= 1u << s;
        }
        return symbols;
    };
    for (int i = 0; i < 30; ++i) {
        const FaultRegion a = randomRegion(rng, geometry);
        const FaultRegion b = randomRegion(rng, geometry);
        const auto cells_a = materialize(a, geometry);
        const auto cells_b = materialize(b, geometry);

        // Brute force: slices where both err in a shared symbol.
        std::set<Cell> expected;
        for (const auto &[cell, mask] : cells_a) {
            const auto it = cells_b.find(cell);
            if (it == cells_b.end())
                continue;
            if (symbol_mask(mask) & symbol_mask(it->second))
                expected.insert(cell);
        }

        const FaultRegion overlap =
            FaultRegion::codewordIntersect(a, b, geometry);
        const auto overlap_cells = materialize(overlap, geometry);
        std::set<Cell> got;
        for (const auto &[cell, mask] : overlap_cells) {
            (void)mask;
            got.insert(cell);
        }
        ASSERT_EQ(got, expected);
        // Emptiness agreement is what the DUE classifier relies on.
        ASSERT_EQ(overlap.lineSliceCount(geometry) == 0,
                  expected.empty());
    }
}

TEST_P(RegionProperty, PairIntersectCountIsUpperBoundedBySizes)
{
    const DramGeometry geometry = tinyGeometry();
    Rng rng(GetParam() + 4000);
    for (int i = 0; i < 50; ++i) {
        const FaultRegion a = randomRegion(rng, geometry);
        const FaultRegion b = randomRegion(rng, geometry);
        const uint64_t overlap =
            FaultRegion::intersectLineCount(a, b, geometry);
        // Cluster-pairwise counting can overcount overlapping clusters
        // but never undercounts the brute-force intersection.
        const auto cells_a = materialize(a, geometry);
        const auto cells_b = materialize(b, geometry);
        uint64_t brute = 0;
        for (const auto &[cell, mask] : cells_a) {
            (void)mask;
            brute += cells_b.count(cell);
        }
        EXPECT_GE(overlap, brute);
        if (brute == 0) {
            // No false positives on disjoint regions.
            EXPECT_EQ(overlap, 0u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

} // namespace
} // namespace relaxfault
