/**
 * @file
 * Tests for the fault model: regions and their algebra, FIT rates, the
 * extent samplers, the population sampler with acceleration (Eq. 1), and
 * the fault-set probe.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>

#include "common/rng.h"
#include "common/stats.h"
#include "faults/fault_model.h"
#include "faults/fault_set.h"
#include "faults/rates.h"

namespace relaxfault {
namespace {

DramGeometry
geom()
{
    return DramGeometry{};
}

FaultRegion
bitRegion(unsigned bank, uint32_t row, uint16_t col, uint32_t mask)
{
    RegionCluster cluster;
    cluster.bankMask = 1u << bank;
    cluster.rows = RowSet::of({row});
    cluster.cols = ColSet::of({col});
    cluster.bitMask = mask;
    return FaultRegion({cluster});
}

TEST(RowSet, CountContainsIntersect)
{
    const RowSet a = RowSet::of({5, 1, 3, 3});
    EXPECT_EQ(a.count(geom()), 3u);
    EXPECT_TRUE(a.contains(3));
    EXPECT_FALSE(a.contains(2));
    const RowSet b = RowSet::of({3, 4, 5});
    EXPECT_EQ(RowSet::intersectCount(a, b, geom()), 2u);
    const RowSet all = RowSet::allRows();
    EXPECT_EQ(RowSet::intersectCount(all, b, geom()), 3u);
    EXPECT_EQ(all.count(geom()), geom().rowsPerBank);
}

TEST(ColSet, CountContainsIntersect)
{
    const ColSet a = ColSet::of({7});
    const ColSet b = ColSet::allCols();
    EXPECT_EQ(ColSet::intersectCount(a, b, geom()), 1u);
    EXPECT_TRUE(b.contains(200));
    EXPECT_FALSE(a.contains(6));
}

TEST(Region, SingleBitCounts)
{
    const FaultRegion region = bitRegion(2, 100, 50, 1u << 9);
    EXPECT_EQ(region.lineSliceCount(geom()), 1u);
    EXPECT_EQ(region.remapUnitCount(geom()), 1u);
    EXPECT_FALSE(region.massive());
    EXPECT_EQ(region.sliceMask(2, 100, 50), 1u << 9);
    EXPECT_EQ(region.sliceMask(2, 100, 51), 0u);
    EXPECT_EQ(region.sliceMask(3, 100, 50), 0u);
    EXPECT_DOUBLE_EQ(region.symbolFraction(), 0.25);
}

TEST(Region, FullRowCounts)
{
    RegionCluster cluster;
    cluster.bankMask = 1u << 1;
    cluster.rows = RowSet::of({77});
    cluster.cols = ColSet::allCols();
    const FaultRegion region({cluster});
    // 256 column blocks; 16 blocks per 64B remap unit -> 16 units.
    EXPECT_EQ(region.lineSliceCount(geom()), 256u);
    EXPECT_EQ(region.remapUnitCount(geom()), 16u);
    EXPECT_DOUBLE_EQ(region.symbolFraction(), 1.0);
}

TEST(Region, ColumnCounts)
{
    RegionCluster cluster;
    cluster.bankMask = 1u << 0;
    cluster.rows = RowSet::of({10, 20, 30, 40});
    cluster.cols = ColSet::of({100});
    cluster.bitMask = 1u << 3;
    const FaultRegion region({cluster});
    EXPECT_EQ(region.lineSliceCount(geom()), 4u);
    EXPECT_EQ(region.remapUnitCount(geom()), 4u);
    EXPECT_EQ(region.distinctRowCount(geom()), 4u);
}

TEST(Region, MassiveBank)
{
    RegionCluster cluster;
    cluster.bankMask = 1u << 4;
    cluster.rows = RowSet::allRows();
    cluster.cols = ColSet::allCols();
    const FaultRegion region({cluster});
    EXPECT_TRUE(region.massive());
    EXPECT_EQ(region.lineSliceCount(geom()),
              uint64_t{geom().rowsPerBank} * geom().colBlocksPerRow);
    EXPECT_EQ(region.bankCount(), 1u);
}

TEST(Region, RemapUnitsGroupColumns)
{
    // Columns 0 and 15 share remap unit 0; column 16 is unit 1.
    RegionCluster cluster;
    cluster.bankMask = 1;
    cluster.rows = RowSet::of({1});
    cluster.cols = ColSet::of({0, 15, 16});
    const FaultRegion region({cluster});
    EXPECT_EQ(region.lineSliceCount(geom()), 3u);
    EXPECT_EQ(region.remapUnitCount(geom()), 2u);
}

TEST(Region, ForEachSliceVisitsAll)
{
    RegionCluster cluster;
    cluster.bankMask = (1u << 1) | (1u << 3);
    cluster.rows = RowSet::of({5, 6});
    cluster.cols = ColSet::of({9});
    const FaultRegion region({cluster});
    unsigned visits = 0;
    region.forEachUnit(geom(), 1, [&](unsigned bank, uint32_t row,
                                      uint16_t col) {
        EXPECT_TRUE(bank == 1 || bank == 3);
        EXPECT_TRUE(row == 5 || row == 6);
        EXPECT_EQ(col, 9);
        ++visits;
    });
    EXPECT_EQ(visits, 4u);
}

TEST(Region, PairIntersection)
{
    const FaultRegion a = bitRegion(2, 100, 50, 0xff);
    const FaultRegion b = bitRegion(2, 100, 50, 0xff00);
    const FaultRegion c = bitRegion(2, 101, 50, 0xff);
    EXPECT_EQ(FaultRegion::intersectLineCount(a, b, geom()), 1u);
    EXPECT_EQ(FaultRegion::intersectLineCount(a, c, geom()), 0u);
}

TEST(Region, SharesSymbol)
{
    EXPECT_TRUE(FaultRegion::sharesSymbol(0x1, 0x80));     // Symbol 0.
    EXPECT_FALSE(FaultRegion::sharesSymbol(0x1, 0x100));   // 0 vs 1.
    EXPECT_TRUE(FaultRegion::sharesSymbol(0xffffffff, 0x01000000));
}

TEST(Region, CodewordIntersectRespectsSymbols)
{
    // Same slice, but disjoint symbols: no codeword-level overlap.
    const FaultRegion a = bitRegion(1, 10, 10, 0x000000ff);
    const FaultRegion b = bitRegion(1, 10, 10, 0x0000ff00);
    const FaultRegion c = bitRegion(1, 10, 10, 0x000000f0);
    EXPECT_EQ(FaultRegion::codewordIntersect(a, b, geom())
                  .lineSliceCount(geom()),
              0u);
    EXPECT_EQ(FaultRegion::codewordIntersect(a, c, geom())
                  .lineSliceCount(geom()),
              1u);
}

TEST(Region, CodewordIntersectComposesForTriples)
{
    // Bank fault (full mask) intersected with two single-bit faults in
    // the same line and symbol: triple overlap survives composition.
    RegionCluster bank_cluster;
    bank_cluster.bankMask = 1u << 2;
    bank_cluster.rows = RowSet::of({100});
    bank_cluster.cols = ColSet::allCols();
    const FaultRegion bank_fault({bank_cluster});
    const FaultRegion bit1 = bitRegion(2, 100, 50, 0x1);
    const FaultRegion bit2 = bitRegion(2, 100, 50, 0x2);
    const FaultRegion pair =
        FaultRegion::codewordIntersect(bank_fault, bit1, geom());
    EXPECT_EQ(pair.lineSliceCount(geom()), 1u);
    const FaultRegion triple =
        FaultRegion::codewordIntersect(pair, bit2, geom());
    EXPECT_EQ(triple.lineSliceCount(geom()), 1u);

    // A third fault in a different symbol breaks the chain.
    const FaultRegion other_symbol = bitRegion(2, 100, 50, 0x100);
    EXPECT_EQ(FaultRegion::codewordIntersect(pair, other_symbol, geom())
                  .lineSliceCount(geom()),
              0u);
}

TEST(Rates, CieloTotalsMatchTable2)
{
    const FitRates rates = FitRates::cielo();
    EXPECT_NEAR(rates.totalTransient(), 20.3, 1e-9);
    EXPECT_NEAR(rates.totalPermanent(), 20.0, 1e-9);
    EXPECT_DOUBLE_EQ(rates.permanent(FaultMode::SingleBit), 13.0);
    EXPECT_DOUBLE_EQ(rates.transient(FaultMode::MultiRank), 0.2);
}

TEST(Rates, ModeNames)
{
    EXPECT_STREQ(faultModeName(FaultMode::SingleRow), "single-row");
    EXPECT_STREQ(faultModeName(FaultMode::MultiBank), "multi-bank");
}

class GeometrySamplerTest : public ::testing::Test
{
  protected:
    DramGeometry geometry_;
    FaultGeometryParams params_;
    FaultGeometrySampler sampler_{geometry_, params_};
    Rng rng_{2024};
};

TEST_F(GeometrySamplerTest, SingleBitIsOneSlice)
{
    for (int i = 0; i < 200; ++i) {
        const FaultRegion region =
            sampler_.sample(FaultMode::SingleBit, rng_);
        EXPECT_EQ(region.lineSliceCount(geometry_), 1u);
        EXPECT_FALSE(region.massive());
    }
}

TEST_F(GeometrySamplerTest, SingleRowIsFullRow)
{
    for (int i = 0; i < 100; ++i) {
        const FaultRegion region =
            sampler_.sample(FaultMode::SingleRow, rng_);
        EXPECT_EQ(region.lineSliceCount(geometry_), 256u);
        EXPECT_EQ(region.remapUnitCount(geometry_), 16u);
    }
}

TEST_F(GeometrySamplerTest, ColumnStaysInOneSubarray)
{
    for (int i = 0; i < 200; ++i) {
        const FaultRegion region =
            sampler_.sample(FaultMode::SingleColumn, rng_);
        ASSERT_EQ(region.clusters().size(), 1u);
        const auto &cluster = region.clusters()[0];
        ASSERT_FALSE(cluster.rows.all);
        ASSERT_FALSE(cluster.rows.rows.empty());
        const uint32_t base =
            cluster.rows.rows.front() / params_.subarrayRows;
        for (const auto row : cluster.rows.rows)
            EXPECT_EQ(row / params_.subarrayRows, base);
        EXPECT_LE(cluster.rows.rows.size(), params_.subarrayRows);
        EXPECT_EQ(cluster.cols.cols.size(), 1u);
    }
}

TEST_F(GeometrySamplerTest, ColumnRowCountMeanRoughlyCalibrated)
{
    RunningStat stat;
    for (int i = 0; i < 4000; ++i) {
        const FaultRegion region =
            sampler_.sample(FaultMode::SingleColumn, rng_);
        stat.add(static_cast<double>(
            region.clusters()[0].rows.rows.size()));
    }
    // Geometric with the configured mean, truncated by the subarray
    // size and by duplicate draws; allow a generous band.
    EXPECT_GT(stat.mean(), 0.55 * params_.columnRowsMean);
    EXPECT_LT(stat.mean(), 1.15 * params_.columnRowsMean);
}

TEST_F(GeometrySamplerTest, BankExtentMixture)
{
    unsigned massive = 0;
    unsigned small = 0;
    const int trials = 4000;
    for (int i = 0; i < trials; ++i) {
        const FaultRegion region =
            sampler_.sample(FaultMode::SingleBank, rng_);
        EXPECT_EQ(region.bankCount(), 1u);
        if (region.massive())
            ++massive;
        else if (region.distinctRowCount(geometry_) <= 64)
            ++small;
    }
    const double massive_frac = static_cast<double>(massive) / trials;
    const double expected_massive =
        1.0 - params_.bankSmallProb - params_.bankMediumProb;
    EXPECT_NEAR(massive_frac, expected_massive, 0.03);
    EXPECT_GT(small, trials / 3);
}

TEST_F(GeometrySamplerTest, MultiBankSpansSeveralBanks)
{
    for (int i = 0; i < 300; ++i) {
        const FaultRegion region =
            sampler_.sample(FaultMode::MultiBank, rng_);
        EXPECT_GE(region.bankCount(), params_.multiBankMin);
        EXPECT_LE(region.bankCount(), geometry_.banksPerDevice);
    }
}

TEST_F(GeometrySamplerTest, MultiRankPinFaultIsMassiveSingleBit)
{
    unsigned massive = 0;
    const int trials = 2000;
    for (int i = 0; i < trials; ++i) {
        const FaultRegion region =
            sampler_.sample(FaultMode::MultiRank, rng_);
        if (region.massive()) {
            ++massive;
            EXPECT_DOUBLE_EQ(region.clusters()[0].bitMask == 0xffffffffu
                                 ? 1.0
                                 : region.symbolFraction(),
                             0.25);
        }
    }
    EXPECT_NEAR(static_cast<double>(massive) / trials,
                params_.multiRankMassiveProb, 0.04);
}

/**
 * The original randomRows, kept as the oracle: a partial Fisher-Yates
 * over a materialized pool (dense) or rejection with a linear search
 * (sparse), then a sort through RowSet::of.
 */
RowSet
referenceRandomRows(unsigned count, uint32_t base, uint32_t span, Rng &rng)
{
    count = std::min(count, span);
    std::vector<uint32_t> rows;
    rows.reserve(count);
    if (count * 3 >= span) {
        std::vector<uint32_t> pool(span);
        for (uint32_t i = 0; i < span; ++i)
            pool[i] = base + i;
        for (unsigned i = 0; i < count; ++i) {
            const auto j = i + static_cast<uint32_t>(
                rng.uniformInt(span - i));
            std::swap(pool[i], pool[j]);
            rows.push_back(pool[i]);
        }
    } else {
        while (rows.size() < count) {
            const auto row = base + static_cast<uint32_t>(
                rng.uniformInt(span));
            if (std::find(rows.begin(), rows.end(), row) == rows.end())
                rows.push_back(row);
        }
    }
    return RowSet::of(std::move(rows));
}

TEST(RandomRows, MatchesReferenceRowsAndDraws)
{
    for (const uint32_t span : {512u, 65536u}) {
        for (const uint32_t base : {0u, 4096u}) {
            for (const unsigned count :
                 {1u, 2u, 8u, 9u, 32u, 33u, 170u, 171u, span}) {
                for (uint64_t seed = 1; seed <= 5; ++seed) {
                    Rng rng(seed);
                    Rng reference_rng(seed);
                    const RowSet rows = FaultGeometrySampler::randomRows(
                        count, base, span, rng);
                    const RowSet expected =
                        referenceRandomRows(count, base, span, reference_rng);
                    ASSERT_EQ(rows, expected)
                        << "count " << count << " base " << base << " span "
                        << span << " seed " << seed;
                    ASSERT_EQ(rng.next(), reference_rng.next())
                        << "count " << count << " base " << base << " span "
                        << span << " seed " << seed;
                }
            }
        }
    }
}

/** FNV-1a over the little-endian bytes of 64-bit words. */
struct Fnv1a
{
    uint64_t hash = 0xcbf29ce484222325ull;

    void add(uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            hash ^= (value >> (8 * i)) & 0xffu;
            hash *= 0x100000001b3ull;
        }
    }
};

/** Digest of @p regions sampled regions of @p mode plus the next draw. */
uint64_t
regionDigest(FaultMode mode, unsigned regions, uint64_t seed)
{
    const FaultGeometrySampler sampler{DramGeometry{}, FaultGeometryParams{}};
    Rng rng(seed);
    Fnv1a fnv;
    for (unsigned i = 0; i < regions; ++i) {
        const FaultRegion region = sampler.sample(mode, rng);
        fnv.add(region.clusters().size());
        for (const RegionCluster &cluster : region.clusters()) {
            fnv.add(cluster.bankMask);
            fnv.add(cluster.rows.all);
            fnv.add(cluster.rows.rows.size());
            for (const uint32_t row : cluster.rows.rows)
                fnv.add(row);
            fnv.add(cluster.cols.all);
            fnv.add(cluster.cols.cols.size());
            for (const uint16_t col : cluster.cols.cols)
                fnv.add(col);
            fnv.add(cluster.bitMask);
        }
    }
    fnv.add(rng.next());
    return fnv.hash;
}

TEST(RegionSampler, DigestPinnedPerMode)
{
    // 2,000 regions per mode at seed 2016, DDR3 geometry and default
    // calibration. Only a change that moves the region stream on purpose
    // may change these.
    const uint64_t pinned[kFaultModeCount] = {
        0xdf61bff5ac6644ceull, 0x154c5179c8b03f1full, 0x3b5ea2c3e345674full,
        0xae89ae63de54161eull, 0xddcd9737e9766f93ull, 0xe916c94483575f61ull,
    };
    for (unsigned m = 0; m < kFaultModeCount; ++m) {
        const auto mode = static_cast<FaultMode>(m);
        EXPECT_EQ(regionDigest(mode, 2000, 2016), pinned[m])
            << faultModeName(mode);
    }
}

TEST(FaultModelConfig, AdjustmentFactorMatchesEq1)
{
    FaultModelConfig config;
    // Defaults: 0.1% + 0.1% at 100x -> ~0.8 for the rest.
    EXPECT_NEAR(config.adjustmentFactor(), (1.0 - 0.2) / 0.998, 1e-9);
    config.accelerationEnabled = false;
    EXPECT_DOUBLE_EQ(config.adjustmentFactor(), 1.0);
}

TEST(FaultSampler, ExpectedFaultCountMatchesAnalytic)
{
    FaultModelConfig config;
    config.accelerationEnabled = false;
    const NodeFaultSampler sampler(config);
    // 40.3 FIT/device * 144 devices * 52596h.
    const double expected = 40.3e-9 * 144 * config.missionHours;
    EXPECT_NEAR(sampler.expectedFaultsPerNode(), expected, 1e-6);

    Rng rng(77);
    RunningStat stat;
    for (int i = 0; i < 30000; ++i)
        stat.add(static_cast<double>(sampler.sampleNode(rng).faults.size()));
    EXPECT_NEAR(stat.mean(), expected, 0.01);
}

TEST(FaultSampler, AccelerationPreservesPopulationMean)
{
    FaultModelConfig config;  // Acceleration on.
    const NodeFaultSampler sampler(config);
    Rng rng(78);
    RunningStat stat;
    for (int i = 0; i < 60000; ++i)
        stat.add(static_cast<double>(sampler.sampleNode(rng).faults.size()));
    const double expected = sampler.expectedFaultsPerNode();
    EXPECT_NEAR(stat.mean(), expected, expected * 0.1);
}

TEST(FaultSampler, FitScaleMultiplies)
{
    FaultModelConfig config;
    config.accelerationEnabled = false;
    config.fitScale = 10.0;
    const NodeFaultSampler sampler(config);
    Rng rng(79);
    RunningStat stat;
    for (int i = 0; i < 10000; ++i)
        stat.add(static_cast<double>(sampler.sampleNode(rng).faults.size()));
    EXPECT_NEAR(stat.mean(), sampler.expectedFaultsPerNode(), 0.1);
    EXPECT_NEAR(stat.mean(), 10 * 40.3e-9 * 144 * config.missionHours,
                0.1);
}

TEST(FaultSampler, ModeMixMatchesRates)
{
    FaultModelConfig config;
    config.accelerationEnabled = false;
    config.fitScale = 50.0;  // More faults per node for statistics.
    const NodeFaultSampler sampler(config);
    Rng rng(80);
    uint64_t counts[kFaultModeCount] = {};
    uint64_t permanent = 0;
    uint64_t total = 0;
    for (int i = 0; i < 4000; ++i) {
        for (const auto &fault : sampler.sampleNode(rng).faults) {
            ++counts[static_cast<unsigned>(fault.mode)];
            permanent += fault.permanent();
            ++total;
        }
    }
    const FitRates rates = FitRates::cielo();
    const double bit_share =
        (rates.transient(FaultMode::SingleBit) +
         rates.permanent(FaultMode::SingleBit)) / rates.total();
    EXPECT_NEAR(static_cast<double>(
                    counts[static_cast<unsigned>(FaultMode::SingleBit)]) /
                    total,
                bit_share, 0.02);
    EXPECT_NEAR(static_cast<double>(permanent) / total,
                rates.totalPermanent() / rates.total(), 0.02);
}

TEST(FaultSampler, TimesSortedWithinMission)
{
    FaultModelConfig config;
    config.fitScale = 30.0;
    const NodeFaultSampler sampler(config);
    Rng rng(81);
    for (int i = 0; i < 500; ++i) {
        const NodeSample node = sampler.sampleNode(rng);
        double last = 0.0;
        for (const auto &fault : node.faults) {
            EXPECT_GE(fault.timeHours, last);
            EXPECT_LE(fault.timeHours, config.missionHours);
            last = fault.timeHours;
        }
    }
}

TEST(FaultSampler, SampleNodeIntoOverwritesDirtySample)
{
    FaultModelConfig config;
    config.fitScale = 10.0;
    config.accelerationEnabled = false;
    const NodeFaultSampler sampler(config);

    NodeSample dirty;
    {
        Rng rng(5);
        dirty = sampler.sampleNode(rng);
        while (dirty.faults.size() < 4)
            sampler.sampleFaultInto(dirty, 0, rng);
    }
    for (uint64_t seed = 11; seed < 211; ++seed) {
        dirty.acceleratedNode = true;
        dirty.acceleratedDimm.assign(3, true);
        Rng rng(seed);
        Rng fresh_rng(seed);
        sampler.sampleNodeInto(dirty, rng);
        const NodeSample fresh = sampler.sampleNode(fresh_rng);
        ASSERT_EQ(dirty.acceleratedNode, fresh.acceleratedNode);
        ASSERT_EQ(dirty.acceleratedDimm, fresh.acceleratedDimm);
        ASSERT_EQ(dirty.faults.size(), fresh.faults.size());
        for (size_t i = 0; i < fresh.faults.size(); ++i) {
            const FaultRecord &a = dirty.faults[i];
            const FaultRecord &b = fresh.faults[i];
            EXPECT_EQ(a.mode, b.mode);
            EXPECT_EQ(a.persistence, b.persistence);
            EXPECT_EQ(a.timeHours, b.timeHours);
            EXPECT_EQ(a.hardPermanent, b.hardPermanent);
            EXPECT_EQ(a.activationRatePerHour, b.activationRatePerHour);
            EXPECT_EQ(a.parts, b.parts);
        }
        ASSERT_EQ(rng.next(), fresh_rng.next());
    }
}

/**
 * Field-by-field equality of a pooled record with a fresh one: a field
 * the in-place sampler forgot to overwrite would keep an earlier fault's
 * value (an `all` flag, a row or column list, a cluster, an activation
 * rate).
 */
void
expectSameRecord(const FaultRecord &reused, const FaultRecord &fresh)
{
    EXPECT_EQ(reused.mode, fresh.mode);
    EXPECT_EQ(reused.persistence, fresh.persistence);
    EXPECT_EQ(reused.timeHours, fresh.timeHours);
    EXPECT_EQ(reused.hardPermanent, fresh.hardPermanent);
    EXPECT_EQ(reused.activationRatePerHour, fresh.activationRatePerHour);
    ASSERT_EQ(reused.parts.size(), fresh.parts.size());
    for (size_t p = 0; p < fresh.parts.size(); ++p) {
        const DevicePart &a = reused.parts[p];
        const DevicePart &b = fresh.parts[p];
        EXPECT_EQ(a.dimm, b.dimm);
        EXPECT_EQ(a.device, b.device);
        const auto &ca = a.region.clusters();
        const auto &cb = b.region.clusters();
        ASSERT_EQ(ca.size(), cb.size()) << "part " << p;
        for (size_t c = 0; c < cb.size(); ++c) {
            EXPECT_EQ(ca[c].bankMask, cb[c].bankMask) << "cluster " << c;
            EXPECT_EQ(ca[c].rows.all, cb[c].rows.all) << "cluster " << c;
            EXPECT_EQ(ca[c].rows.rows, cb[c].rows.rows) << "cluster " << c;
            EXPECT_EQ(ca[c].cols.all, cb[c].cols.all) << "cluster " << c;
            EXPECT_EQ(ca[c].cols.cols, cb[c].cols.cols) << "cluster " << c;
            EXPECT_EQ(ca[c].bitMask, cb[c].bitMask) << "cluster " << c;
        }
    }
    EXPECT_EQ(reused, fresh);
}

/**
 * Walk @p nodes nodes through one reused NodeSample and check each
 * against a fresh `sampleNode` drawn from a copy of the stream. Returns
 * the faults seen per mode.
 */
std::array<uint64_t, kFaultModeCount>
expectReuseMatchesFresh(const FaultModelConfig &config, uint64_t seed,
                        unsigned nodes)
{
    const NodeFaultSampler sampler(config);
    std::array<uint64_t, kFaultModeCount> per_mode{};
    NodeSample reused;
    Rng rng(seed);
    for (unsigned n = 0; n < nodes; ++n) {
        Rng fresh_rng = rng;
        sampler.sampleNodeInto(reused, rng);
        const NodeSample fresh = sampler.sampleNode(fresh_rng);
        EXPECT_EQ(reused.acceleratedNode, fresh.acceleratedNode);
        EXPECT_EQ(reused.acceleratedDimm, fresh.acceleratedDimm);
        EXPECT_EQ(reused.faults.size(), fresh.faults.size()) << "node " << n;
        if (reused.faults.size() != fresh.faults.size())
            break;
        for (size_t i = 0; i < fresh.faults.size(); ++i) {
            SCOPED_TRACE("node " + std::to_string(n) + " fault " +
                         std::to_string(i));
            expectSameRecord(reused.faults[i], fresh.faults[i]);
            ++per_mode[static_cast<unsigned>(fresh.faults[i].mode)];
        }
        if (::testing::Test::HasFailure())
            break;
        Rng after_reused = rng;
        EXPECT_EQ(after_reused.next(), fresh_rng.next()) << "node " << n;
    }
    return per_mode;
}

TEST(FaultSampler, PooledRecordsMatchFreshSamplesAtTenX)
{
    FaultModelConfig config;
    config.fitScale = 10.0;
    const auto per_mode = expectReuseMatchesFresh(config, 30, 20000);
    for (unsigned m = 0; m < kFaultModeCount; ++m)
        EXPECT_GT(per_mode[m], 100u) << faultModeName(FaultMode(m));
}

TEST(FaultSampler, PooledRecordsMatchFreshSamplesWhenShapesChurn)
{
    // Multi-bank and multi-rank faults 20x likelier: records and regions
    // change shape (1 or 2 parts; 1 to 8 clusters) from node to node.
    FaultModelConfig config;
    config.fitScale = 10.0;
    for (const FaultMode mode : {FaultMode::MultiBank, FaultMode::MultiRank}) {
        config.rates.transientFit[static_cast<unsigned>(mode)] *= 20.0;
        config.rates.permanentFit[static_cast<unsigned>(mode)] *= 20.0;
    }
    const auto per_mode = expectReuseMatchesFresh(config, 31, 20000);
    EXPECT_GT(per_mode[static_cast<unsigned>(FaultMode::MultiBank)], 5000u);
    EXPECT_GT(per_mode[static_cast<unsigned>(FaultMode::MultiRank)], 5000u);
}

TEST(FaultSampler, ExactPathAgreesOnMean)
{
    FaultModelConfig config;
    config.accelerationEnabled = false;
    config.fitScale = 5.0;
    const NodeFaultSampler sampler(config);
    Rng rng_fast(90);
    Rng rng_exact(91);
    RunningStat fast;
    RunningStat exact;
    for (int i = 0; i < 4000; ++i) {
        fast.add(static_cast<double>(
            sampler.sampleNode(rng_fast).faults.size()));
        exact.add(static_cast<double>(
            sampler.sampleNodeExact(rng_exact).faults.size()));
    }
    EXPECT_NEAR(fast.mean(), exact.mean(),
                4 * (fast.stderror() + exact.stderror()) + 0.02);
}

TEST(FaultSampler, MultiRankMirrorsPartnerDimm)
{
    FaultModelConfig config;
    config.accelerationEnabled = false;
    config.fitScale = 200.0;
    const NodeFaultSampler sampler(config);
    Rng rng(92);
    bool found = false;
    for (int i = 0; i < 2000 && !found; ++i) {
        for (const auto &fault : sampler.sampleNode(rng).faults) {
            if (fault.mode != FaultMode::MultiRank)
                continue;
            found = true;
            ASSERT_EQ(fault.parts.size(), 2u);
            EXPECT_EQ(fault.parts[0].dimm ^ 1, fault.parts[1].dimm);
            EXPECT_EQ(fault.parts[0].device, fault.parts[1].device);
        }
    }
    EXPECT_TRUE(found);
}

TEST(FaultSampler, IntermittentRatesWithinRange)
{
    FaultModelConfig config;
    config.fitScale = 50.0;
    config.hardPermanentFraction = 0.0;  // All intermittent.
    const NodeFaultSampler sampler(config);
    Rng rng(93);
    unsigned seen = 0;
    for (int i = 0; i < 500; ++i) {
        for (const auto &fault : sampler.sampleNode(rng).faults) {
            if (!fault.permanent())
                continue;
            ++seen;
            EXPECT_FALSE(fault.hardPermanent);
            EXPECT_GE(fault.activationRatePerHour,
                      config.intermittentMinRatePerHour * 0.999);
            EXPECT_LE(fault.activationRatePerHour,
                      config.intermittentMaxRatePerHour * 1.001);
        }
    }
    EXPECT_GT(seen, 100u);
}

TEST(FaultSetTest, ProbeAppliesPermanentFaultsOnly)
{
    FaultSet set(geom());
    FaultRecord permanent;
    permanent.persistence = Persistence::Permanent;
    permanent.parts.push_back({3, 7, bitRegion(1, 5, 9, 0xf)});
    FaultRecord transient;
    transient.persistence = Persistence::Transient;
    transient.parts.push_back({3, 7, bitRegion(1, 6, 9, 0xf0)});
    set.addFault(permanent);
    set.addFault(transient);

    DeviceCoord coord{3, 7, 1, 5, 9};
    EXPECT_EQ(set.probe(coord).mask, 0xfu);
    coord.row = 6;
    EXPECT_EQ(set.probe(coord).mask, 0u);  // Transient not stuck.
    coord.device = 8;
    EXPECT_EQ(set.probe(coord).mask, 0u);
}

TEST(FaultSetTest, ProbeStuckValueDeterministic)
{
    FaultSet set(geom());
    FaultRecord fault;
    fault.parts.push_back({0, 0, bitRegion(0, 0, 0, 0xffffffff)});
    set.addFault(fault);
    const DeviceCoord coord{0, 0, 0, 0, 0};
    EXPECT_EQ(set.probe(coord).value, set.probe(coord).value);
    EXPECT_EQ(set.probe(coord).mask, 0xffffffffu);
}

TEST(FaultSetTest, RepairFlagAndClear)
{
    FaultSet set(geom());
    FaultRecord fault;
    fault.parts.push_back({0, 0, bitRegion(0, 0, 0, 1)});
    const size_t id = set.addFault(fault);
    EXPECT_FALSE(set.repaired(id));
    set.setRepaired(id, true);
    EXPECT_TRUE(set.repaired(id));
    set.clear();
    EXPECT_TRUE(set.faults().empty());
}

} // namespace
} // namespace relaxfault
