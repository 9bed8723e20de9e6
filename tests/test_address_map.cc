/**
 * @file
 * The mapping differential-test layer (ctest -L mapping).
 *
 * Pins the GF(2)-matrix address map from three directions:
 *
 *  1. Properties: every registered scheme is a bijection over fuzzed
 *     geometry shapes (decode(encode(c)) == c and encode(decode(pa)) ==
 *     pa); the Fig. 7a shift arithmetic (kept here as a test-local
 *     oracle) equals its expression as an XOR scheme, bank XOR row-low
 *     permutation included; and the byte-sliced tables equal the
 *     per-bit parity product of the scheme's masks.
 *  2. Seed pins: frozen golden encode values keep every registered
 *     scheme bit-identical to the seed across refactors.
 *  3. Inference differential: map_infer's GF(2) recovery must exactly
 *     reproduce the masks of every registered scheme (oracle and
 *     observation-log modes), and a corrupted log must fail loudly
 *     rather than yield wrong masks.
 *
 * Plus the flag-surface contract: `--mapping` parses only where
 * documented, dies with the known-names list on a typo, and is fatal
 * (never warn-ignored) on benches whose results bypass the address map.
 */

#include <gtest/gtest.h>

#include <vector>

#include "bench_util.h"
#include "common/bitops.h"
#include "common/cli.h"
#include "common/rng.h"
#include "dram/address_map.h"
#include "dram/map_infer.h"

namespace relaxfault {
namespace {

/**
 * The Fig. 7a layout written as field shifts plus the Zhang et al.
 * bank XOR row-low permutation, kept verbatim from the pre-matrix
 * implementation as an independent oracle for the XOR-scheme form.
 * Line-address fields, LSB to MSB: channel | col-low (6 bits) | bank |
 * col-high | rank | row.
 */
class Fig7aOracle
{
  public:
    Fig7aOracle(const DramGeometry &geometry, bool bank_xor_hash)
        : geometry_(geometry), bankXorHash_(bank_xor_hash)
    {
        const unsigned col_bits = geometry.colBlockBits();
        colLowBits_ = col_bits < 6 ? col_bits : 6;
        colHighBits_ = col_bits - colLowBits_;
        channelLsb_ = geometry.offsetBits();
        colLowLsb_ = channelLsb_ + geometry.channelBits();
        bankLsb_ = colLowLsb_ + colLowBits_;
        colHighLsb_ = bankLsb_ + geometry.bankBits();
        rankLsb_ = colHighLsb_ + colHighBits_;
        rowLsb_ = rankLsb_ + geometry.rankBits();
    }

    uint64_t
    encode(const LineCoord &coord) const
    {
        // The permutation is an involution, so encode applies it too.
        const unsigned bank_field = permuteBank(coord.bank, coord.row);
        uint64_t pa = 0;
        pa = depositBits(pa, channelLsb_, geometry_.channelBits(),
                         coord.channel);
        pa = depositBits(pa, colLowLsb_, colLowBits_,
                         coord.colBlock & maskBits(colLowBits_));
        pa = depositBits(pa, bankLsb_, geometry_.bankBits(), bank_field);
        pa = depositBits(pa, rankLsb_, geometry_.rankBits(), coord.rank);
        pa = depositBits(pa, colHighLsb_, colHighBits_,
                         coord.colBlock >> colLowBits_);
        pa = depositBits(pa, rowLsb_, geometry_.rowBits(), coord.row);
        return pa;
    }

    LineCoord
    decode(uint64_t pa) const
    {
        LineCoord coord;
        coord.channel = static_cast<unsigned>(
            extractBits(pa, channelLsb_, geometry_.channelBits()));
        const auto col_low = static_cast<unsigned>(
            extractBits(pa, colLowLsb_, colLowBits_));
        const auto bank_field = static_cast<unsigned>(
            extractBits(pa, bankLsb_, geometry_.bankBits()));
        coord.rank = static_cast<unsigned>(
            extractBits(pa, rankLsb_, geometry_.rankBits()));
        const auto col_high = static_cast<unsigned>(
            extractBits(pa, colHighLsb_, colHighBits_));
        coord.row = static_cast<unsigned>(
            extractBits(pa, rowLsb_, geometry_.rowBits()));
        coord.colBlock = (col_high << colLowBits_) | col_low;
        coord.bank = permuteBank(bank_field, coord.row);
        return coord;
    }

  private:
    unsigned
    permuteBank(unsigned bank, unsigned row) const
    {
        if (!bankXorHash_)
            return bank;
        return bank ^ (row & maskBits(geometry_.bankBits()));
    }

    DramGeometry geometry_;
    bool bankXorHash_;
    unsigned colLowBits_, colHighBits_;
    unsigned channelLsb_, colLowLsb_, bankLsb_, colHighLsb_, rankLsb_,
        rowLsb_;
};

/** Preset shapes plus fuzzed power-of-two variations. */
std::vector<DramGeometry>
fuzzedGeometries()
{
    std::vector<DramGeometry> shapes = {
        DramGeometry::ddr3Dimm(),
        DramGeometry::ddr4Dimm(),
        DramGeometry::lpddr4(),
        DramGeometry::hbmStack(),
    };
    Rng rng(0xface);
    const unsigned channels[] = {1, 2, 4, 8};
    const unsigned ranks[] = {1, 2, 4};
    const unsigned banks[] = {4, 8, 16};
    const unsigned rows[] = {4096, 16384, 65536};
    const unsigned cols[] = {32, 64, 256, 512};
    for (unsigned i = 0; i < 12; ++i) {
        DramGeometry geometry;
        geometry.channels = channels[rng.uniformInt(4)];
        geometry.ranksPerChannel = ranks[rng.uniformInt(3)];
        geometry.banksPerDevice = banks[rng.uniformInt(3)];
        geometry.rowsPerBank = rows[rng.uniformInt(3)];
        geometry.colBlocksPerRow = cols[rng.uniformInt(4)];
        shapes.push_back(geometry);
    }
    return shapes;
}

LineCoord
randomCoord(const DramGeometry &geometry, Rng &rng)
{
    LineCoord coord;
    coord.channel = static_cast<unsigned>(rng.uniformInt(geometry.channels));
    coord.rank =
        static_cast<unsigned>(rng.uniformInt(geometry.ranksPerChannel));
    coord.bank =
        static_cast<unsigned>(rng.uniformInt(geometry.banksPerDevice));
    coord.row = static_cast<unsigned>(rng.uniformInt(geometry.rowsPerBank));
    coord.colBlock =
        static_cast<unsigned>(rng.uniformInt(geometry.colBlocksPerRow));
    return coord;
}

uint64_t
randomLinePa(const DramGeometry &geometry, Rng &rng)
{
    return rng.uniformInt(geometry.nodeBytes() / geometry.lineBytes) *
           geometry.lineBytes;
}

// ---------------------------------------------------------------------
// 1. Properties over every registered mapping x fuzzed geometries.

TEST(MappingProperty, EveryMappingIsABijectionOverFuzzedGeometries)
{
    Rng rng(42);
    for (const DramGeometry &geometry : fuzzedGeometries()) {
        for (const std::string &name : addressMapNames()) {
            const DramAddressMap map = makeAddressMap(name, geometry);
            EXPECT_EQ(map.name(), name);
            for (unsigned i = 0; i < 200; ++i) {
                const LineCoord coord = randomCoord(geometry, rng);
                const uint64_t pa = map.encode(coord);
                EXPECT_LT(pa, geometry.nodeBytes()) << name;
                EXPECT_EQ(pa % geometry.lineBytes, 0u) << name;
                EXPECT_EQ(map.decode(pa), coord) << name;

                const uint64_t line_pa = randomLinePa(geometry, rng);
                EXPECT_EQ(map.encode(map.decode(line_pa)), line_pa)
                    << name;
            }
        }
    }
}

TEST(MappingProperty, PackUnpackCoordBitsRoundTrips)
{
    Rng rng(7);
    for (const DramGeometry &geometry : fuzzedGeometries()) {
        for (unsigned i = 0; i < 100; ++i) {
            const LineCoord coord = randomCoord(geometry, rng);
            EXPECT_EQ(unpackCoordBits(geometry,
                                      packCoordBits(geometry, coord)),
                      coord);
        }
    }
}

TEST(MappingProperty, Fig7aEqualsItsXorSchemeExpression)
{
    // The seed arithmetic (field extraction + the Zhang et al. bank XOR
    // row-low permutation) and its expression as a GF(2) XOR scheme
    // must be the same function — this is what lets the map be one
    // matrix and map_infer treat every built-in as mask recovery.
    Rng rng(11);
    for (const DramGeometry &geometry : fuzzedGeometries()) {
        for (const bool hash : {true, false}) {
            const Fig7aOracle legacy(geometry, hash);
            const DramAddressMap xorform = makeAddressMap(
                hash ? "fig7a" : "fig7a_nohash", geometry);
            for (unsigned i = 0; i < 200; ++i) {
                const uint64_t pa = randomLinePa(geometry, rng);
                EXPECT_EQ(legacy.decode(pa), xorform.decode(pa)) << hash;
                const LineCoord coord = randomCoord(geometry, rng);
                EXPECT_EQ(legacy.encode(coord), xorform.encode(coord))
                    << hash;
            }
        }
    }
}

TEST(MappingProperty, NonDefaultSchemesDifferFromFig7a)
{
    // The premise of --mapping changing results: each alternative
    // scheme must actually decode some addresses differently.
    const DramGeometry geometry;
    const DramAddressMap fig7a = makeAddressMap("fig7a", geometry);
    for (const std::string &name : addressMapNames()) {
        if (name == "fig7a")
            continue;
        const DramAddressMap other = makeAddressMap(name, geometry);
        Rng rng(13);
        bool differs = false;
        for (unsigned i = 0; i < 256 && !differs; ++i) {
            const uint64_t pa = randomLinePa(geometry, rng);
            differs = !(other.decode(pa) == fig7a.decode(pa));
        }
        EXPECT_TRUE(differs) << name;
    }
}

/** Per-bit parity product of @p masks (output bit i = mask i). */
uint64_t
parityProduct(const std::vector<uint64_t> &masks, uint64_t in)
{
    uint64_t out = 0;
    for (unsigned i = 0; i < masks.size(); ++i)
        out |= static_cast<uint64_t>(__builtin_parityll(in & masks[i]))
               << i;
    return out;
}

TEST(MappingProperty, TablesMatchTheParityProduct)
{
    // The byte-sliced tables are a re-encoding of the matrix, so they
    // must agree with the plain parity product of the scheme masks —
    // also for inputs the masks ignore: coordinate fields beyond their
    // width (masked off) and PA bits above paBits (dropped).
    Rng rng(19);
    for (const DramGeometry &geometry : fuzzedGeometries()) {
        const CoordBitLayout layout(geometry);
        const unsigned offset = geometry.offsetBits();
        for (const std::string &name : addressMapNames()) {
            const DramAddressMap map = makeAddressMap(name, geometry);
            ASSERT_EQ(map.lineBits(), layout.bits()) << name;
            for (unsigned i = 0; i < 200; ++i) {
                const uint64_t pa = rng.next();
                EXPECT_EQ(map.decode(pa),
                          layout.unpack(parityProduct(map.decodeMasks(),
                                                      pa >> offset)))
                    << name;

                // Full-width fields; only their low bits may count.
                LineCoord coord;
                coord.channel = static_cast<unsigned>(rng.next());
                coord.rank = static_cast<unsigned>(rng.next());
                coord.bank = static_cast<unsigned>(rng.next());
                coord.row = static_cast<unsigned>(rng.next());
                coord.colBlock = static_cast<unsigned>(rng.next());
                LineCoord in_range = coord;
                in_range.channel &= maskBits(geometry.channelBits());
                in_range.rank &= maskBits(geometry.rankBits());
                in_range.bank &= maskBits(geometry.bankBits());
                in_range.row &= maskBits(geometry.rowBits());
                in_range.colBlock &= maskBits(geometry.colBlockBits());
                EXPECT_EQ(map.encode(coord),
                          parityProduct(map.encodeMasks(),
                                        layout.pack(in_range))
                              << offset)
                    << name;
            }
        }
    }
}

// ---------------------------------------------------------------------
// 2. Seed pins: frozen golden values for the default mapping.

TEST(MappingSeedPin, Fig7aGoldenEncodeValues)
{
    // Frozen from the seed implementation (default DDR3 geometry). Any
    // change here is a break of the bit-identity contract that the
    // fig08/fig12 CI gates also enforce end-to-end.
    const DramGeometry geometry;
    const DramAddressMap hash = makeAddressMap("fig7a", geometry);
    const DramAddressMap nohash = makeAddressMap("fig7a_nohash", geometry);
    const struct
    {
        LineCoord coord;
        uint64_t hashPa;
        uint64_t nohashPa;
    } golden[] = {
        {{0, 0, 0, 0, 0}, 0x0, 0x0},
        {{1, 0, 2, 5, 3}, 0x51c340, 0x508340},
        {{3, 1, 7, 65535, 255}, 0xffffe3fc0, 0xfffffffc0},
        {{2, 1, 4, 12345, 100}, 0x3039b6480, 0x3039b2480},
        {{0, 1, 1, 1, 1}, 0x180100, 0x184100},
    };
    for (const auto &pin : golden) {
        EXPECT_EQ(hash.encode(pin.coord), pin.hashPa);
        EXPECT_EQ(nohash.encode(pin.coord), pin.nohashPa);
        EXPECT_EQ(hash.decode(pin.hashPa), pin.coord);
        EXPECT_EQ(nohash.decode(pin.nohashPa), pin.coord);
    }
}

TEST(MappingSeedPin, XorSchemeGoldenEncodeValues)
{
    // Frozen from the per-bit parity evaluation the tables replaced
    // (default DDR3 geometry), same coordinates as the Fig. 7a pins.
    const DramGeometry geometry;
    const LineCoord coords[] = {
        {0, 0, 0, 0, 0},
        {1, 0, 2, 5, 3},
        {3, 1, 7, 65535, 255},
        {2, 1, 4, 12345, 100},
        {0, 1, 1, 1, 1},
    };
    const struct
    {
        const char *name;
        uint64_t pa[5];
    } golden[] = {
        {"intel_ivy",
         {0x0, 0x59c340, 0xfffffffc0, 0x3039aa4c0, 0x100140}},
        {"intel_haswell",
         {0x0, 0x50c3c0, 0xfffffff40, 0x30392e400, 0x184100}},
        {"amd_zen",
         {0x0, 0x59c340, 0xffffebfc0, 0x303922440, 0x180140}},
    };
    for (const auto &pin : golden) {
        const DramAddressMap map = makeAddressMap(pin.name, geometry);
        for (unsigned i = 0; i < 5; ++i) {
            EXPECT_EQ(map.encode(coords[i]), pin.pa[i]) << pin.name;
            EXPECT_EQ(map.decode(pin.pa[i]), coords[i]) << pin.name;
        }
    }
}

TEST(MappingSeedPin, DefaultConstructionIsFig7a)
{
    const DramGeometry geometry;
    EXPECT_EQ(makeAddressMap("fig7a", geometry).name(), "fig7a");
    EXPECT_EQ(makeAddressMap("fig7a_nohash", geometry).name(),
              "fig7a_nohash");
    EXPECT_EQ(addressMapNames().front(), "fig7a");
    LifetimeConfig config;
    EXPECT_EQ(config.mapping, "fig7a");
}

// ---------------------------------------------------------------------
// 3. Inference differential: recovery must be exact for every scheme.

TEST(MapInferDifferential, OracleRecoveryIsExactForEveryScheme)
{
    const DramGeometry geometries[] = {
        DramGeometry::ddr3Dimm(),
        DramGeometry::ddr4Dimm(),
        DramGeometry::lpddr4(),
        DramGeometry::hbmStack(),
    };
    for (const DramGeometry &geometry : geometries) {
        for (const std::string &name : addressMapNames()) {
            const DramAddressMap map = makeAddressMap(name, geometry);
            const DecodeOracle oracle = [&map](uint64_t pa) {
                return map.decode(pa);
            };
            const MapInference inference =
                inferMapping(oracle, geometry, /*seed=*/99);
            ASSERT_TRUE(inference.ok) << name << ": " << inference.error;
            EXPECT_EQ(inference.affineOffset, 0u) << name;
            EXPECT_EQ(inference.masks, basisDecodeMasks(oracle, geometry))
                << name;
            EXPECT_EQ(inference.masks, map.decodeMasks()) << name;
            EXPECT_TRUE(verifyMasks(inference.masks,
                                    inference.affineOffset, oracle,
                                    geometry, /*seed=*/3))
                << name;

            // The recovered masks must rebuild into a mapping that
            // reproduces encode AND decode — closing the differential
            // loop through the inverse-matrix path too.
            const DramAddressMap rebuilt(
                mappingFromMasks("inferred", geometry, inference.masks));
            Rng rng(5);
            for (unsigned i = 0; i < 200; ++i) {
                const uint64_t pa = randomLinePa(geometry, rng);
                const LineCoord coord = map.decode(pa);
                EXPECT_EQ(rebuilt.decode(pa), coord) << name;
                EXPECT_EQ(rebuilt.encode(coord), pa) << name;
            }
        }
    }
}

std::vector<MapObservation>
sampleObservations(const DramAddressMap &map, unsigned count,
                   uint64_t seed)
{
    Rng rng(seed);
    std::vector<MapObservation> observations;
    observations.reserve(count);
    for (unsigned i = 0; i < count; ++i) {
        MapObservation obs;
        obs.pa = randomLinePa(map.geometry(), rng);
        obs.coord = map.decode(obs.pa);
        observations.push_back(obs);
    }
    return observations;
}

TEST(MapInferDifferential, ObservationLogRecoveryMatchesGroundTruth)
{
    for (const std::string &name : addressMapNames()) {
        const DramGeometry geometry;
        const DramAddressMap map = makeAddressMap(name, geometry);
        const std::vector<MapObservation> observations =
            sampleObservations(map, 200, 17);
        const MapInference inference =
            inferFromObservations(observations, geometry);
        ASSERT_TRUE(inference.ok) << name << ": " << inference.error;
        EXPECT_EQ(inference.affineOffset, 0u) << name;
        const DecodeOracle oracle = [&map](uint64_t pa) {
            return map.decode(pa);
        };
        EXPECT_EQ(inference.masks, basisDecodeMasks(oracle, geometry))
            << name;
        EXPECT_EQ(inference.masks, map.decodeMasks()) << name;
    }
}

TEST(MapInferDifferential, CorruptedObservationFailsLoudly)
{
    const DramGeometry geometry;
    const DramAddressMap map = makeAddressMap("intel_haswell", geometry);
    std::vector<MapObservation> observations =
        sampleObservations(map, 200, 23);
    observations[50].coord.bank ^= 1;  // One flipped bit in the log.
    const MapInference inference =
        inferFromObservations(observations, geometry);
    EXPECT_FALSE(inference.ok);
    EXPECT_FALSE(inference.error.empty());
    EXPECT_TRUE(inference.masks.empty())
        << "wrong masks must never be emitted";
}

TEST(MapInferDifferential, UnderdeterminedLogFailsLoudly)
{
    const DramGeometry geometry;
    const DramAddressMap map = makeAddressMap("fig7a", geometry);
    const MapInference inference =
        inferFromObservations(sampleObservations(map, 5, 29), geometry);
    EXPECT_FALSE(inference.ok);
    EXPECT_NE(inference.error.find("underdetermined"), std::string::npos)
        << inference.error;
}

TEST(MapInferDifferential, OutOfRangeObservationIsRejected)
{
    const DramGeometry geometry;
    const DramAddressMap map = makeAddressMap("fig7a", geometry);
    std::vector<MapObservation> observations =
        sampleObservations(map, 100, 31);
    observations[3].coord.channel = geometry.channels;  // One past range.
    EXPECT_FALSE(inferFromObservations(observations, geometry).ok);
}

TEST(MapInferDifferential, NonLinearOracleIsRefused)
{
    // decode composed with a non-linear tweak must be detected either
    // during elimination or by the pair-probe linearity test — never
    // silently fitted.
    const DramGeometry geometry;
    const DramAddressMap map = makeAddressMap("fig7a", geometry);
    const DecodeOracle oracle = [&](uint64_t pa) {
        LineCoord coord = map.decode(pa);
        if ((coord.row & 3u) == 3u)  // 1/4 of the space is off-model.
            coord.bank ^= 1;
        return coord;
    };
    const MapInference inference = inferMapping(oracle, geometry, 0);
    EXPECT_FALSE(inference.ok);
    EXPECT_FALSE(inference.error.empty());
    EXPECT_TRUE(inference.masks.empty());
}

// ---------------------------------------------------------------------
// 4. Registry and flag-surface contract.

TEST(MappingRegistry, NamesAreRegisteredAndHintListsThem)
{
    const std::vector<std::string> expected = {
        "fig7a", "fig7a_nohash", "intel_ivy", "intel_haswell", "amd_zen"};
    EXPECT_EQ(addressMapNames(), expected);
    for (const std::string &name : expected) {
        EXPECT_TRUE(isAddressMapName(name));
        EXPECT_NE(addressMapNamesHint().find(name),
                  std::string::npos);
        EXPECT_EQ(makeAddressMap(name, DramGeometry{}).name(), name);
    }
    EXPECT_FALSE(isAddressMapName("nehalem"));
}

TEST(MappingFlag, ParsesDefaultAndExplicitNames)
{
    {
        const char *argv[] = {"prog"};
        const CliOptions options(1, const_cast<char **>(argv), {"mapping"});
        EXPECT_EQ(bench::mappingFlag(options), "fig7a");
    }
    {
        const char *argv[] = {"prog", "--mapping=amd_zen"};
        const CliOptions options(2, const_cast<char **>(argv), {"mapping"});
        EXPECT_EQ(bench::mappingFlag(options), "amd_zen");
    }
}

TEST(MappingFlagDeathTest, TypoDiesWithKnownNamesList)
{
    const char *argv[] = {"prog", "--mapping=intel_ivy_bridge"};
    const CliOptions options(2, const_cast<char **>(argv), {"mapping"});
    EXPECT_EXIT(bench::mappingFlag(options),
                ::testing::ExitedWithCode(1),
                "is not a mapping scheme.*fig7a_nohash");
}

TEST(MappingFlagDeathTest, UnknownNameInMakeAddressMapPanics)
{
    EXPECT_DEATH(makeAddressMap("nehalem", DramGeometry{}),
                 "unknown address mapping 'nehalem'");
}

TEST(MappingFlagDeathTest, NonInvertibleXorSchemePanics)
{
    const DramGeometry geometry;
    XorScheme scheme = fig7aXorScheme(geometry);
    scheme.name = "degenerate";
    scheme.decodeMasks[1] = scheme.decodeMasks[0];  // Two equal rows.
    EXPECT_DEATH(DramAddressMap(geometry, scheme), "not invertible");
}

} // namespace
} // namespace relaxfault
