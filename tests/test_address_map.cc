/**
 * @file
 * The mapping differential-test layer (ctest -L mapping).
 *
 * Pins the pluggable address-mapping subsystem from three directions:
 *
 *  1. Properties: every registered strategy is a bijection over fuzzed
 *     geometry shapes (decode(encode(c)) == c and encode(decode(pa)) ==
 *     pa), and the seed Fig. 7a arithmetic equals its expression as a
 *     generic XOR scheme — including the bank XOR row-low permutation.
 *  2. Seed pins: frozen golden encode values keep the default mapping
 *     bit-identical to the seed across refactors.
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
#include "common/cli.h"
#include "common/rng.h"
#include "dram/address_map.h"
#include "dram/map_infer.h"

namespace relaxfault {
namespace {

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
        for (const std::string &name : addressMappingNames()) {
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
    // row-low permutation) and its expression as a generic GF(2) XOR
    // scheme must be the same function — this is what lets map_infer
    // treat every built-in, permutation included, as mask recovery.
    Rng rng(11);
    for (const DramGeometry &geometry : fuzzedGeometries()) {
        for (const bool hash : {true, false}) {
            const Fig7aMapping legacy(geometry, hash);
            const XorAddressMapping xorform(
                geometry, fig7aXorScheme(geometry, hash));
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
    for (const std::string &name : addressMappingNames()) {
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

TEST(MappingProperty, HandleCopiesShareTheStrategy)
{
    const DramGeometry geometry;
    const DramAddressMap map = makeAddressMap("amd_zen", geometry);
    const DramAddressMap copy = map;  // NOLINT: the copy is the test.
    EXPECT_EQ(&copy.impl(), &map.impl());
    EXPECT_EQ(copy.name(), "amd_zen");
}

// ---------------------------------------------------------------------
// 2. Seed pins: frozen golden values for the default mapping.

TEST(MappingSeedPin, Fig7aGoldenEncodeValues)
{
    // Frozen from the seed implementation (default DDR3 geometry). Any
    // change here is a break of the bit-identity contract that the
    // fig08/fig12 CI gates also enforce end-to-end.
    const DramGeometry geometry;
    const DramAddressMap hash(geometry, true);
    const DramAddressMap nohash(geometry, false);
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

TEST(MappingSeedPin, DefaultConstructionIsFig7a)
{
    const DramGeometry geometry;
    EXPECT_EQ(DramAddressMap(geometry).name(), "fig7a");
    EXPECT_EQ(DramAddressMap(geometry, false).name(), "fig7a_nohash");
    EXPECT_EQ(addressMappingNames().front(), "fig7a");
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
        for (const std::string &name : addressMappingNames()) {
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
    for (const std::string &name : addressMappingNames()) {
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
    EXPECT_EQ(addressMappingNames(), expected);
    for (const std::string &name : expected) {
        EXPECT_TRUE(isAddressMappingName(name));
        EXPECT_NE(addressMappingNamesHint().find(name),
                  std::string::npos);
        EXPECT_NE(makeAddressMapping(name, DramGeometry{}), nullptr);
    }
    EXPECT_FALSE(isAddressMappingName("nehalem"));
    EXPECT_EQ(makeAddressMapping("nehalem", DramGeometry{}), nullptr);
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
    EXPECT_DEATH(XorAddressMapping(geometry, scheme), "not invertible");
}

} // namespace
} // namespace relaxfault
