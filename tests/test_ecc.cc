/**
 * @file
 * Tests for GF(2^8) arithmetic and the chipkill RS(18,16) codec:
 * single-symbol correction at every position, double-error behaviour
 * (detected or measurably-rare miscorrection), and the 72B line codec.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "ecc/chipkill.h"
#include "ecc/gf256.h"

namespace relaxfault {
namespace {

TEST(Gf256, AddIsXor)
{
    EXPECT_EQ(Gf256::add(0x57, 0x83), 0x57 ^ 0x83);
    EXPECT_EQ(Gf256::add(0xaa, 0xaa), 0);
}

TEST(Gf256, MulIdentityAndZero)
{
    for (unsigned a = 0; a < 256; ++a) {
        EXPECT_EQ(Gf256::mul(static_cast<uint8_t>(a), 1),
                  static_cast<uint8_t>(a));
        EXPECT_EQ(Gf256::mul(static_cast<uint8_t>(a), 0), 0);
    }
}

TEST(Gf256, MulCommutative)
{
    Rng rng(1);
    for (int i = 0; i < 5000; ++i) {
        const auto a = static_cast<uint8_t>(rng.uniformInt(256));
        const auto b = static_cast<uint8_t>(rng.uniformInt(256));
        EXPECT_EQ(Gf256::mul(a, b), Gf256::mul(b, a));
    }
}

TEST(Gf256, MulAssociativeSampled)
{
    Rng rng(2);
    for (int i = 0; i < 3000; ++i) {
        const auto a = static_cast<uint8_t>(rng.uniformInt(256));
        const auto b = static_cast<uint8_t>(rng.uniformInt(256));
        const auto c = static_cast<uint8_t>(rng.uniformInt(256));
        EXPECT_EQ(Gf256::mul(Gf256::mul(a, b), c),
                  Gf256::mul(a, Gf256::mul(b, c)));
    }
}

TEST(Gf256, DistributiveSampled)
{
    Rng rng(3);
    for (int i = 0; i < 3000; ++i) {
        const auto a = static_cast<uint8_t>(rng.uniformInt(256));
        const auto b = static_cast<uint8_t>(rng.uniformInt(256));
        const auto c = static_cast<uint8_t>(rng.uniformInt(256));
        EXPECT_EQ(Gf256::mul(a, Gf256::add(b, c)),
                  Gf256::add(Gf256::mul(a, b), Gf256::mul(a, c)));
    }
}

TEST(Gf256, InverseForAllNonzero)
{
    for (unsigned a = 1; a < 256; ++a) {
        const auto inv = Gf256::inv(static_cast<uint8_t>(a));
        EXPECT_EQ(Gf256::mul(static_cast<uint8_t>(a), inv), 1);
        EXPECT_EQ(Gf256::div(1, static_cast<uint8_t>(a)), inv);
    }
}

TEST(Gf256, AlphaPowersCycle)
{
    EXPECT_EQ(Gf256::alphaPow(0), 1);
    EXPECT_EQ(Gf256::alphaPow(255), 1);
    EXPECT_EQ(Gf256::alphaPow(1), 2);  // alpha = x = 0x02.
    // All 255 powers distinct.
    bool seen[256] = {};
    for (unsigned e = 0; e < 255; ++e) {
        const uint8_t value = Gf256::alphaPow(e);
        EXPECT_FALSE(seen[value]);
        seen[value] = true;
        EXPECT_EQ(Gf256::logAlpha(value), e);
    }
}

void
randomCodeword(Rng &rng, uint8_t codeword[ChipkillCode::kTotalSymbols])
{
    for (unsigned i = 0; i < ChipkillCode::kDataSymbols; ++i)
        codeword[i] = static_cast<uint8_t>(rng.uniformInt(256));
    ChipkillCode::encode(codeword);
}

TEST(Chipkill, CleanCodewordDecodesOk)
{
    Rng rng(10);
    for (int i = 0; i < 2000; ++i) {
        uint8_t codeword[18];
        randomCodeword(rng, codeword);
        uint8_t copy[18];
        std::memcpy(copy, codeword, 18);
        const auto result = ChipkillCode::decode(copy);
        EXPECT_EQ(result.status, EccStatus::Ok);
        EXPECT_EQ(std::memcmp(copy, codeword, 18), 0);
    }
}

class SingleErrorPosition : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SingleErrorPosition, CorrectedExactly)
{
    const unsigned position = GetParam();
    Rng rng(100 + position);
    for (int i = 0; i < 500; ++i) {
        uint8_t codeword[18];
        randomCodeword(rng, codeword);
        uint8_t corrupted[18];
        std::memcpy(corrupted, codeword, 18);
        const auto error =
            static_cast<uint8_t>(1 + rng.uniformInt(255));
        corrupted[position] ^= error;
        const auto result = ChipkillCode::decode(corrupted);
        ASSERT_EQ(result.status, EccStatus::Corrected);
        EXPECT_EQ(result.correctedSymbol, position);
        EXPECT_EQ(std::memcmp(corrupted, codeword, 18), 0);
    }
}

INSTANTIATE_TEST_SUITE_P(AllPositions, SingleErrorPosition,
                         ::testing::Range(0u, 18u));

TEST(Chipkill, DoubleErrorsDetectedOrRareMiscorrect)
{
    Rng rng(11);
    unsigned detected = 0;
    unsigned miscorrected = 0;
    unsigned silent_wrong = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
        uint8_t codeword[18];
        randomCodeword(rng, codeword);
        uint8_t corrupted[18];
        std::memcpy(corrupted, codeword, 18);
        const auto p1 = static_cast<unsigned>(rng.uniformInt(18));
        auto p2 = static_cast<unsigned>(rng.uniformInt(18));
        while (p2 == p1)
            p2 = static_cast<unsigned>(rng.uniformInt(18));
        corrupted[p1] ^= static_cast<uint8_t>(1 + rng.uniformInt(255));
        corrupted[p2] ^= static_cast<uint8_t>(1 + rng.uniformInt(255));
        const auto result = ChipkillCode::decode(corrupted);
        if (result.status == EccStatus::Uncorrectable) {
            ++detected;
        } else {
            ++miscorrected;
            if (std::memcmp(corrupted, codeword, 18) != 0)
                ++silent_wrong;
        }
    }
    // Distance-3 RS aliases a double error onto a valid single-error
    // syndrome with probability ~ n/q = 18/255 ~ 7%.
    const double miss_rate = static_cast<double>(miscorrected) / trials;
    EXPECT_GT(static_cast<double>(detected) / trials, 0.88);
    EXPECT_NEAR(miss_rate, 18.0 / 255.0, 0.02);
    // A miscorrection never restores the original data.
    EXPECT_EQ(silent_wrong, miscorrected);
}

TEST(Chipkill, ZeroSyndromeZeroFalseAlarm)
{
    // Error-free codewords are never "corrected".
    Rng rng(12);
    for (int i = 0; i < 2000; ++i) {
        uint8_t codeword[18];
        randomCodeword(rng, codeword);
        const auto result = ChipkillCode::decode(codeword);
        EXPECT_EQ(result.status, EccStatus::Ok);
    }
}

TEST(LineCodecTest, RoundTripCleanLine)
{
    Rng rng(13);
    uint8_t data[64];
    for (auto &byte : data)
        byte = static_cast<uint8_t>(rng.uniformInt(256));
    uint8_t line[72];
    LineCodec::buildLine(data, line);
    const auto result = LineCodec::decodeLine(line);
    EXPECT_EQ(result.status, EccStatus::Ok);
    uint8_t out[64];
    LineCodec::extractData(line, out);
    EXPECT_EQ(std::memcmp(out, data, 64), 0);
}

TEST(LineCodecTest, SingleFaultyDeviceFullyCorrected)
{
    // Corrupt all 4 bytes of one device (a whole-chip failure for this
    // line): every codeword sees exactly one bad symbol -> chipkill.
    Rng rng(14);
    for (unsigned device = 0; device < 18; ++device) {
        uint8_t data[64];
        for (auto &byte : data)
            byte = static_cast<uint8_t>(rng.uniformInt(256));
        uint8_t line[72];
        LineCodec::buildLine(data, line);
        for (unsigned w = 0; w < 4; ++w)
            line[4 * device + w] ^=
                static_cast<uint8_t>(1 + rng.uniformInt(255));
        const auto result = LineCodec::decodeLine(line);
        EXPECT_EQ(result.status, EccStatus::Corrected);
        EXPECT_EQ(result.correctedCodewords, 4u);
        uint8_t out[64];
        LineCodec::extractData(line, out);
        EXPECT_EQ(std::memcmp(out, data, 64), 0);
    }
}

TEST(LineCodecTest, TwoFaultyDevicesUncorrectable)
{
    Rng rng(15);
    unsigned due = 0;
    const int trials = 500;
    for (int i = 0; i < trials; ++i) {
        uint8_t data[64] = {};
        uint8_t line[72];
        LineCodec::buildLine(data, line);
        // Both devices err in the same codeword (byte 0).
        line[4 * 3 + 0] ^= static_cast<uint8_t>(1 + rng.uniformInt(255));
        line[4 * 9 + 0] ^= static_cast<uint8_t>(1 + rng.uniformInt(255));
        const auto result = LineCodec::decodeLine(line);
        if (result.status == EccStatus::Uncorrectable)
            ++due;
    }
    EXPECT_GT(due, trials * 85 / 100);
}

TEST(LineCodecTest, DisjointCodewordErrorsBothCorrected)
{
    // Two devices erring in *different* beat pairs are two separate
    // single-symbol corrections — chipkill survives.
    uint8_t data[64] = {1, 2, 3};
    uint8_t line[72];
    LineCodec::buildLine(data, line);
    line[4 * 5 + 0] ^= 0x5a;  // Device 5, codeword 0.
    line[4 * 11 + 2] ^= 0xa5; // Device 11, codeword 2.
    const auto result = LineCodec::decodeLine(line);
    EXPECT_EQ(result.status, EccStatus::Corrected);
    EXPECT_EQ(result.correctedCodewords, 2u);
    uint8_t out[64];
    LineCodec::extractData(line, out);
    EXPECT_EQ(std::memcmp(out, data, 64), 0);
}

TEST(LineCodecTest, CheckBytesDependOnData)
{
    uint8_t data_a[64] = {};
    uint8_t data_b[64] = {};
    data_b[10] = 1;
    uint8_t line_a[72];
    uint8_t line_b[72];
    LineCodec::buildLine(data_a, line_a);
    LineCodec::buildLine(data_b, line_b);
    EXPECT_NE(std::memcmp(line_a + 64, line_b + 64, 8), 0);
}


TEST(ChipkillErasure, SingleErasureAllPositions)
{
    Rng rng(20);
    for (unsigned p = 0; p < 18; ++p) {
        uint8_t codeword[18];
        randomCodeword(rng, codeword);
        uint8_t corrupted[18];
        std::memcpy(corrupted, codeword, 18);
        corrupted[p] ^= static_cast<uint8_t>(1 + rng.uniformInt(255));
        const auto result =
            ChipkillCode::decodeWithErasures(corrupted, 1u << p);
        ASSERT_EQ(result.status, EccStatus::Corrected);
        EXPECT_EQ(std::memcmp(corrupted, codeword, 18), 0);
    }
}

TEST(ChipkillErasure, TwoErasuresCorrected)
{
    // A distance-3 code corrects two erasures with known locations --
    // more than its one unknown-location error.
    Rng rng(21);
    for (int i = 0; i < 2000; ++i) {
        uint8_t codeword[18];
        randomCodeword(rng, codeword);
        uint8_t corrupted[18];
        std::memcpy(corrupted, codeword, 18);
        const auto p1 = static_cast<unsigned>(rng.uniformInt(18));
        auto p2 = static_cast<unsigned>(rng.uniformInt(18));
        while (p2 == p1)
            p2 = static_cast<unsigned>(rng.uniformInt(18));
        corrupted[p1] ^= static_cast<uint8_t>(1 + rng.uniformInt(255));
        // The second erased symbol may or may not actually be wrong.
        if (rng.bernoulli(0.7))
            corrupted[p2] ^= static_cast<uint8_t>(rng.uniformInt(256));
        const auto result = ChipkillCode::decodeWithErasures(
            corrupted, (1u << p1) | (1u << p2));
        ASSERT_EQ(result.status, EccStatus::Corrected);
        ASSERT_EQ(std::memcmp(corrupted, codeword, 18), 0);
    }
}

TEST(ChipkillErasure, SingleErasurePlusStrayErrorDetected)
{
    Rng rng(22);
    unsigned detected = 0;
    const int trials = 2000;
    for (int i = 0; i < trials; ++i) {
        uint8_t codeword[18];
        randomCodeword(rng, codeword);
        codeword[3] ^= static_cast<uint8_t>(1 + rng.uniformInt(255));
        codeword[9] ^= static_cast<uint8_t>(1 + rng.uniformInt(255));
        // Only position 3 is declared; the stray error at 9 must not
        // be silently folded into it.
        const auto result =
            ChipkillCode::decodeWithErasures(codeword, 1u << 3);
        detected += result.status == EccStatus::Uncorrectable;
    }
    EXPECT_EQ(detected, static_cast<unsigned>(trials));
}

TEST(ChipkillErasure, MoreThanTwoErasuresUncorrectable)
{
    uint8_t codeword[18] = {};
    ChipkillCode::encode(codeword);
    codeword[1] ^= 0x11;
    const auto result = ChipkillCode::decodeWithErasures(
        codeword, (1u << 1) | (1u << 2) | (1u << 3));
    EXPECT_EQ(result.status, EccStatus::Uncorrectable);
}

TEST(ChipkillErasure, CleanCodewordWithErasureHintStaysClean)
{
    Rng rng(23);
    uint8_t codeword[18];
    randomCodeword(rng, codeword);
    uint8_t copy[18];
    std::memcpy(copy, codeword, 18);
    const auto result = ChipkillCode::decodeWithErasures(copy, 1u << 5);
    EXPECT_EQ(result.status, EccStatus::Ok);
    EXPECT_EQ(std::memcmp(copy, codeword, 18), 0);
}

// ---------------------------------------------------------------------
// Differential tests against a brute-force reference decoder.
//
// The reference shares NO algebra with the production decoder: validity
// is "re-encoding the 16 data symbols reproduces the stored check
// symbols" (the codeword space is exactly the graph of encode, since
// the two parity constraints have a unique solution per data vector),
// and decoding is exhaustive search over all 18x255 single-symbol
// corruptions. Distance 3 makes radius-1 spheres around codewords
// disjoint, so on ANY received word — including double errors whose
// syndrome aliases a single error — the two decoders must agree bit for
// bit. Any divergence is a bug in the production syndrome algebra.

bool
refIsCodeword(const uint8_t word[18])
{
    uint8_t re[18];
    std::memcpy(re, word, 18);
    ChipkillCode::encode(re);
    return re[16] == word[16] && re[17] == word[17];
}

struct RefResult
{
    EccStatus status = EccStatus::Ok;
    unsigned position = 0;
    uint8_t corrected[18] = {};
};

RefResult
referenceDecode(const uint8_t word[18], bool check_uniqueness = false)
{
    RefResult result;
    std::memcpy(result.corrected, word, 18);
    if (refIsCodeword(word))
        return result;
    result.status = EccStatus::Uncorrectable;
    unsigned matches = 0;
    for (unsigned position = 0; position < 18; ++position) {
        for (unsigned error = 1; error < 256; ++error) {
            uint8_t candidate[18];
            std::memcpy(candidate, word, 18);
            candidate[position] ^= static_cast<uint8_t>(error);
            if (!refIsCodeword(candidate))
                continue;
            ++matches;
            result.status = EccStatus::Corrected;
            result.position = position;
            std::memcpy(result.corrected, candidate, 18);
            if (!check_uniqueness)
                return result;
        }
    }
    // Disjoint radius-1 spheres: at most one codeword within distance 1.
    EXPECT_LE(matches, 1u);
    return result;
}

void
expectAgreement(const uint8_t word[18])
{
    const RefResult reference = referenceDecode(word);
    uint8_t decoded[18];
    std::memcpy(decoded, word, 18);
    const auto result = ChipkillCode::decode(decoded);
    ASSERT_EQ(result.status, reference.status);
    if (reference.status == EccStatus::Corrected) {
        EXPECT_EQ(result.correctedSymbol, reference.position);
    }
    if (reference.status != EccStatus::Uncorrectable) {
        EXPECT_EQ(std::memcmp(decoded, reference.corrected, 18), 0);
    }
}

TEST(ChipkillDifferential, ExhaustiveSingleSymbolSweep)
{
    // Every position x every nonzero error value, on fixed base
    // codewords: production must correct exactly, and must agree with
    // the brute-force reference on position and restored word.
    for (const uint64_t seed : {2024u, 2025u}) {
        Rng rng(seed);
        uint8_t codeword[18];
        randomCodeword(rng, codeword);
        for (unsigned position = 0; position < 18; ++position) {
            for (unsigned error = 1; error < 256; ++error) {
                uint8_t corrupted[18];
                std::memcpy(corrupted, codeword, 18);
                corrupted[position] ^= static_cast<uint8_t>(error);

                const RefResult reference = referenceDecode(corrupted);
                ASSERT_EQ(reference.status, EccStatus::Corrected);
                ASSERT_EQ(reference.position, position);
                ASSERT_EQ(
                    std::memcmp(reference.corrected, codeword, 18), 0);

                const auto result = ChipkillCode::decode(corrupted);
                ASSERT_EQ(result.status, EccStatus::Corrected)
                    << "position " << position << " error " << error;
                ASSERT_EQ(result.correctedSymbol, position);
                ASSERT_EQ(std::memcmp(corrupted, codeword, 18), 0);
            }
        }
    }
}

TEST(ChipkillDifferential, AgreesOnArbitraryReceivedWords)
{
    // Uniform random words: usually far from any codeword (both say
    // DUE), occasionally within distance 1 (both must correct alike).
    Rng rng(30);
    for (int i = 0; i < 1500; ++i) {
        uint8_t word[18];
        for (auto &symbol : word)
            symbol = static_cast<uint8_t>(rng.uniformInt(256));
        expectAgreement(word);
    }
}

TEST(ChipkillDifferential, AgreesOnAliasingDoubleErrors)
{
    // Double errors are the adversarial case: ~7% alias onto a valid
    // single-error syndrome and the production decoder "corrects" to a
    // wrong codeword. The reference must reach the exact same wrong
    // codeword — that is what disjoint spheres force.
    Rng rng(31);
    unsigned miscorrected = 0;
    for (int i = 0; i < 1200; ++i) {
        uint8_t word[18];
        randomCodeword(rng, word);
        const auto p1 = static_cast<unsigned>(rng.uniformInt(18));
        auto p2 = static_cast<unsigned>(rng.uniformInt(18));
        while (p2 == p1)
            p2 = static_cast<unsigned>(rng.uniformInt(18));
        word[p1] ^= static_cast<uint8_t>(1 + rng.uniformInt(255));
        word[p2] ^= static_cast<uint8_t>(1 + rng.uniformInt(255));
        const RefResult reference = referenceDecode(word);
        if (reference.status == EccStatus::Corrected)
            ++miscorrected;
        expectAgreement(word);
    }
    // The aliasing case must actually be exercised (~7% of trials).
    EXPECT_GT(miscorrected, 20u);
}

TEST(ChipkillDifferential, CorrectionUniqueWithinDistanceOne)
{
    // Full-scan uniqueness check (no early exit) on sampled words.
    Rng rng(32);
    for (int i = 0; i < 40; ++i) {
        uint8_t word[18];
        randomCodeword(rng, word);
        const auto position = static_cast<unsigned>(rng.uniformInt(18));
        word[position] ^= static_cast<uint8_t>(1 + rng.uniformInt(255));
        const RefResult reference =
            referenceDecode(word, /*check_uniqueness=*/true);
        EXPECT_EQ(reference.status, EccStatus::Corrected);
        EXPECT_EQ(reference.position, position);
    }
}

TEST(ChipkillDifferential, ExhaustiveSingleSymbolSweepAllSimdLevels)
{
    // The 18x255 sweep once more, embedded at line level: every
    // corruption goes through decodeLineBatched at every supported
    // dispatch level and must restore the brute-force reference word
    // bit for bit. The corrupted codeword lane rotates with the error
    // value so all four lanes see every position.
    Rng rng(2026);
    uint8_t data[64];
    for (auto &byte : data)
        byte = static_cast<uint8_t>(rng.uniformInt(256));
    uint8_t base[72];
    LineCodec::buildLine(data, base);

    const std::vector<SimdLevel> levels = supportedSimdLevels();
    for (unsigned position = 0; position < 18; ++position) {
        for (unsigned error = 1; error < 256; ++error) {
            const unsigned lane = error % 4;
            uint8_t corrupted[72];
            std::memcpy(corrupted, base, 72);
            corrupted[4 * position + lane] ^=
                static_cast<uint8_t>(error);

            // Brute-force reference on the affected codeword.
            uint8_t word[18];
            for (unsigned d = 0; d < 18; ++d)
                word[d] = corrupted[4 * d + lane];
            const RefResult reference = referenceDecode(word);
            ASSERT_EQ(reference.status, EccStatus::Corrected);
            ASSERT_EQ(reference.position, position);

            for (const SimdLevel level : levels) {
                ScopedSimdLevel scoped(level);
                uint8_t line[72];
                std::memcpy(line, corrupted, 72);
                const auto result = LineCodec::decodeLineBatched(line);
                ASSERT_EQ(result.status, EccStatus::Corrected)
                    << "level " << simdLevelName(level) << " position "
                    << position << " error " << error;
                ASSERT_EQ(result.correctedCodewords, 1u);
                ASSERT_EQ(result.correctedDeviceMask, 1u << position);
                ASSERT_EQ(std::memcmp(line, base, 72), 0)
                    << "level " << simdLevelName(level) << " position "
                    << position << " error " << error;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Erasure decoding against the brute-force reference. Validity is still
// "re-encode and compare"; the reference searches every assignment of
// the erased symbols. With one erasure a candidate codeword is unique
// when it exists (two candidates would be codewords at distance 1);
// with two erasures exactly one candidate always exists (the two parity
// constraints in the erased unknowns have a nonsingular 2x2 Vandermonde
// system) — the reference verifies that uniqueness by exhaustion, which
// is precisely why two erasures cost all detection margin.

RefResult
referenceDecodeWithErasures(const uint8_t word[18], uint32_t erasure_mask)
{
    RefResult result;
    std::memcpy(result.corrected, word, 18);

    unsigned positions[2] = {0, 0};
    unsigned erasures = 0;
    for (unsigned i = 0; i < 18; ++i) {
        if (!(erasure_mask & (1u << i)))
            continue;
        if (erasures < 2)
            positions[erasures] = i;
        ++erasures;
    }
    if (erasures == 0)
        return referenceDecode(word);
    if (erasures > 2) {
        result.status = EccStatus::Uncorrectable;
        return result;
    }

    unsigned matches = 0;
    uint8_t found[18] = {};
    if (erasures == 1) {
        for (unsigned v = 0; v < 256; ++v) {
            uint8_t candidate[18];
            std::memcpy(candidate, word, 18);
            candidate[positions[0]] = static_cast<uint8_t>(v);
            if (!refIsCodeword(candidate))
                continue;
            ++matches;
            std::memcpy(found, candidate, 18);
        }
        EXPECT_LE(matches, 1u);
    } else {
        for (unsigned v1 = 0; v1 < 256; ++v1) {
            for (unsigned v2 = 0; v2 < 256; ++v2) {
                uint8_t candidate[18];
                std::memcpy(candidate, word, 18);
                candidate[positions[0]] = static_cast<uint8_t>(v1);
                candidate[positions[1]] = static_cast<uint8_t>(v2);
                if (!refIsCodeword(candidate))
                    continue;
                ++matches;
                std::memcpy(found, candidate, 18);
            }
        }
        // Nonsingular system: exactly one solution, always.
        EXPECT_EQ(matches, 1u);
    }

    if (matches == 0) {
        result.status = EccStatus::Uncorrectable;
        return result;
    }
    if (std::memcmp(found, word, 18) == 0)
        return result;  // Erased symbols were consistent: Ok.
    result.status = EccStatus::Corrected;
    result.position = positions[0];
    std::memcpy(result.corrected, found, 18);
    return result;
}

TEST(ChipkillErasureDifferential, SingleErasureSweepAgainstReference)
{
    // Every erasure position x {clean word, corrupted erased symbol,
    // corrupted + stray error elsewhere}: production and reference must
    // agree on verdict and bytes.
    Rng rng(2027);
    for (unsigned p = 0; p < 18; ++p) {
        for (int kind = 0; kind < 3; ++kind) {
            for (int rep = 0; rep < 8; ++rep) {
                uint8_t word[18];
                randomCodeword(rng, word);
                if (kind >= 1)
                    word[p] ^=
                        static_cast<uint8_t>(1 + rng.uniformInt(255));
                if (kind == 2) {
                    auto q = static_cast<unsigned>(rng.uniformInt(18));
                    while (q == p)
                        q = static_cast<unsigned>(rng.uniformInt(18));
                    word[q] ^=
                        static_cast<uint8_t>(1 + rng.uniformInt(255));
                }
                const RefResult reference =
                    referenceDecodeWithErasures(word, 1u << p);
                uint8_t decoded[18];
                std::memcpy(decoded, word, 18);
                const auto result =
                    ChipkillCode::decodeWithErasures(decoded, 1u << p);
                ASSERT_EQ(result.status, reference.status)
                    << "p " << p << " kind " << kind;
                if (reference.status == EccStatus::Corrected) {
                    EXPECT_EQ(result.correctedSymbol, reference.position);
                }
                if (reference.status != EccStatus::Uncorrectable) {
                    EXPECT_EQ(
                        std::memcmp(decoded, reference.corrected, 18), 0);
                }
            }
        }
    }
}

TEST(ChipkillErasureDifferential, TwoErasuresAgainstReference)
{
    // Random erasure pairs, random damage on neither/one/both erased
    // symbols and occasionally a stray error elsewhere (which two
    // erasures cannot detect — production and reference must reach the
    // same unique wrong codeword).
    Rng rng(2028);
    for (int iter = 0; iter < 40; ++iter) {
        uint8_t word[18];
        randomCodeword(rng, word);
        const auto p1 = static_cast<unsigned>(rng.uniformInt(18));
        auto p2 = static_cast<unsigned>(rng.uniformInt(18));
        while (p2 == p1)
            p2 = static_cast<unsigned>(rng.uniformInt(18));
        if (rng.bernoulli(0.7))
            word[p1] ^= static_cast<uint8_t>(1 + rng.uniformInt(255));
        if (rng.bernoulli(0.7))
            word[p2] ^= static_cast<uint8_t>(1 + rng.uniformInt(255));
        if (rng.bernoulli(0.25)) {
            auto q = static_cast<unsigned>(rng.uniformInt(18));
            while (q == p1 || q == p2)
                q = static_cast<unsigned>(rng.uniformInt(18));
            word[q] ^= static_cast<uint8_t>(1 + rng.uniformInt(255));
        }
        const uint32_t mask = (1u << p1) | (1u << p2);
        const RefResult reference =
            referenceDecodeWithErasures(word, mask);
        uint8_t decoded[18];
        std::memcpy(decoded, word, 18);
        const auto result =
            ChipkillCode::decodeWithErasures(decoded, mask);
        ASSERT_EQ(result.status, reference.status);
        if (reference.status == EccStatus::Corrected) {
            EXPECT_EQ(result.correctedSymbol, reference.position);
        }
        if (reference.status != EccStatus::Uncorrectable) {
            EXPECT_EQ(std::memcmp(decoded, reference.corrected, 18), 0);
        }
    }
}

TEST(ChipkillErasureDifferential, LineLevelAllSimdLevelsAgree)
{
    // Line-level erasure decoding: the scalar decodeLineWithErasures
    // verdict/bytes, the batched decode at every dispatch level, and
    // the per-codeword brute-force reference must all coincide.
    Rng rng(2029);
    const std::vector<SimdLevel> levels = supportedSimdLevels();
    for (int iter = 0; iter < 30; ++iter) {
        uint8_t data[64];
        for (auto &byte : data)
            byte = static_cast<uint8_t>(rng.uniformInt(256));
        uint8_t line[72];
        LineCodec::buildLine(data, line);

        const auto p1 = static_cast<unsigned>(rng.uniformInt(18));
        auto p2 = static_cast<unsigned>(rng.uniformInt(18));
        while (p2 == p1)
            p2 = static_cast<unsigned>(rng.uniformInt(18));
        const uint32_t mask = (1u << p1) | (1u << p2);
        for (unsigned w = 0; w < 4; ++w) {
            if (rng.bernoulli(0.6))
                line[4 * p1 + w] ^=
                    static_cast<uint8_t>(1 + rng.uniformInt(255));
            if (rng.bernoulli(0.6))
                line[4 * p2 + w] ^=
                    static_cast<uint8_t>(1 + rng.uniformInt(255));
        }

        // Scalar seed path is the byte-level oracle for the levels.
        uint8_t expected[72];
        std::memcpy(expected, line, 72);
        const auto expected_result =
            LineCodec::decodeLineWithErasures(expected, mask);

        // Per-codeword reference pins the scalar oracle itself.
        unsigned ref_corrected = 0;
        bool ref_unc = false;
        for (unsigned w = 0; w < 4; ++w) {
            uint8_t word[18];
            for (unsigned d = 0; d < 18; ++d)
                word[d] = line[4 * d + w];
            const RefResult reference =
                referenceDecodeWithErasures(word, mask);
            ref_unc |= reference.status == EccStatus::Uncorrectable;
            ref_corrected += reference.status == EccStatus::Corrected;
            if (reference.status != EccStatus::Uncorrectable) {
                for (unsigned d = 0; d < 18; ++d)
                    ASSERT_EQ(expected[4 * d + w],
                              reference.corrected[d]);
            }
        }
        ASSERT_EQ(expected_result.status,
                  ref_unc ? EccStatus::Uncorrectable
                          : (ref_corrected > 0 ? EccStatus::Corrected
                                               : EccStatus::Ok));
        ASSERT_EQ(expected_result.correctedCodewords, ref_corrected);

        for (const SimdLevel level : levels) {
            ScopedSimdLevel scoped(level);
            uint8_t batched[72];
            std::memcpy(batched, line, 72);
            const auto result =
                LineCodec::decodeLineBatched(batched, mask);
            ASSERT_EQ(result.status, expected_result.status)
                << "level " << simdLevelName(level);
            ASSERT_EQ(result.correctedCodewords,
                      expected_result.correctedCodewords);
            ASSERT_EQ(result.correctedDeviceMask,
                      expected_result.correctedDeviceMask);
            ASSERT_EQ(std::memcmp(batched, expected, 72), 0)
                << "level " << simdLevelName(level);
        }
    }
}

TEST(LineCodecTest, ErasureDecodingSurvivesTwoKnownBadDevices)
{
    Rng rng(24);
    uint8_t data[64];
    for (auto &byte : data)
        byte = static_cast<uint8_t>(rng.uniformInt(256));
    uint8_t line[72];
    LineCodec::buildLine(data, line);
    for (unsigned w = 0; w < 4; ++w) {
        line[4 * 2 + w] ^= static_cast<uint8_t>(1 + rng.uniformInt(255));
        line[4 * 13 + w] ^= static_cast<uint8_t>(1 + rng.uniformInt(255));
    }
    const auto result = LineCodec::decodeLineWithErasures(
        line, (1u << 2) | (1u << 13));
    EXPECT_EQ(result.status, EccStatus::Corrected);
    uint8_t out[64];
    LineCodec::extractData(line, out);
    EXPECT_EQ(std::memcmp(out, data, 64), 0);
}

} // namespace
} // namespace relaxfault
