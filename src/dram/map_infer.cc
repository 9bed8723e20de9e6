#include "dram/map_infer.h"

#include <algorithm>

#include "common/bitops.h"
#include "common/log.h"
#include "common/rng.h"

namespace relaxfault {
namespace {

/**
 * Incremental Gaussian elimination over GF(2) for the probe system.
 *
 * Unknowns: for each coordinate bit i, an L-bit mask plus one affine
 * constant bit — L+1 coefficient columns in total, with the constant as
 * column L (its coefficient is 1 in every equation). A probe address
 * `a` with observed packed coordinates `c` contributes one equation per
 * coordinate bit, all sharing the coefficient vector (a | 1<<L); the
 * solver keeps the shared echelon form once and carries every
 * right-hand side along as a packed word.
 */
class Gf2Solver
{
  public:
    Gf2Solver(unsigned line_bits, unsigned coord_bits)
        : lineBits_(line_bits), coordBits_(coord_bits),
          pivots_(line_bits + 1)
    {
    }

    /** Columns still without a pivot (0 == solvable). */
    unsigned missing() const { return lineBits_ + 1 - rank_; }

    /**
     * Fold in one observation. Returns false on inconsistency (the
     * observation contradicts the span of the ones already absorbed).
     */
    bool
    addObservation(uint64_t line, uint64_t packed_coord)
    {
        uint64_t coeff = line | (uint64_t{1} << lineBits_);
        uint64_t rhs = packed_coord;
        while (coeff != 0) {
            const unsigned p = 63 - __builtin_clzll(coeff);
            if (!pivots_[p].used) {
                pivots_[p] = {true, coeff, rhs};
                ++rank_;
                return true;
            }
            coeff ^= pivots_[p].coeff;
            rhs ^= pivots_[p].rhs;
        }
        return rhs == 0;  // 0 = rhs is the contradiction row.
    }

    /**
     * Back-substitute the full-rank system into masks + constants.
     * Call only when missing() == 0.
     */
    void
    solve(std::vector<uint64_t> &masks, uint64_t &affine)
    {
        // Jordan phase: clear every non-pivot coefficient so row p
        // reads "unknown p = rhs".
        for (unsigned p = 0; p <= lineBits_; ++p) {
            uint64_t coeff = pivots_[p].coeff ^ (uint64_t{1} << p);
            while (coeff != 0) {
                const unsigned q = 63 - __builtin_clzll(coeff);
                coeff ^= pivots_[q].coeff;
                pivots_[p].rhs ^= pivots_[q].rhs;
            }
            pivots_[p].coeff = uint64_t{1} << p;
        }
        masks.assign(coordBits_, 0);
        for (unsigned i = 0; i < coordBits_; ++i) {
            for (unsigned j = 0; j < lineBits_; ++j)
                masks[i] |= ((pivots_[j].rhs >> i) & 1) << j;
        }
        affine = pivots_[lineBits_].rhs & maskBits(coordBits_);
    }

  private:
    struct Pivot
    {
        bool used = false;
        uint64_t coeff = 0;
        uint64_t rhs = 0;
    };

    unsigned lineBits_;
    unsigned coordBits_;
    unsigned rank_ = 0;
    std::vector<Pivot> pivots_;
};

/** Predicted packed coordinates of a line address under masks+affine. */
uint64_t
predictCoordBits(const std::vector<uint64_t> &masks, uint64_t affine,
                 uint64_t line)
{
    uint64_t bits = affine;
    for (unsigned i = 0; i < masks.size(); ++i)
        bits ^= static_cast<uint64_t>(
                    __builtin_parityll(line & masks[i]))
                << i;
    return bits;
}

bool
coordInRange(const DramGeometry &geometry, const LineCoord &coord)
{
    return coord.channel < geometry.channels &&
           coord.rank < geometry.ranksPerChannel &&
           coord.bank < geometry.banksPerDevice &&
           coord.row < geometry.rowsPerBank &&
           coord.colBlock < geometry.colBlocksPerRow;
}

MapInference
solveSystem(Gf2Solver &solver,
            const std::vector<std::pair<uint64_t, uint64_t>> &equations,
            unsigned line_bits)
{
    MapInference result;
    result.probes = static_cast<unsigned>(equations.size());
    for (const auto &[line, packed] : equations) {
        if (!solver.addObservation(line, packed)) {
            result.error =
                "observations are inconsistent with any GF(2)-affine "
                "XOR scheme (corrupted log or non-linear mapping)";
            return result;
        }
    }
    if (solver.missing() != 0) {
        result.error =
            "underdetermined system: " + std::to_string(solver.missing()) +
            " of " + std::to_string(line_bits + 1) +
            " unknown columns have no pivot (need more observations)";
        return result;
    }
    solver.solve(result.masks, result.affineOffset);
    // Residual sweep: a corrupted observation that slipped into a pivot
    // produces a solution that mismatches other observations — fail
    // loudly rather than emit wrong masks.
    for (const auto &[line, packed] : equations) {
        if (predictCoordBits(result.masks, result.affineOffset, line) !=
            packed) {
            result.error =
                "recovered masks do not reproduce every observation "
                "(corrupted log or non-linear mapping)";
            result.masks.clear();
            return result;
        }
    }
    result.ok = true;
    return result;
}

} // namespace

std::vector<uint64_t>
basisDecodeMasks(const DecodeOracle &oracle, const DramGeometry &geometry)
{
    const unsigned line_bits = geometry.paBits() - geometry.offsetBits();
    const unsigned coord_bits = line_bits;
    const uint64_t c0 = packCoordBits(geometry, oracle(0));
    std::vector<uint64_t> masks(coord_bits, 0);
    for (unsigned j = 0; j < line_bits; ++j) {
        const uint64_t pa = uint64_t{1} << (j + geometry.offsetBits());
        const uint64_t column =
            packCoordBits(geometry, oracle(pa)) ^ c0;
        for (unsigned i = 0; i < coord_bits; ++i)
            masks[i] |= ((column >> i) & 1) << j;
    }
    return masks;
}

MapInference
inferMapping(const DecodeOracle &oracle, const DramGeometry &geometry,
             uint64_t seed, unsigned max_probes)
{
    const unsigned line_bits = geometry.paBits() - geometry.offsetBits();
    Rng rng(seed);
    Gf2Solver solver(line_bits, line_bits);
    MapInference result;

    const auto probe = [&](uint64_t line) -> bool {
        const uint64_t packed = packCoordBits(
            geometry, oracle(line << geometry.offsetBits()));
        ++result.probes;
        return solver.addObservation(line, packed);
    };

    // Random probes first — the black-box regime of the papers, where
    // any address can be sampled but none is privileged. ~line_bits
    // random vectors are full-rank with overwhelming probability; the
    // basis sweep afterwards guarantees completion for any linear map.
    const char *inconsistent = "oracle is not a GF(2)-affine XOR scheme "
                               "(inconsistent probe responses)";
    const unsigned random_budget =
        std::min(max_probes, 4 * (line_bits + 1));
    while (solver.missing() != 0 && result.probes < random_budget) {
        if (!probe(rng.next() & maskBits(line_bits))) {
            result.error = inconsistent;
            return result;
        }
    }
    for (unsigned j = 0; solver.missing() != 0 && j < line_bits; ++j) {
        if (!probe(uint64_t{1} << j)) {
            result.error = inconsistent;
            return result;
        }
    }
    if (!probe(0)) {  // Pin the affine column.
        result.error = inconsistent;
        return result;
    }
    if (solver.missing() != 0) {
        result.error =
            "underdetermined after " + std::to_string(result.probes) +
            " probes: the oracle does not span the line-address space";
        return result;
    }
    solver.solve(result.masks, result.affineOffset);

    // Pair probes: the linearity check the papers run on hardware —
    // f(a^b) must equal f(a)^f(b)^f(0) — plus a residual sweep against
    // the recovered masks on the same fresh addresses.
    const uint64_t c0 = packCoordBits(geometry, oracle(0));
    for (unsigned round = 0; round < 64; ++round) {
        const uint64_t a = rng.next() & maskBits(line_bits);
        const uint64_t b = rng.next() & maskBits(line_bits);
        const uint64_t fa = packCoordBits(
            geometry, oracle(a << geometry.offsetBits()));
        const uint64_t fb = packCoordBits(
            geometry, oracle(b << geometry.offsetBits()));
        const uint64_t fab = packCoordBits(
            geometry, oracle((a ^ b) << geometry.offsetBits()));
        result.probes += 3;
        if (fab != (fa ^ fb ^ c0)) {
            result.error = "oracle fails the pair-probe linearity test "
                           "(decode(a^b) != decode(a)^decode(b)^decode(0))";
            result.masks.clear();
            result.ok = false;
            return result;
        }
        if (predictCoordBits(result.masks, result.affineOffset, a) != fa ||
            predictCoordBits(result.masks, result.affineOffset, b) != fb) {
            result.error =
                "recovered masks fail fresh residual probes";
            result.masks.clear();
            result.ok = false;
            return result;
        }
    }
    result.ok = true;
    return result;
}

MapInference
inferFromObservations(const std::vector<MapObservation> &observations,
                      const DramGeometry &geometry)
{
    const unsigned line_bits = geometry.paBits() - geometry.offsetBits();
    MapInference result;
    std::vector<std::pair<uint64_t, uint64_t>> equations;
    equations.reserve(observations.size());
    for (const MapObservation &obs : observations) {
        if (obs.pa >= geometry.nodeBytes()) {
            result.error = "observation address 0x" +
                           std::to_string(obs.pa) +
                           " is outside the node's PA space";
            return result;
        }
        if (!coordInRange(geometry, obs.coord)) {
            result.error =
                "observation has coordinates outside the geometry";
            return result;
        }
        equations.emplace_back(obs.pa >> geometry.offsetBits(),
                               packCoordBits(geometry, obs.coord));
    }
    Gf2Solver solver(line_bits, line_bits);
    return solveSystem(solver, equations, line_bits);
}

DramAddressMap
mappingFromMasks(const std::string &name, const DramGeometry &geometry,
                 const std::vector<uint64_t> &masks)
{
    return DramAddressMap(geometry, XorScheme{name, masks});
}

bool
verifyMasks(const std::vector<uint64_t> &masks, uint64_t affine,
            const DecodeOracle &oracle, const DramGeometry &geometry,
            uint64_t seed, unsigned rounds)
{
    const unsigned line_bits = geometry.paBits() - geometry.offsetBits();
    if (masks.size() != line_bits)
        return false;
    const auto check = [&](uint64_t line) {
        const uint64_t packed = packCoordBits(
            geometry, oracle(line << geometry.offsetBits()));
        return predictCoordBits(masks, affine, line) == packed;
    };
    if (!check(0))
        return false;
    for (unsigned j = 0; j < line_bits; ++j) {
        if (!check(uint64_t{1} << j))
            return false;
    }
    Rng rng(seed);
    for (unsigned i = 0; i < rounds; ++i) {
        if (!check(rng.next() & maskBits(line_bits)))
            return false;
    }
    return true;
}

} // namespace relaxfault
