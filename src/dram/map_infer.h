/**
 * @file
 * Black-box inference of XOR address-mapping schemes.
 *
 * DRAMDig and Knock-Knock reverse-engineer a controller's PA -> DRAM
 * swizzle from observed behavior alone: every mapping they find is
 * GF(2)-affine, so probing addresses and solving a linear system over
 * GF(2) recovers the per-coordinate-bit XOR masks exactly. This module
 * is the same algorithm against our own mappings — given only an opaque
 * decode oracle (or an offline log of (address, coordinate)
 * observations), Gaussian elimination over probe addresses recovers the
 * masks, and doubles as a differential test of every registered scheme:
 * inference must reproduce `encode`/`decode` bit-exactly.
 *
 * The solver models an affine map: coordinate bit i is
 * `parity(mask_i & line) XOR constant_i`. Every built-in scheme is
 * purely linear (all constants zero), but the affine column makes a
 * corrupted or non-linear oracle fail loudly instead of silently
 * fitting wrong masks: an inconsistent system, an underdetermined
 * system, and any residual mismatch are all hard errors.
 */

#ifndef RELAXFAULT_DRAM_MAP_INFER_H
#define RELAXFAULT_DRAM_MAP_INFER_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dram/address_map.h"

namespace relaxfault {

/** Opaque decode oracle: physical address -> DRAM coordinates. */
using DecodeOracle = std::function<LineCoord(uint64_t)>;

/** One observed (address, coordinates) pair, e.g. a fault-log entry. */
struct MapObservation
{
    uint64_t pa = 0;
    LineCoord coord;
};

/** Outcome of a mask-recovery run. */
struct MapInference
{
    bool ok = false;
    std::string error;        ///< Diagnostic when !ok.
    /** Recovered masks: coordinate bit -> line-address bits. */
    std::vector<uint64_t> masks;
    /** Recovered affine constants, packed like packCoordBits. */
    uint64_t affineOffset = 0;
    /** Oracle probes consumed / observations used. */
    unsigned probes = 0;
};

/**
 * Recover the masks of @p oracle by black-box probing: random probe
 * addresses (plus the basis, if randomness leaves the system short of
 * full rank) are fed to Gaussian elimination over GF(2); the solution
 * is then cross-checked with pair probes (f(a^b) == f(a)^f(b)^f(0), the
 * linearity test the papers run against hardware) and fresh residual
 * probes. Any failure yields ok=false with a diagnostic.
 */
MapInference inferMapping(const DecodeOracle &oracle,
                          const DramGeometry &geometry, uint64_t seed,
                          unsigned max_probes = 4096);

/**
 * Recover masks from an offline observation log (no oracle access).
 * Fails loudly when the log is underdetermined, inconsistent with any
 * GF(2)-affine scheme (e.g. a corrupted entry), or contains coordinates
 * outside @p geometry.
 */
MapInference inferFromObservations(
    const std::vector<MapObservation> &observations,
    const DramGeometry &geometry);

/**
 * Exact reference masks via basis probing (decode of each line-address
 * bit); the ground truth the differential tests compare against.
 */
std::vector<uint64_t> basisDecodeMasks(const DecodeOracle &oracle,
                                       const DramGeometry &geometry);

/**
 * Rebuild a runnable mapping from recovered masks (panics if the masks
 * are not a bijection). Only valid for affineOffset == 0.
 */
DramAddressMap mappingFromMasks(const std::string &name,
                                const DramGeometry &geometry,
                                const std::vector<uint64_t> &masks);

/**
 * True when @p masks / @p affine reproduce @p oracle on every basis
 * vector and @p rounds fresh random probes.
 */
bool verifyMasks(const std::vector<uint64_t> &masks, uint64_t affine,
                 const DecodeOracle &oracle,
                 const DramGeometry &geometry, uint64_t seed,
                 unsigned rounds = 256);

} // namespace relaxfault

#endif // RELAXFAULT_DRAM_MAP_INFER_H
