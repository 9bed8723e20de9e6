/**
 * @file
 * Physical-address <-> DRAM-coordinate mapping (paper Fig. 7a), as one
 * GF(2)-linear value type.
 *
 * Modern controllers swizzle physical-address bits so that consecutive
 * lines rotate across channels and banks while staying in an open row as
 * long as possible. The paper's running example is a Nehalem-style
 * layout, from LSB to MSB of the line address:
 *
 *   channel | column-low | bank | column-high | rank | row
 *
 * With an 8MiB 16-way LLC all column-block bits land inside the LLC set
 * index, so the lines of one DRAM row occupy distinct sets even without
 * LLC set hashing — while a column fault's lines (row bits vary, column
 * bits fixed) pile up, which is exactly the asymmetry Fig. 8 shows for
 * FreeFault. The paper's controller also enables the permutation-based
 * bank hash of Zhang et al. (bank XOR row-low, Table 3).
 *
 * That layout, bank permutation included, is linear over GF(2), and so
 * are the Intel and AMD XOR schemes DRAMDig and Knock-Knock recover from
 * real parts. Every mapping is therefore an `XorScheme`: one decode
 * mask per canonical coordinate bit, naming the line-address bits whose
 * parity yields it. Coordinate bits pack LSB-first as
 * channel | rank | bank | row | col; masks index line-address bits,
 * i.e. bit 0 of `pa >> offsetBits`.
 *
 * `DramAddressMap` inverts the decode matrix once by Gauss-Jordan
 * elimination (construction panics on a malformed or non-invertible
 * scheme, so every map is a bijection) and then evaluates both
 * directions byte-sliced: one 256-entry table per input byte, holding
 * the XOR of the matrix columns that byte selects, so a translation is
 * a few shifts plus one table load per input byte. `makeAddressMap`
 * builds any registered scheme by name (`fig7a` — the default —
 * `fig7a_nohash`, `intel_ivy`, `intel_haswell`, `amd_zen`).
 */

#ifndef RELAXFAULT_DRAM_ADDRESS_MAP_H
#define RELAXFAULT_DRAM_ADDRESS_MAP_H

#include <cstdint>
#include <string>
#include <vector>

#include "dram/geometry.h"

namespace relaxfault {

/**
 * The canonical coordinate packing (channel | rank | bank | row | col,
 * LSB-first) with its field shifts precomputed. Out-of-range field
 * values are masked to their width.
 */
class CoordBitLayout
{
  public:
    explicit CoordBitLayout(const DramGeometry &geometry);

    uint64_t
    pack(const LineCoord &coord) const
    {
        return (coord.channel & mask_[0]) |
               (uint64_t{coord.rank & mask_[1]} << lsb_[1]) |
               (uint64_t{coord.bank & mask_[2]} << lsb_[2]) |
               (uint64_t{coord.row & mask_[3]} << lsb_[3]) |
               (uint64_t{coord.colBlock & mask_[4]} << lsb_[4]);
    }

    LineCoord
    unpack(uint64_t bits) const
    {
        LineCoord coord;
        coord.channel = static_cast<unsigned>(bits & mask_[0]);
        coord.rank = static_cast<unsigned>(bits >> lsb_[1]) & mask_[1];
        coord.bank = static_cast<unsigned>(bits >> lsb_[2]) & mask_[2];
        coord.row = static_cast<unsigned>(bits >> lsb_[3]) & mask_[3];
        coord.colBlock = static_cast<unsigned>(bits >> lsb_[4]) & mask_[4];
        return coord;
    }

    /** Total packed width. */
    unsigned bits() const { return bits_; }

  private:
    unsigned lsb_[5] = {};
    unsigned mask_[5] = {};
    unsigned bits_ = 0;
};

/** Pack a coordinate into its canonical bit vector. */
inline uint64_t
packCoordBits(const DramGeometry &geometry, const LineCoord &coord)
{
    return CoordBitLayout(geometry).pack(coord);
}

/** Inverse of packCoordBits. */
inline LineCoord
unpackCoordBits(const DramGeometry &geometry, uint64_t bits)
{
    return CoordBitLayout(geometry).unpack(bits);
}

/**
 * An XOR-bit scheme: decodeMasks[i] is the set of line-address bits
 * whose parity yields canonical coordinate bit i. Must hold exactly
 * `lineBits` masks and describe an invertible GF(2) matrix.
 */
struct XorScheme
{
    std::string name;
    std::vector<uint64_t> decodeMasks;
};

/** A bidirectional PA <-> DRAM-coordinate map over one XOR scheme. */
class DramAddressMap
{
  public:
    /** Panics if the scheme is malformed or not invertible. */
    DramAddressMap(const DramGeometry &geometry, XorScheme scheme);

    /** Translate DRAM coordinates to a full physical (byte) address. */
    uint64_t
    encode(const LineCoord &coord) const
    {
        return evaluate(tables_.data(), layout_.pack(coord))
               << offsetBits_;
    }

    /** Translate a physical address to DRAM coordinates. */
    LineCoord
    decode(uint64_t pa) const
    {
        return layout_.unpack(
            evaluate(tables_.data() + slices_ * 256, pa >> offsetBits_));
    }

    const DramGeometry &geometry() const { return geometry_; }
    const std::string &name() const { return name_; }

    /** Line-address width: PA bits above the 64B line offset. */
    unsigned lineBits() const { return layout_.bits(); }

    /** Scheme masks (coordinate bit -> line-address bits). */
    const std::vector<uint64_t> &decodeMasks() const
    {
        return decodeMasks_;
    }

    /** Inverse masks (line-address bit -> coordinate bits). */
    const std::vector<uint64_t> &encodeMasks() const
    {
        return encodeMasks_;
    }

  private:
    /**
     * XOR one table entry per input byte. Inputs wider than the matrix
     * hit all-zero columns, so PA bits above paBits never leak in.
     */
    uint64_t
    evaluate(const uint64_t *table, uint64_t in) const
    {
        uint64_t out = 0;
        for (unsigned k = 0; k < slices_; ++k, table += 256, in >>= 8)
            out ^= table[in & 0xff];
        return out;
    }

    DramGeometry geometry_;
    std::string name_;
    CoordBitLayout layout_;
    unsigned offsetBits_;
    unsigned slices_;  ///< Input bytes per direction.
    std::vector<uint64_t> decodeMasks_;
    std::vector<uint64_t> encodeMasks_;
    /** Encode tables, then decode tables: slices_ x 256 entries each. */
    std::vector<uint64_t> tables_;
};

/**
 * Scheme builders. Real controllers hash fixed absolute bit positions;
 * the simulator sweeps geometries, so each builder places the published
 * XOR structure relative to the geometry's Fig. 7a field layout (six
 * column-block bits below the bank field, the rest above it) and taps
 * only row / high-column bits, which keeps every instance invertible
 * for any power-of-two shape.
 */

/** The Fig. 7a layout, with or without the bank XOR row-low hash. */
XorScheme fig7aXorScheme(const DramGeometry &geometry,
                         bool bank_xor_hash = true);

/**
 * Intel Ivy Bridge-style functions (DRAMDig Table 3): the channel is a
 * wide XOR over row and high-column bits and each bank bit XORs two row
 * bits; ranks ride a two-tap row hash.
 */
XorScheme intelIvyScheme(const DramGeometry &geometry);

/**
 * Intel Haswell-style functions (DRAMDig Table 3): same structure as
 * Ivy with shifted tap positions (the controller generation moved the
 * hash functions up the address).
 */
XorScheme intelHaswellScheme(const DramGeometry &geometry);

/**
 * AMD Zen-style functions (Knock-Knock Sec. 5): bank bits are full
 * stride-XOR reductions of the row (and high column), the widest
 * published hash family.
 */
XorScheme amdZenScheme(const DramGeometry &geometry);

/** Registered scheme names, in registry order ("fig7a" first). */
const std::vector<std::string> &addressMapNames();

/** True if @p name is registered. */
bool isAddressMapName(const std::string &name);

/** "fig7a | fig7a_nohash | ..." for CLI diagnostics. */
std::string addressMapNamesHint();

/**
 * Build a registered scheme by name; panics (with the known-names list)
 * on an unknown name — CLI layers validate first via `isAddressMapName`.
 */
DramAddressMap makeAddressMap(const std::string &name,
                              const DramGeometry &geometry);

} // namespace relaxfault

#endif // RELAXFAULT_DRAM_ADDRESS_MAP_H
