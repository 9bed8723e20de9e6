/**
 * @file
 * The LLC footprint of a whole DRAM row, factored (DESIGN.md §16).
 *
 * FreeFault places a row's lines through the DRAM address map and the
 * LLC set hash; RelaxFault through the structured remap map. All of
 * those are GF(2)-linear, so the line of column unit c of a row is the
 * line of its unit 0 XOR a per-unit delta that is the same for every
 * row. The set deltas span a subspace V of set space: one row's lines
 * cover one coset of V, m = units / |V| lines in each of its sets. The
 * key deltas span a subspace K of key space: one row's keys are exactly
 * one coset of K, each unit a different member.
 *
 * So streaming a row costs one full translation plus one XOR per line,
 * and RepairLineTracker keeps its books per coset: a whole row is one
 * key coset to index and m lines on every set of one set coset.
 */

#ifndef RELAXFAULT_REPAIR_ROW_FOOTPRINT_H
#define RELAXFAULT_REPAIR_ROW_FOOTPRINT_H

#include <array>
#include <cstdint>
#include <vector>

namespace relaxfault {

/** One repair line's (set, key), or the XOR offset between two. */
struct RepairLine
{
    uint64_t set = 0;
    uint64_t key = 0;

    RepairLine operator^(const RepairLine &other) const
    {
        return {set ^ other.set, key ^ other.key};
    }

    bool operator==(const RepairLine &) const = default;
};

/** Per-unit line deltas of one row, and its coset arithmetic. */
class RowFootprint
{
  public:
    /** A key's coset of K, and which unit of the coset's row it is. */
    struct KeyCoset
    {
        uint64_t coset;  ///< Canonical member: zero at every pivot.
        unsigned unit;   ///< key == coset ^ keyΔ[unit].
    };

    /**
     * @param deltas Line of column unit c XOR line of unit 0, for every
     *        unit c of a row: a power-of-two count, linear in c, with
     *        distinct keys. Throws std::invalid_argument otherwise.
     * @param cols_per_unit Column blocks per unit (1 for FreeFault's
     *        lines, 16 for RelaxFault's remap units).
     */
    RowFootprint(std::vector<RepairLine> deltas, unsigned cols_per_unit);

    /** One-unit rows: every line is a row of its own. */
    RowFootprint() : RowFootprint({RepairLine{}}, 1) {}

    /** Column units per row. */
    unsigned units() const
    {
        return static_cast<unsigned>(deltas_.size());
    }

    unsigned colsPerUnit() const { return colsPerUnit_; }

    /** m: lines one whole row puts in each set of its coset. */
    unsigned linesPerSet() const { return perSet_; }

    /** Line of unit @p unit of the row whose unit 0 is @p base. */
    RepairLine line(const RepairLine &base, unsigned unit) const
    {
        return base ^ deltas_[unit];
    }

    /** Every element of V, ascending. */
    const std::vector<uint64_t> &setSpan() const { return setSpan_; }

    /** Canonical member of @p set's coset of V. */
    uint64_t setCoset(uint64_t set) const
    {
        for (const Slice &slice : setSlices_)
            set ^= slice.reduce[(set >> slice.shift) & 0xff];
        return set;
    }

    /** @p key's coset of K, and its unit within that coset's row. */
    KeyCoset keyCoset(uint64_t key) const
    {
        KeyCoset out{key, 0};
        for (const Slice &slice : keySlices_) {
            const auto byte = static_cast<unsigned>((key >> slice.shift) & 0xff);
            out.coset ^= slice.reduce[byte];
            out.unit ^= slice.unit[byte];
        }
        return out;
    }

  private:
    /**
     * One byte of pivot bits of a reduced echelon basis: the basis
     * vectors (and their units) to XOR in for each value of that byte.
     * The basis is zero at every other vector's pivot, so a value's
     * reduction depends only on its own pivot bits.
     */
    struct Slice
    {
        unsigned shift = 0;
        std::array<uint64_t, 256> reduce{};
        std::array<uint16_t, 256> unit{};
    };

    /** Echelon vector: @p vector is the delta of unit @p unit. */
    struct Pivot
    {
        uint64_t vector;
        unsigned unit;
    };

    /** Reduced echelon basis of the span of @p vectors[1 << i]. */
    static std::vector<Pivot> echelon(const std::vector<uint64_t> &vectors);

    /** Byte slices of @p basis's pivots. */
    static std::vector<Slice> slices(const std::vector<Pivot> &basis);

    std::vector<RepairLine> deltas_;
    unsigned colsPerUnit_;
    unsigned perSet_ = 0;
    std::vector<uint64_t> setSpan_{0};
    std::vector<Slice> setSlices_;
    std::vector<Slice> keySlices_;
};

} // namespace relaxfault

#endif // RELAXFAULT_REPAIR_ROW_FOOTPRINT_H
