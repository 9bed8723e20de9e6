/**
 * @file
 * The LLC footprint of a whole DRAM row, factored (DESIGN.md §16).
 *
 * FreeFault places a row's lines through the DRAM address map and the
 * LLC set hash; RelaxFault through the structured remap map. All of
 * those are GF(2)-linear, so the line of column unit c of a row is the
 * line of its unit 0 XOR a per-unit delta that is the same for every
 * row. The set deltas span a subspace V of set space: one row's lines
 * cover one coset of V, m = units / |V| lines in each of its sets.
 *
 * That gives two things. Streaming a row costs one full translation
 * plus one XOR per line. And a fault made of distinct whole rows can be
 * tested against the way limit per row, not per line: rows that share a
 * coset pile rows x m lines into each of its sets.
 */

#ifndef RELAXFAULT_REPAIR_ROW_FOOTPRINT_H
#define RELAXFAULT_REPAIR_ROW_FOOTPRINT_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "faults/fault.h"
#include "repair/line_tracker.h"

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

/** Per-unit line deltas of one row, and the coset pre-check. */
class RowFootprint
{
  public:
    /**
     * @param deltas Line of column unit c XOR line of unit 0, for every
     *        unit c of a row; must be linear in c.
     * @param cols_per_unit Column blocks per unit (1 for FreeFault's
     *        lines, 16 for RelaxFault's remap units).
     */
    RowFootprint(std::vector<RepairLine> deltas, unsigned cols_per_unit);

    /** Column units per row. */
    unsigned units() const
    {
        return static_cast<unsigned>(deltas_.size());
    }

    /**
     * m: lines one whole row puts in each set of its coset; 0 when the
     * deltas are not a linear image of a whole GF(2) space, and the
     * coset pre-check then always passes.
     */
    unsigned linesPerSet() const { return perSet_; }

    /** Line of unit @p unit of the row whose unit 0 is @p base. */
    RepairLine line(const RepairLine &base, unsigned unit) const
    {
        return base ^ deltas_[unit];
    }

    /**
     * Stage the lines of @p cols of the row whose unit 0 is @p base, in
     * FaultRegion::forEachColumnUnit order. False at the first line
     * that does not fit.
     */
    bool stageRow(RepairLineTracker &tracker, const RepairLine &base,
                  const ColSet &cols) const
    {
        return FaultRegion::forEachColumnUnit(
            cols, colsPerUnit_, units(), [&](uint16_t unit) {
                const RepairLine next = line(base, unit);
                return tracker.stage(next.set, next.key);
            });
    }

    /**
     * Stage every line of @p fault in FaultRegion::forEachRow order,
     * the row's units ascending; @p row_base(part, bank, row) gives the
     * line of a row's unit 0. False at the first line that does not
     * fit; the caller then finishes the transaction either way.
     */
    template <typename RowBase>
    bool stageFault(RepairLineTracker &tracker, const FaultRecord &fault,
                    const DramGeometry &geometry, RowBase &&row_base) const
    {
        for (const auto &part : fault.parts) {
            const bool fits = part.region.forEachRow(
                geometry, [&](const RegionCluster &cluster, unsigned bank,
                              uint32_t row) {
                    return stageRow(tracker, row_base(part, bank, row),
                                    cluster.cols);
                });
            if (!fits)
                return false;
        }
        return true;
    }

    /**
     * The coset pre-check: false only if staging @p fault into
     * @p tracker must overflow some set's way ceiling, and then exactly
     * when it would. Skipped (true) unless distinctWholeRows(fault,
     * @p per_device). Every set's load must count the keys locked in
     * it (the tracker invariant the audits check). Stops collecting
     * rows at the first coset that overflows; otherwise reads one load
     * per set of a coset that could reach the ceiling, and counts lines
     * only in sets that can overflow.
     */
    template <typename RowBase>
    bool mayFit(const RepairLineTracker &tracker, const FaultRecord &fault,
                const DramGeometry &geometry, bool per_device,
                RowBase &&row_base)
    {
        if (perSet_ == 0 || !distinctWholeRows(fault, per_device))
            return true;
        clearRows();
        const unsigned ways = tracker.budget().maxWaysPerSet;
        for (const auto &part : fault.parts) {
            const bool fits = part.region.forEachRow(
                geometry,
                [&](const RegionCluster &, unsigned bank, uint32_t row) {
                    return addRow(row_base(part, bank, row), ways);
                });
            if (!fits)
                return false;
        }
        return hotSetsFit(tracker);
    }

    /**
     * True if every cluster of @p fault spans all columns and no two
     * clusters share a (dimm, bank), or a (dimm, device, bank) when
     * @p per_device: then its whole rows have pairwise distinct lines,
     * which the coset pre-check needs.
     */
    static bool distinctWholeRows(const FaultRecord &fault,
                                  bool per_device);

  private:
    static constexpr uint32_t kNone = ~0u;

    /** One added row: its unit-0 line, chained per coset. */
    struct Row
    {
        uint64_t key;
        uint32_t set;
        uint32_t next;  ///< Previous row of the same coset, or kNone.
    };

    /** One coset the added rows cover. */
    struct Coset
    {
        uint32_t coset;  ///< Canonical member (cosetOf).
        uint32_t rows;   ///< Added rows in it.
        uint32_t head;   ///< Newest of them.
        uint32_t slot;   ///< Its slot in slots_.
    };

    /** Start a check: forget the rows of the last one. */
    void clearRows();

    /**
     * Add one whole row, by the line of its unit 0. Returns false once
     * the rows added so far share a coset so deeply that each of its
     * sets gets more than @p ways of their lines: every set's load
     * counts its locked keys, so the fault overflows whatever is
     * locked.
     */
    bool addRow(const RepairLine &base, unsigned ways);

    /** The added rows' overflow test on sets already loaded. */
    bool hotSetsFit(const RepairLineTracker &tracker) const;

    /** Canonical member of @p set's coset of V: zero at every pivot. */
    uint64_t cosetOf(uint64_t set) const
    {
        for (const uint64_t vector : basis_)
            set = std::min(set, set ^ vector);
        return set;
    }

    /** Slot of @p coset in slots_, or the empty one where it would go. */
    size_t findSlot(uint32_t coset) const;

    /** Fault lines of one coset's rows not yet locked in @p set. */
    unsigned freshLines(const RepairLineTracker &tracker,
                        const Coset &group, uint64_t set) const;

    std::vector<RepairLine> deltas_;
    unsigned colsPerUnit_;
    /** Echelon basis of V, leading bits distinct and descending. */
    std::vector<uint64_t> basis_;
    /** Every element of V, ascending. */
    std::vector<uint64_t> image_;
    /** Units grouped by set delta: m per image_ element, in its order. */
    std::vector<uint16_t> unitsBySet_;
    /** m; 0 disables the coset pre-check. */
    unsigned perSet_ = 0;

    // Scratch of the current check, O(rows); capacity is kept.
    std::vector<Row> rows_;
    std::vector<Coset> cosets_;   ///< In first-seen order.
    /** Linear-probing index over cosets_ (index + 1; 0 is empty). */
    std::vector<uint32_t> slots_;
    unsigned shift_ = 64;         ///< 64 - log2(slots_.size()).
};

} // namespace relaxfault

#endif // RELAXFAULT_REPAIR_ROW_FOOTPRINT_H
