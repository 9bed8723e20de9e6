/**
 * @file
 * Algebraic representation of the DRAM cells a fault disables.
 *
 * A region is a union of clusters; each cluster is a cross product of a
 * bank set, a row set, a column-block set, and a per-slice bit mask (which
 * of the 32 bits a device contributes to a line are bad). This supports
 * the three operations the evaluation needs without materializing cell
 * lists: counting repair units, enumerating repair units when the count is
 * small enough to matter, and intersecting two regions to find codewords
 * where two devices fail together.
 */

#ifndef RELAXFAULT_FAULTS_REGION_H
#define RELAXFAULT_FAULTS_REGION_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "dram/geometry.h"

namespace relaxfault {

/**
 * Make room for @p count elements in a buffer that is refilled over and
 * over. Growth rounds up to a power of two, and to no less than 64
 * elements, past the tails of the few-row draws (a control glitch's
 * geometric row count exceeds 64 with probability ~1e-8), so a reused
 * buffer soon stops growing.
 */
template <typename T>
void
reserveReused(std::vector<T> &buffer, size_t count)
{
    if (buffer.capacity() < count)
        buffer.reserve(std::max<size_t>(64, std::bit_ceil(count)));
}

/** Set of row indices: either every row of a bank or an explicit list. */
struct RowSet
{
    bool all = false;
    std::vector<uint32_t> rows;  ///< Sorted, unique; used when !all.

    static RowSet allRows() { return RowSet{true, {}}; }
    static RowSet of(std::vector<uint32_t> list);

    /** Become every row, keeping the list's buffer. */
    void assignAll()
    {
        all = true;
        rows.clear();
    }
    /** Become the one row @p row, keeping the list's buffer. */
    void assignOne(uint32_t row)
    {
        all = false;
        rows.assign(1, row);
    }

    uint64_t count(const DramGeometry &geometry) const;
    bool contains(uint32_t row) const;
    /** Size of the intersection of two row sets. */
    static uint64_t intersectCount(const RowSet &a, const RowSet &b,
                                   const DramGeometry &geometry);

    bool operator==(const RowSet &) const = default;
};

/** Set of column-block indices, same structure as RowSet. */
struct ColSet
{
    bool all = false;
    std::vector<uint16_t> cols;

    static ColSet allCols() { return ColSet{true, {}}; }
    static ColSet of(std::vector<uint16_t> list);

    /** Same as RowSet::assignAll. */
    void assignAll()
    {
        all = true;
        cols.clear();
    }
    /** Same as RowSet::assignOne. */
    void assignOne(uint16_t col)
    {
        all = false;
        cols.assign(1, col);
    }

    uint64_t count(const DramGeometry &geometry) const;
    bool contains(uint16_t col) const;
    static uint64_t intersectCount(const ColSet &a, const ColSet &b,
                                   const DramGeometry &geometry);

    bool operator==(const ColSet &) const = default;
};

/** One cross-product cluster of faulty cells within a device. */
struct RegionCluster
{
    uint32_t bankMask = 0;         ///< Bit i set => bank i affected.
    RowSet rows;
    ColSet cols;
    uint32_t bitMask = 0xffffffffu; ///< Faulty bits within each slice.

    bool operator==(const RegionCluster &) const = default;
};

/** Union of clusters describing all cells a fault disables in a device. */
class FaultRegion
{
  public:
    FaultRegion() = default;
    explicit FaultRegion(std::vector<RegionCluster> clusters);

    /** Copies @p other's clusters only: parked ones stay behind. */
    FaultRegion(const FaultRegion &other) : clusters_(other.clusters_) {}
    FaultRegion(FaultRegion &&) noexcept = default;
    /** Copies @p other's clusters over this region's own, parking or
     * reviving clusters to match its count (no buffer is freed). */
    FaultRegion &operator=(const FaultRegion &other);
    FaultRegion &operator=(FaultRegion &&) noexcept = default;

    const std::vector<RegionCluster> &clusters() const { return clusters_; }
    bool empty() const { return clusters_.empty(); }

    /**
     * In-place building, for a region that is refilled over and over.
     * reuseClusters resizes the region to @p count clusters and returns
     * them; addCluster appends one; popCluster drops the last. Dropped
     * clusters are parked with their row and column buffers, and the
     * clusters handed out are revived from the parked ones first, each
     * back at the position it left, so a warm region allocates nothing.
     * A handed-out cluster's value is stale: the caller overwrites every
     * field.
     */
    std::span<RegionCluster> reuseClusters(size_t count);
    RegionCluster &addCluster();
    void popCluster();
    /** Append copies of @p other's clusters, reusing parked ones. */
    void append(const FaultRegion &other);

    /**
     * True if any cluster spans every row of a bank ("massive": bank-scale
     * or larger). Massive regions exceed any LLC repair budget and are
     * rejected without enumeration.
     */
    bool massive() const;

    /** Number of affected (bank,row,colBlock) line slices. */
    uint64_t lineSliceCount(const DramGeometry &geometry) const;

    /**
     * Number of affected RelaxFault remap units. A remap unit is 64B of a
     * single device's data: one (bank,row,colGroup) triple where colGroup
     * = colBlock / 16 (16 column blocks x 4B).
     */
    uint64_t remapUnitCount(const DramGeometry &geometry) const;

    /**
     * Column units (colBlock / @p cols_per_unit) of one cluster, all
     * distinct within the cluster: line slices at 1 column per unit,
     * remap units at DramGeometry::colBlocksPerRemapUnit().
     */
    static uint64_t clusterUnits(const RegionCluster &cluster,
                                 const DramGeometry &geometry,
                                 unsigned cols_per_unit);

    /**
     * Visit every (cluster, bank, row) of the region: clusters in order,
     * banks ascending, rows in set order. A visitor that returns bool
     * stops the walk by returning false; the call then returns false.
     * Returns true when every row was visited.
     */
    template <typename Visit>
    bool forEachRow(const DramGeometry &geometry, Visit &&visit) const;

    /**
     * Visit every affected (bank, row, unit), unit = colBlock /
     * @p cols_per_unit, in forEachRow order with units ascending, with
     * the same early-stop contract.
     */
    template <typename Visit>
    bool forEachUnit(const DramGeometry &geometry, unsigned cols_per_unit,
                     Visit &&visit) const;

    /**
     * Visit the distinct column units (colBlock / @p cols_per_unit) of
     * @p cols in ascending order; all @p row_units of them when @p cols
     * is every column. Same early-stop contract as forEachRow.
     */
    template <typename Visit>
    static bool forEachColumnUnit(const ColSet &cols,
                                  unsigned cols_per_unit,
                                  unsigned row_units, Visit &&visit);

    /** Faulty-bit mask of one slice (0 if the slice is healthy). */
    uint32_t sliceMask(unsigned bank, uint32_t row, uint16_t col_block)
        const;

    /**
     * Fraction of a line's ECC symbols a faulty slice touches, from the
     * union of cluster bit masks (each 8-bit symbol pairs two 4-bit
     * beats; 4 symbols per 32-bit slice).
     */
    double symbolFraction() const;

    /** Distinct rows used, at (bank,row) granularity. */
    uint64_t distinctRowCount(const DramGeometry &geometry) const;

    /** Number of banks touched by any cluster. */
    unsigned bankCount() const;

    /**
     * Number of (bank,row,colBlock) line slices where both regions are
     * faulty. Two devices of a rank failing in the same slice put two bad
     * symbols into the same 64B line, which is what defeats chipkill.
     */
    static uint64_t intersectLineCount(const FaultRegion &a,
                                       const FaultRegion &b,
                                       const DramGeometry &geometry);

    /**
     * Codeword-level intersection of two regions (on *different* devices
     * of the same rank): the slices where both are faulty AND both touch
     * at least one common ECC symbol (beat pair). The result's bit masks
     * are symbol-expanded (a shared symbol covers its whole byte), so the
     * operation composes: intersecting the result with a third device's
     * region yields triple-symbol codeword collisions.
     */
    static FaultRegion codewordIntersect(const FaultRegion &a,
                                         const FaultRegion &b,
                                         const DramGeometry &geometry);
    /** codewordIntersect into a reused @p out (which must be neither
     * @p a nor @p b), building it in place. */
    static void codewordIntersectInto(const FaultRegion &a,
                                      const FaultRegion &b,
                                      FaultRegion &out);

    /** True if two slice masks err in at least one common ECC symbol. */
    static bool sharesSymbol(uint32_t mask_a, uint32_t mask_b);

    /** Structural equality (duplicate-fault detection). */
    bool operator==(const FaultRegion &other) const
    {
        return clusters_ == other.clusters_;
    }

  private:
    std::vector<RegionCluster> clusters_;
    /// Parked clusters, a stack: the next one to revive is last. They
    /// are not part of the region's value (copies, comparisons).
    std::vector<RegionCluster> parked_;
};

namespace detail {

/** Call a region visitor; void visitors never stop the walk. */
template <typename Visit, typename... Args>
bool
visitRegion(Visit &visit, Args &&...args)
{
    if constexpr (std::is_void_v<std::invoke_result_t<Visit &, Args...>>) {
        visit(std::forward<Args>(args)...);
        return true;
    } else {
        return visit(std::forward<Args>(args)...);
    }
}

} // namespace detail

template <typename Visit>
bool
FaultRegion::forEachRow(const DramGeometry &geometry, Visit &&visit) const
{
    for (const auto &cluster : clusters_) {
        const uint64_t row_count = cluster.rows.count(geometry);
        for (uint32_t banks = cluster.bankMask; banks != 0;
             banks &= banks - 1) {
            const auto bank = static_cast<unsigned>(std::countr_zero(banks));
            if (bank >= geometry.banksPerDevice)
                break;
            for (uint64_t ri = 0; ri < row_count; ++ri) {
                const uint32_t row = cluster.rows.all
                    ? static_cast<uint32_t>(ri) : cluster.rows.rows[ri];
                if (!detail::visitRegion(visit, cluster, bank, row))
                    return false;
            }
        }
    }
    return true;
}

template <typename Visit>
bool
FaultRegion::forEachColumnUnit(const ColSet &cols, unsigned cols_per_unit,
                               unsigned row_units, Visit &&visit)
{
    if (cols.all) {
        for (unsigned unit = 0; unit < row_units; ++unit) {
            if (!detail::visitRegion(visit, static_cast<uint16_t>(unit)))
                return false;
        }
        return true;
    }
    uint32_t last_unit = ~0u;
    for (const auto col : cols.cols) {
        const uint32_t unit = col / cols_per_unit;
        if (unit == last_unit)
            continue;
        last_unit = unit;
        if (!detail::visitRegion(visit, static_cast<uint16_t>(unit)))
            return false;
    }
    return true;
}

template <typename Visit>
bool
FaultRegion::forEachUnit(const DramGeometry &geometry,
                         unsigned cols_per_unit, Visit &&visit) const
{
    const unsigned row_units =
        (geometry.colBlocksPerRow + cols_per_unit - 1) / cols_per_unit;
    return forEachRow(geometry, [&](const RegionCluster &cluster,
                                    unsigned bank, uint32_t row) {
        return forEachColumnUnit(
            cluster.cols, cols_per_unit, row_units, [&](uint16_t unit) {
                return detail::visitRegion(visit, bank, row, unit);
            });
    });
}

} // namespace relaxfault

#endif // RELAXFAULT_FAULTS_REGION_H
