/**
 * @file
 * Shared LLC-line allocation bookkeeping for RelaxFault and FreeFault.
 *
 * Tracks which (set, key) repair lines are locked, enforces the per-set
 * way ceiling and the total-capacity cap, and supports all-or-nothing
 * allocation of the lines one fault needs. Lines stream in one row at a
 * time (stageRow) or one line at a time (stage), and the fault is then
 * committed or rolled back (finish), so a fault that cannot fit stops
 * at its first overflowing row or line and nothing is allocated per
 * call.
 *
 * The books are kept per row, not per line (DESIGN.md §16). A row's
 * keys are one coset of the key-delta span, so the index has one entry
 * per key coset with a bit per unit; a whole row adds m lines to every
 * set of one coset of the set-delta span, so loads are a per-coset row
 * load plus a per-set count of lines staged one at a time. A whole row
 * with no unit locked is then checked, staged, rolled back and reset in
 * O(1), not O(units).
 */

#ifndef RELAXFAULT_REPAIR_LINE_TRACKER_H
#define RELAXFAULT_REPAIR_LINE_TRACKER_H

#include <cstdint>
#include <utility>
#include <vector>

#include "faults/fault.h"
#include "repair/repair_mechanism.h"
#include "repair/row_footprint.h"

namespace relaxfault {

class Log2Histogram;

/** Per-set locked-line accounting with transactional adds. */
class RepairLineTracker
{
  public:
    /**
     * @param sets LLC sets, at most 65,536.
     * @param footprint The per-unit deltas of the rows stageRow() will
     *        see; one-unit rows (the default) when lines only come one
     *        at a time.
     */
    RepairLineTracker(uint64_t sets, const RepairBudget &budget,
                      RowFootprint footprint = RowFootprint());

    /**
     * Stage one (set, unique key) line of the fault being added. A key
     * that is already locked or staged is shared, not duplicated.
     * Returns false as soon as the new line would exceed the line cap
     * or the set's way ceiling; the caller then stops staging and calls
     * finish(false). Staged lines count against the limits at once, and
     * the limits only tighten as lines are staged, so the first failing
     * stage() happens iff the whole fault does not fit.
     */
    bool stage(uint64_t set, uint64_t key);

    /**
     * Stage the units of @p cols of the row whose unit 0 is @p base,
     * in FaultRegion::forEachColumnUnit order, with stage()'s contract.
     * A whole row none of whose units is locked or staged is decided
     * at once from its coset's loads; any other row goes line by line.
     */
    bool stageRow(const RepairLine &base, const ColSet &cols);

    /**
     * Stage every line of @p fault in FaultRegion::forEachRow order;
     * @p row_base(part, bank, row) gives the line of a row's unit 0.
     * False at the first row that does not fit; the caller then
     * finishes the transaction either way.
     */
    template <typename RowBase>
    bool stageFault(const FaultRecord &fault, const DramGeometry &geometry,
                    RowBase &&row_base)
    {
        for (const auto &part : fault.parts) {
            const bool fits = part.region.forEachRow(
                geometry, [&](const RegionCluster &cluster, unsigned bank,
                              uint32_t row) {
                    return stageRow(row_base(part, bank, row), cluster.cols);
                });
            if (!fits)
                return false;
        }
        return true;
    }

    /**
     * Close the transaction opened by the first stage: commit every
     * staged line when @p ok, otherwise roll them all back. Returns
     * @p ok.
     */
    bool finish(bool ok);

    /**
     * Atomically allocate the given (set, unique key) lines: stage()
     * each, then finish(). Returns false — with no state change — if
     * the per-set or capacity limits would be exceeded.
     */
    bool tryAdd(const std::vector<std::pair<uint64_t, uint64_t>> &lines);

    /** True if @p key is already locked. */
    bool contains(uint64_t key) const
    {
        const RowFootprint::KeyCoset where = footprint_.keyCoset(key);
        const uint64_t *entry = entryAt(find(where.coset));
        return entry[0] == where.coset && locked(entry, where.unit);
    }

    uint64_t usedLines() const { return committedLines_; }
    unsigned maxWaysUsed() const { return maxWaysUsed_; }
    const RepairBudget &budget() const { return budget_; }
    const RowFootprint &footprint() const { return footprint_; }

    /** Locked lines in one set. */
    unsigned setLoad(uint64_t set) const
    {
        return loads_[loads_[set].coset].rows + loads_[set].extra;
    }

    /** Number of LLC sets tracked. */
    uint64_t sets() const { return loads_.size(); }

    /**
     * Record every occupied set's load into @p hist (one sample per
     * nonzero set); returns the number of occupied sets. Costs
     * O(occupied sets).
     */
    uint64_t publishSetLoads(Log2Histogram &hist) const;

    /** Unlock everything; costs O(cosets, sets and rows touched). */
    void reset();

    /**
     * Every allocated key, in allocation order (audit walks): each
     * row's keys in unit order, as if staged line by line.
     */
    std::vector<uint64_t> allocatedKeys() const;

    /** Allocated keys in ascending order (deterministic injection). */
    std::vector<uint64_t> sortedKeys() const;

    /**
     * Fault-injection backdoor: replace @p old_key with @p new_key in
     * the allocated-key table only, modeling a bit flip in the repair
     * tag RAM. Per-set loads and line counts are left untouched (the
     * hardware counters would not see a tag flip either). Returns false
     * without changes if @p old_key is absent or @p new_key present.
     * Never called by production paths.
     */
    bool corruptReplaceKey(uint64_t old_key, uint64_t new_key);

    /**
     * Fault-injection backdoor: overwrite one set's load counter,
     * modeling a flip in the locked-way accounting. Never called by
     * production paths.
     */
    void corruptSetLoad(uint64_t set, uint16_t value);

  private:
    /** Empty index slot; never a valid coset key. */
    static constexpr uint64_t kEmpty = ~uint64_t{0};

    /**
     * One set's load and coset: lines staged into it one at a time,
     * plus, at a coset's canonical member, the coset's whole-row load.
     */
    struct SetLoad
    {
        uint16_t extra = 0;     ///< Lines staged one at a time.
        uint16_t rows = 0;      ///< Coset: m x whole rows locked in it.
        uint16_t maxExtra = 0;  ///< Coset: largest extra over its sets.
        uint16_t coset = 0;     ///< The set's canonical coset member.
    };

    /** One staged row or line, newest last. */
    struct Record
    {
        static constexpr uint32_t kRow = 1u << 31;     ///< A whole row.
        /** A line that raised its coset's maxExtra. */
        static constexpr uint32_t kRaised = 1u << 30;

        uint64_t key;  ///< The line's key; a row's unit-0 key.
        uint32_t set;  ///< The line's set; a row's unit-0 set.
        uint32_t tag;  ///< The set's canonical coset member | flags.

        uint32_t coset() const { return tag & ~(kRow | kRaised); }
        bool row() const { return (tag & kRow) != 0; }
        bool raised() const { return (tag & kRaised) != 0; }
    };

    /**
     * Slot holding @p coset, or the empty slot where it would go. Each
     * slot is the coset key then stride_ - 1 unit-mask words.
     */
    size_t find(uint64_t coset) const
    {
        size_t slot = (coset * 0x9e3779b97f4a7c15ull) >> shift_;
        while (table_[slot * stride_] != coset &&
               table_[slot * stride_] != kEmpty)
            slot = (slot + 1) & (capacity_ - 1);
        return slot;
    }

    const uint64_t *entryAt(size_t slot) const
    {
        return &table_[slot * stride_];
    }
    uint64_t *entryAt(size_t slot) { return &table_[slot * stride_]; }

    static bool locked(const uint64_t *entry, unsigned unit)
    {
        return (entry[1 + unit / 64] >> (unit % 64)) & 1;
    }

    /**
     * Index @p coset at its empty @p slot, with every unit of a row set
     * when @p whole and none otherwise; returns its slot.
     */
    size_t insert(uint64_t coset, size_t slot, bool whole);

    /** Empty the newest entry (at @p slot). */
    void removeNewest(size_t slot)
    {
        table_[slot * stride_] = kEmpty;
        entrySlots_.pop_back();
    }

    /**
     * Stage the row whose unit 0 is @p base, none of whose units is
     * locked or staged: @p slot is the empty slot of its key coset.
     */
    bool stageFreshRow(const RepairLine &base, uint64_t key_coset,
                       uint64_t set_coset, size_t slot);

    /**
     * Stage a line no entry has yet: unit @p unit of the key coset at
     * @p slot (empty if the coset is not indexed, and then updated).
     */
    bool stageLine(uint64_t set, uint64_t key, uint64_t set_coset,
                   uint64_t key_coset, unsigned unit, size_t &slot);

    /** Undo the newest record. */
    void rollBack(const Record &record);

    /** Empty every entry. */
    void clearIndex();

    /** Re-index every entry into a table of @p capacity slots. */
    void rebuildIndex(size_t capacity);

    /**
     * Move every row's load into the per-set counts and every row
     * record into its lines, with the same loads and key order; the
     * backdoors then edit plain lines. Between transactions only.
     */
    void flatten();

    RowFootprint footprint_;
    RepairBudget budget_;
    unsigned units_;         ///< Units per row.
    unsigned perSet_;        ///< m of a whole row.
    unsigned stride_;        ///< Words per index slot.
    std::vector<uint64_t> rowMask_;  ///< Unit mask of a whole row.
    std::vector<uint64_t> noMask_;   ///< Unit mask of no unit.
    std::vector<SetLoad> loads_;     ///< By set.
    /** Cosets with rows != 0, each once, in the order they left zero. */
    std::vector<uint32_t> dirtyCosets_;
    /** Sets with extra != 0, each once, in the order they left zero. */
    std::vector<uint32_t> dirtySets_;
    std::vector<Record> records_;
    /**
     * Linear-probing index over key cosets, at most half full, and the
     * slots of its entries in insertion order. Entries leave it only
     * newest-first (rollback, reset), so probe chains never break and
     * no tombstones are needed. An empty slot's unit masks are stale;
     * insert() writes them.
     */
    std::vector<uint64_t> table_;
    std::vector<uint32_t> entrySlots_;
    size_t capacity_ = 0;
    unsigned shift_ = 64;    ///< 64 - log2(capacity_).
    uint64_t lines_ = 0;     ///< Locked + staged lines.
    uint64_t committedLines_ = 0;
    size_t committedRecords_ = 0;
    /**
     * Fullest set any staged row or line reached. Loads only grow while
     * staging, so this is the fullest staged set at finish().
     */
    unsigned stagedPeak_ = 0;
    unsigned maxWaysUsed_ = 0;
};

} // namespace relaxfault

#endif // RELAXFAULT_REPAIR_LINE_TRACKER_H
