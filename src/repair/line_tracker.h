/**
 * @file
 * Shared LLC-line allocation bookkeeping for RelaxFault and FreeFault.
 *
 * Tracks which (set, tag) repair lines are locked, enforces the per-set
 * way ceiling and the total-capacity cap, and supports all-or-nothing
 * allocation of the lines one fault needs. Lines stream in one at a
 * time (stage) and the fault is then committed or rolled back (finish),
 * so a fault that cannot fit stops at its first overflowing line and
 * nothing is allocated per call.
 */

#ifndef RELAXFAULT_REPAIR_LINE_TRACKER_H
#define RELAXFAULT_REPAIR_LINE_TRACKER_H

#include <cstdint>
#include <utility>
#include <vector>

#include "repair/repair_mechanism.h"

namespace relaxfault {

class Log2Histogram;

/** Per-set locked-line accounting with transactional adds. */
class RepairLineTracker
{
  public:
    RepairLineTracker(uint64_t sets, const RepairBudget &budget);

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
     * Close the transaction opened by the first stage(): commit every
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
        return index_[find(key)] == key;
    }

    uint64_t usedLines() const { return committed_; }
    unsigned maxWaysUsed() const { return maxWaysUsed_; }
    const RepairBudget &budget() const { return budget_; }

    /** Locked lines in one set. */
    unsigned setLoad(uint64_t set) const { return load_[set]; }

    /** Number of LLC sets tracked. */
    uint64_t sets() const { return load_.size(); }

    /**
     * Record every occupied set's load into @p hist (one sample per
     * nonzero set); returns the number of occupied sets. Costs
     * O(occupied sets).
     */
    uint64_t publishSetLoads(Log2Histogram &hist) const;

    /** Unlock everything; costs O(sets and keys touched). */
    void reset();

    /** Every allocated key, in allocation order (audit walks). */
    const std::vector<uint64_t> &allocatedKeys() const { return keys_; }

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
    /** Empty index slot; never a valid line key. */
    static constexpr uint64_t kEmpty = ~uint64_t{0};

    /** Slot holding @p key, or the empty slot where it would go. */
    size_t find(uint64_t key) const
    {
        size_t slot = (key * 0x9e3779b97f4a7c15ull) >> shift_;
        while (index_[slot] != key && index_[slot] != kEmpty)
            slot = (slot + 1) & (index_.size() - 1);
        return slot;
    }

    /** Re-index keys_ into a table of @p capacity slots, in key order. */
    void rebuildIndex(size_t capacity);

    /** Empty @p key's slot. Safe only for the newest indexed key. */
    void unindexNewest(uint64_t key) { index_[find(key)] = kEmpty; }

    RepairBudget budget_;
    std::vector<uint16_t> load_;       ///< Locked + staged lines per set.
    /** Occupied sets, each once, in the order their load left zero. */
    std::vector<uint32_t> dirtySets_;
    /** Allocated keys in insertion order; [committed_, end) are staged. */
    std::vector<uint64_t> keys_;
    std::vector<uint32_t> stagedSets_; ///< Set of each staged key.
    /**
     * Linear-probing index over keys_, at most half full. Keys leave it
     * only newest-first (rollback, reset), so probe chains never break
     * and no tombstones are needed.
     */
    std::vector<uint64_t> index_;
    unsigned shift_ = 64;              ///< 64 - log2(index_.size()).
    uint64_t committed_ = 0;
    unsigned maxWaysUsed_ = 0;
};

} // namespace relaxfault

#endif // RELAXFAULT_REPAIR_LINE_TRACKER_H
