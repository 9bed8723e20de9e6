#include "repair/line_tracker.h"

#include <algorithm>
#include <bit>

#include "telemetry/metrics.h"

namespace relaxfault {

namespace {

/** Index slots before the first growth (2KiB). */
constexpr size_t kInitialIndexSlots = 256;

} // namespace

RepairLineTracker::RepairLineTracker(uint64_t sets,
                                     const RepairBudget &budget)
    : budget_(budget), load_(sets, 0)
{
    rebuildIndex(kInitialIndexSlots);
}

bool
RepairLineTracker::stage(uint64_t set, uint64_t key)
{
    size_t slot = find(key);
    if (index_[slot] == key)
        return true;  // Locked already, or staged earlier in this fault.
    if (keys_.size() >= budget_.maxLines ||
        load_[set] >= budget_.maxWaysPerSet)
        return false;
    if (2 * (keys_.size() + 1) > index_.size()) {
        rebuildIndex(2 * index_.size());
        slot = find(key);
    }
    index_[slot] = key;
    keys_.push_back(key);
    stagedSets_.push_back(static_cast<uint32_t>(set));
    if (load_[set]++ == 0)
        dirtySets_.push_back(static_cast<uint32_t>(set));
    return true;
}

bool
RepairLineTracker::finish(bool ok)
{
    if (ok) {
        for (const uint32_t set : stagedSets_)
            maxWaysUsed_ = std::max<unsigned>(maxWaysUsed_, load_[set]);
        committed_ = keys_.size();
    } else {
        // Newest first: each key is the newest indexed one when it goes,
        // and a set whose load returns to zero was the last one pushed.
        while (keys_.size() > committed_) {
            unindexNewest(keys_.back());
            keys_.pop_back();
            if (--load_[stagedSets_[keys_.size() - committed_]] == 0)
                dirtySets_.pop_back();
        }
    }
    stagedSets_.clear();
    return ok;
}

bool
RepairLineTracker::tryAdd(
    const std::vector<std::pair<uint64_t, uint64_t>> &lines)
{
    bool ok = true;
    for (const auto &[set, key] : lines) {
        ok = stage(set, key);
        if (!ok)
            break;
    }
    return finish(ok);
}

void
RepairLineTracker::rebuildIndex(size_t capacity)
{
    index_.assign(capacity, kEmpty);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (const uint64_t key : keys_)
        index_[find(key)] = key;
}

uint64_t
RepairLineTracker::publishSetLoads(Log2Histogram &hist) const
{
    // The dirty list holds every occupied set once, so this costs
    // O(occupied sets), not O(sets), and publishes in batches.
    HistogramBatch batch(&hist);
    uint64_t occupied = 0;
    for (const uint32_t set : dirtySets_) {
        if (load_[set] == 0)
            continue;
        batch.record(load_[set]);
        ++occupied;
    }
    return occupied;
}

std::vector<uint64_t>
RepairLineTracker::sortedKeys() const
{
    std::vector<uint64_t> keys = keys_;
    std::sort(keys.begin(), keys.end());
    return keys;
}

bool
RepairLineTracker::corruptReplaceKey(uint64_t old_key, uint64_t new_key)
{
    if (!contains(old_key) || contains(new_key) || new_key == kEmpty)
        return false;
    *std::find(keys_.begin(), keys_.end(), old_key) = new_key;
    // An arbitrary delete would break probe chains; re-index in key
    // order so newest-first removal stays safe.
    rebuildIndex(index_.size());
    return true;
}

void
RepairLineTracker::corruptSetLoad(uint64_t set, uint16_t value)
{
    // Keep the dirty list exactly the occupied sets, each once.
    if (load_[set] == 0 && value != 0)
        dirtySets_.push_back(static_cast<uint32_t>(set));
    if (load_[set] != 0 && value == 0) {
        dirtySets_.erase(std::find(dirtySets_.begin(), dirtySets_.end(),
                                   static_cast<uint32_t>(set)));
    }
    load_[set] = value;
}

void
RepairLineTracker::reset()
{
    for (const uint32_t set : dirtySets_)
        load_[set] = 0;
    dirtySets_.clear();
    while (!keys_.empty()) {
        unindexNewest(keys_.back());
        keys_.pop_back();
    }
    stagedSets_.clear();
    committed_ = 0;
    maxWaysUsed_ = 0;
}

} // namespace relaxfault
