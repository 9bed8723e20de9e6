#include "repair/line_tracker.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "telemetry/metrics.h"

namespace relaxfault {

namespace {

/** Index slots before the first growth. */
constexpr size_t kInitialIndexSlots = 256;

/** Sets a tracker can index: coset members are 16-bit. */
constexpr uint64_t kMaxSets = uint64_t{1} << 16;

/** Copy @p words unit-mask words, inline for the widths in use. */
inline void
copyMask(uint64_t *to, const uint64_t *from, unsigned words)
{
    switch (words) {
      case 1:
        to[0] = from[0];
        return;
      case 4:
        std::copy_n(from, 4, to);
        return;
      default:
        std::copy_n(from, words, to);
    }
}

} // namespace

RepairLineTracker::RepairLineTracker(uint64_t sets,
                                     const RepairBudget &budget,
                                     RowFootprint footprint)
    : footprint_(std::move(footprint)), budget_(budget),
      units_(footprint_.units()), perSet_(footprint_.linesPerSet()),
      loads_(sets)
{
    if (sets > kMaxSets)
        throw std::invalid_argument("more LLC sets than the tracker indexes");
    rowMask_.assign((units_ + 63) / 64, ~uint64_t{0});
    if (units_ % 64 != 0)
        rowMask_.back() = (uint64_t{1} << (units_ % 64)) - 1;
    noMask_.assign(rowMask_.size(), 0);
    stride_ = 1 + static_cast<unsigned>(rowMask_.size());
    for (uint64_t set = 0; set < sets; ++set)
        loads_[set].coset = static_cast<uint16_t>(footprint_.setCoset(set));
    rebuildIndex(kInitialIndexSlots);
}

inline size_t
RepairLineTracker::insert(uint64_t coset, size_t slot, bool whole)
{
    if (2 * (entrySlots_.size() + 1) > capacity_) [[unlikely]] {
        rebuildIndex(2 * capacity_);
        slot = find(coset);
    }
    uint64_t *entry = entryAt(slot);
    entry[0] = coset;
    copyMask(entry + 1, whole ? rowMask_.data() : noMask_.data(), stride_ - 1);
    entrySlots_.push_back(static_cast<uint32_t>(slot));
    return slot;
}

inline bool
RepairLineTracker::stageFreshRow(const RepairLine &base, uint64_t key_coset,
                                 uint64_t set_coset, size_t slot)
{
    // No unit is locked or staged: each set of the coset gets m fresh
    // lines, so the row fits iff its fullest set can take m more.
    SetLoad &load = loads_[set_coset];
    if (lines_ + units_ > budget_.maxLines ||
        load.rows + perSet_ + load.maxExtra > budget_.maxWaysPerSet)
        return false;
    insert(key_coset, slot, true);
    if (load.rows == 0)
        dirtyCosets_.push_back(static_cast<uint32_t>(set_coset));
    load.rows = static_cast<uint16_t>(load.rows + perSet_);
    records_.push_back({base.key, static_cast<uint32_t>(base.set),
                        static_cast<uint32_t>(set_coset) | Record::kRow});
    stagedPeak_ = std::max<unsigned>(stagedPeak_, load.rows + load.maxExtra);
    lines_ += units_;
    return true;
}

inline bool
RepairLineTracker::stageLine(uint64_t set, uint64_t key, uint64_t set_coset,
                             uint64_t key_coset, unsigned unit, size_t &slot)
{
    SetLoad &load = loads_[set_coset];
    if (lines_ >= budget_.maxLines ||
        load.rows + loads_[set].extra >= budget_.maxWaysPerSet)
        return false;
    if (entryAt(slot)[0] != key_coset)
        slot = insert(key_coset, slot, false);
    entryAt(slot)[1 + unit / 64] |= uint64_t{1} << (unit % 64);
    if (loads_[set].extra++ == 0)
        dirtySets_.push_back(static_cast<uint32_t>(set));
    uint32_t tag = static_cast<uint32_t>(set_coset);
    if (loads_[set].extra > load.maxExtra) {
        load.maxExtra = loads_[set].extra;
        tag |= Record::kRaised;
    }
    records_.push_back({key, static_cast<uint32_t>(set), tag});
    stagedPeak_ = std::max<unsigned>(stagedPeak_,
                                     load.rows + loads_[set].extra);
    ++lines_;
    return true;
}

bool
RepairLineTracker::stage(uint64_t set, uint64_t key)
{
    const RowFootprint::KeyCoset where = footprint_.keyCoset(key);
    size_t slot = find(where.coset);
    const uint64_t *entry = entryAt(slot);
    if (entry[0] == where.coset && locked(entry, where.unit))
        return true;  // Locked already, or staged earlier in this fault.
    // With one-unit rows a fresh line is a whole row.
    const uint64_t set_coset = loads_[set].coset;
    if (units_ == 1)
        return stageFreshRow({set, key}, where.coset, set_coset, slot);
    return stageLine(set, key, set_coset, where.coset, where.unit, slot);
}

bool
RepairLineTracker::stageRow(const RepairLine &base, const ColSet &cols)
{
    // Unit u of this row is unit u ^ where.unit of its key coset's
    // entry, and every unit's set lies in one set coset.
    const RowFootprint::KeyCoset where = footprint_.keyCoset(base.key);
    const uint64_t set_coset = loads_[base.set].coset;
    size_t slot = find(where.coset);
    if (cols.all && entryAt(slot)[0] != where.coset)
        return stageFreshRow(base, where.coset, set_coset, slot);
    return FaultRegion::forEachColumnUnit(
        cols, footprint_.colsPerUnit(), units_,
        [&](uint16_t unit) {
            const unsigned bit = unit ^ where.unit;
            const uint64_t *entry = entryAt(slot);
            if (entry[0] == where.coset && locked(entry, bit))
                return true;
            const RepairLine next = footprint_.line(base, unit);
            return stageLine(next.set, next.key, set_coset, where.coset, bit,
                             slot);
        });
}

void
RepairLineTracker::clearIndex()
{
    for (const uint32_t slot : entrySlots_)
        table_[size_t{slot} * stride_] = kEmpty;
    entrySlots_.clear();
}

inline void
RepairLineTracker::rollBack(const Record &record)
{
    // Newest first: a record that created an entry finds it newest, and
    // a coset or set whose count returns to zero was the last pushed.
    SetLoad &load = loads_[record.coset()];
    if (record.row()) {
        removeNewest(entrySlots_.back());
        load.rows = static_cast<uint16_t>(load.rows - perSet_);
        if (load.rows == 0)
            dirtyCosets_.pop_back();
        lines_ -= units_;
        return;
    }
    const RowFootprint::KeyCoset where = footprint_.keyCoset(record.key);
    const size_t slot = find(where.coset);
    uint64_t *entry = entryAt(slot);
    entry[1 + where.unit / 64] &= ~(uint64_t{1} << (where.unit % 64));
    if (std::all_of(entry + 1, entry + stride_,
                    [](uint64_t word) { return word == 0; }))
        removeNewest(slot);
    if (--loads_[record.set].extra == 0)
        dirtySets_.pop_back();
    if (record.raised())
        --load.maxExtra;
    --lines_;
}

bool
RepairLineTracker::finish(bool ok)
{
    if (ok) {
        maxWaysUsed_ = std::max(maxWaysUsed_, stagedPeak_);
        committedRecords_ = records_.size();
        committedLines_ = lines_;
    } else {
        while (records_.size() > committedRecords_) {
            rollBack(records_.back());
            records_.pop_back();
        }
    }
    stagedPeak_ = 0;
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
    std::vector<uint64_t> old = std::move(table_);
    table_.assign(capacity * stride_, 0);
    for (size_t slot = 0; slot < capacity; ++slot)
        table_[slot * stride_] = kEmpty;
    capacity_ = capacity;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    // In insertion order, so newest-first removal stays safe.
    for (uint32_t &slot : entrySlots_) {
        const uint64_t *from = &old[size_t{slot} * stride_];
        slot = static_cast<uint32_t>(find(from[0]));
        std::copy_n(from, stride_, entryAt(slot));
    }
}

uint64_t
RepairLineTracker::publishSetLoads(Log2Histogram &hist) const
{
    // The dirty lists hold every occupied coset and set once, so this
    // costs O(occupied sets), not O(sets), and publishes in batches.
    HistogramBatch batch(&hist);
    uint64_t occupied = 0;
    const auto publish = [&](unsigned load) {
        if (load != 0) {
            batch.record(load);
            ++occupied;
        }
    };
    for (const uint32_t coset : dirtyCosets_) {
        for (const uint64_t delta : footprint_.setSpan())
            publish(loads_[coset].rows + loads_[coset ^ delta].extra);
    }
    for (const uint32_t set : dirtySets_) {
        if (loads_[loads_[set].coset].rows == 0)
            publish(loads_[set].extra);
    }
    return occupied;
}

std::vector<uint64_t>
RepairLineTracker::allocatedKeys() const
{
    std::vector<uint64_t> keys;
    keys.reserve(lines_);
    for (const Record &record : records_) {
        if (!record.row()) {
            keys.push_back(record.key);
            continue;
        }
        for (unsigned unit = 0; unit < units_; ++unit)
            keys.push_back(
                footprint_.line({record.set, record.key}, unit).key);
    }
    return keys;
}

std::vector<uint64_t>
RepairLineTracker::sortedKeys() const
{
    std::vector<uint64_t> keys = allocatedKeys();
    std::sort(keys.begin(), keys.end());
    return keys;
}

void
RepairLineTracker::flatten()
{
    for (const uint32_t coset : dirtyCosets_) {
        for (const uint64_t delta : footprint_.setSpan())
            loads_[coset ^ delta].extra += loads_[coset].rows;
        loads_[coset].rows = 0;
    }
    dirtyCosets_.clear();
    dirtySets_.clear();
    for (SetLoad &load : loads_)
        load.maxExtra = 0;
    for (uint64_t set = 0; set < loads_.size(); ++set) {
        if (loads_[set].extra == 0)
            continue;
        dirtySets_.push_back(static_cast<uint32_t>(set));
        SetLoad &load = loads_[loads_[set].coset];
        load.maxExtra = std::max(load.maxExtra, loads_[set].extra);
    }

    std::vector<Record> lines;
    for (const Record &record : records_) {
        if (!record.row()) {
            lines.push_back({record.key, record.set, record.coset()});
            continue;
        }
        for (unsigned unit = 0; unit < units_; ++unit) {
            const RepairLine line =
                footprint_.line({record.set, record.key}, unit);
            lines.push_back({line.key, static_cast<uint32_t>(line.set),
                             record.coset()});
        }
    }
    records_ = std::move(lines);
    committedRecords_ = records_.size();
}

bool
RepairLineTracker::corruptReplaceKey(uint64_t old_key, uint64_t new_key)
{
    if (!contains(old_key) || contains(new_key) ||
        footprint_.keyCoset(new_key).coset == kEmpty)
        return false;
    flatten();
    for (Record &record : records_) {
        if (record.key == old_key)
            record.key = new_key;
    }
    // Re-index from the records, in their order, so the entry of each
    // key coset is created by its oldest line as staging would.
    clearIndex();
    for (const Record &record : records_) {
        const RowFootprint::KeyCoset where = footprint_.keyCoset(record.key);
        size_t slot = find(where.coset);
        if (entryAt(slot)[0] != where.coset)
            slot = insert(where.coset, slot, false);
        entryAt(slot)[1 + where.unit / 64] |= uint64_t{1}
            << (where.unit % 64);
    }
    return true;
}

void
RepairLineTracker::corruptSetLoad(uint64_t set, uint16_t value)
{
    flatten();
    // Keep the dirty list exactly the occupied sets, each once.
    if (loads_[set].extra == 0 && value != 0)
        dirtySets_.push_back(static_cast<uint32_t>(set));
    if (loads_[set].extra != 0 && value == 0) {
        dirtySets_.erase(std::find(dirtySets_.begin(), dirtySets_.end(),
                                   static_cast<uint32_t>(set)));
    }
    loads_[set].extra = value;
    const uint64_t coset = loads_[set].coset;
    SetLoad &load = loads_[coset];
    load.maxExtra = 0;
    for (const uint64_t delta : footprint_.setSpan())
        load.maxExtra = std::max(load.maxExtra, loads_[coset ^ delta].extra);
}

void
RepairLineTracker::reset()
{
    for (const uint32_t coset : dirtyCosets_)
        loads_[coset].rows = 0;
    for (const uint32_t set : dirtySets_) {
        loads_[set].extra = 0;
        loads_[loads_[set].coset].maxExtra = 0;
    }
    dirtyCosets_.clear();
    dirtySets_.clear();
    clearIndex();
    records_.clear();
    lines_ = 0;
    committedLines_ = 0;
    committedRecords_ = 0;
    maxWaysUsed_ = 0;
}

} // namespace relaxfault
