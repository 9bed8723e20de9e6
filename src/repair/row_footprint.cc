#include "repair/row_footprint.h"

#include <bit>
#include <functional>
#include <utility>

namespace relaxfault {

RowFootprint::RowFootprint(std::vector<RepairLine> deltas,
                           unsigned cols_per_unit)
    : deltas_(std::move(deltas)), colsPerUnit_(cols_per_unit)
{
    // The coset count needs the units to be a whole GF(2) space mapped
    // linearly: then each set delta is hit by the same m units. Any
    // other shape streams through the deltas but skips the check.
    const size_t units = deltas_.size();
    if (!std::has_single_bit(units) || deltas_[0] != RepairLine{})
        return;
    for (size_t unit = 1; unit < units; ++unit) {
        const size_t low = unit & (~unit + 1);
        if (deltas_[unit] != (deltas_[unit ^ low] ^ deltas_[low]))
            return;
    }

    for (const RepairLine &delta : deltas_) {
        const uint64_t reduced = cosetOf(delta.set);
        if (reduced != 0) {
            basis_.push_back(reduced);
            std::sort(basis_.begin(), basis_.end(), std::greater<>());
        }
    }
    image_.push_back(0);
    for (const uint64_t vector : basis_) {
        const size_t size = image_.size();
        for (size_t i = 0; i < size; ++i)
            image_.push_back(image_[i] ^ vector);
    }
    std::sort(image_.begin(), image_.end());

    std::vector<std::pair<uint64_t, uint16_t>> by_set;
    for (size_t unit = 0; unit < units; ++unit)
        by_set.emplace_back(deltas_[unit].set, static_cast<uint16_t>(unit));
    std::sort(by_set.begin(), by_set.end());
    for (const auto &[set, unit] : by_set)
        unitsBySet_.push_back(unit);
    perSet_ = static_cast<unsigned>(units / image_.size());
}

bool
RowFootprint::distinctWholeRows(const FaultRecord &fault, bool per_device)
{
    const auto &parts = fault.parts;
    for (size_t p = 0; p < parts.size(); ++p) {
        uint32_t banks = 0;
        for (const auto &cluster : parts[p].region.clusters()) {
            if (!cluster.cols.all || (banks & cluster.bankMask) != 0)
                return false;
            banks |= cluster.bankMask;
        }
        for (size_t q = 0; q < p; ++q) {
            if (parts[q].dimm != parts[p].dimm ||
                (per_device && parts[q].device != parts[p].device))
                continue;
            for (const auto &cluster : parts[q].region.clusters()) {
                if ((banks & cluster.bankMask) != 0)
                    return false;
            }
        }
    }
    return true;
}

void
RowFootprint::clearRows()
{
    for (const Coset &group : cosets_)
        slots_[group.slot] = 0;
    cosets_.clear();
    rows_.clear();
}

size_t
RowFootprint::findSlot(uint32_t coset) const
{
    size_t slot = (coset * 0x9e3779b97f4a7c15ull) >> shift_;
    while (slots_[slot] != 0 && cosets_[slots_[slot] - 1].coset != coset)
        slot = (slot + 1) & (slots_.size() - 1);
    return slot;
}

bool
RowFootprint::addRow(const RepairLine &base, unsigned ways)
{
    if (2 * (cosets_.size() + 1) > slots_.size()) {
        // Keep the index at most half full: double it and re-place.
        const size_t capacity = std::max<size_t>(64, 2 * slots_.size());
        slots_.assign(capacity, 0);
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
        for (size_t i = 0; i < cosets_.size(); ++i) {
            cosets_[i].slot =
                static_cast<uint32_t>(findSlot(cosets_[i].coset));
            slots_[cosets_[i].slot] = static_cast<uint32_t>(i + 1);
        }
    }
    const auto coset = static_cast<uint32_t>(cosetOf(base.set));
    const size_t slot = findSlot(coset);
    if (slots_[slot] == 0) {
        cosets_.push_back({coset, 0, kNone, static_cast<uint32_t>(slot)});
        slots_[slot] = static_cast<uint32_t>(cosets_.size());
    }
    Coset &group = cosets_[slots_[slot] - 1];
    rows_.push_back({base.key, static_cast<uint32_t>(base.set), group.head});
    group.head = static_cast<uint32_t>(rows_.size() - 1);
    // Every set of a coset that k rows share receives k x m distinct
    // lines, locked already or not. A locked one counts in its set's
    // load, so the set ends above the ceiling either way.
    return uint64_t{++group.rows} * perSet_ <= ways;
}

bool
RowFootprint::hotSetsFit(const RepairLineTracker &tracker) const
{
    const uint64_t ways = tracker.budget().maxWaysPerSet;
    for (const Coset &group : cosets_) {
        // addRow saw every coset fit alone: only sets already loaded
        // near the ceiling can overflow. No set holds more than
        // maxWaysUsed, so a coset that cannot reach the ceiling even on
        // the fullest set is skipped.
        const uint64_t per_set = uint64_t{group.rows} * perSet_;
        if (tracker.maxWaysUsed() + per_set <= ways)
            continue;
        for (const uint64_t delta : image_) {
            const uint64_t set = group.coset ^ delta;
            const uint64_t load = tracker.setLoad(set);
            if (load + per_set > ways &&
                load + freshLines(tracker, group, set) > ways)
                return false;
        }
    }
    return true;
}

unsigned
RowFootprint::freshLines(const RepairLineTracker &tracker,
                         const Coset &group, uint64_t set) const
{
    unsigned fresh = 0;
    for (uint32_t r = group.head; r != kNone; r = rows_[r].next) {
        const Row &row = rows_[r];
        // The row's units that land in `set` share one set delta.
        const size_t index = static_cast<size_t>(
            std::lower_bound(image_.begin(), image_.end(), set ^ row.set) -
            image_.begin());
        for (size_t i = index * perSet_; i < (index + 1) * perSet_; ++i)
            fresh += !tracker.contains(row.key ^ deltas_[unitsBySet_[i]].key);
    }
    return fresh;
}

} // namespace relaxfault
