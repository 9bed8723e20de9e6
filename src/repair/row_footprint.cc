#include "repair/row_footprint.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace relaxfault {

RowFootprint::RowFootprint(std::vector<RepairLine> deltas,
                           unsigned cols_per_unit)
    : deltas_(std::move(deltas)), colsPerUnit_(cols_per_unit)
{
    // Cosets need the units to be a whole GF(2) space mapped linearly,
    // with distinct keys: then each key delta names one unit and each
    // set delta is hit by the same m units. Every LLC placement here is
    // linear (DESIGN.md §16); anything else is a caller's error.
    const size_t units = deltas_.size();
    bool linear = std::has_single_bit(units) && deltas_[0] == RepairLine{};
    for (size_t unit = 1; linear && unit < units; ++unit) {
        const size_t low = unit & (~unit + 1);
        linear = deltas_[unit] == (deltas_[unit ^ low] ^ deltas_[low]);
    }
    std::vector<uint64_t> sets;
    std::vector<uint64_t> keys;
    for (const RepairLine &delta : deltas_) {
        sets.push_back(delta.set);
        keys.push_back(delta.key);
    }
    const std::vector<Pivot> key_basis = echelon(keys);
    if (!linear || (size_t{1} << key_basis.size()) != units)
        throw std::invalid_argument(
            "row deltas are not a linear map with distinct keys");
    const std::vector<Pivot> set_basis = echelon(sets);
    for (const Pivot &pivot : set_basis) {
        const size_t size = setSpan_.size();
        for (size_t i = 0; i < size; ++i)
            setSpan_.push_back(setSpan_[i] ^ pivot.vector);
    }
    std::sort(setSpan_.begin(), setSpan_.end());
    perSet_ = static_cast<unsigned>(units / setSpan_.size());
    setSlices_ = slices(set_basis);
    keySlices_ = slices(key_basis);
}

std::vector<RowFootprint::Pivot>
RowFootprint::echelon(const std::vector<uint64_t> &vectors)
{
    // Gauss-Jordan on the generators (units 1, 2, 4, ...): each basis
    // vector's pivot is its lowest bit, and no other vector has it.
    std::vector<Pivot> basis;
    for (size_t generator = 1; generator < vectors.size(); generator <<= 1) {
        Pivot next{vectors[generator], static_cast<unsigned>(generator)};
        for (const Pivot &pivot : basis) {
            if ((next.vector >> std::countr_zero(pivot.vector)) & 1) {
                next.vector ^= pivot.vector;
                next.unit ^= pivot.unit;
            }
        }
        if (next.vector == 0)
            continue;
        const int bit = std::countr_zero(next.vector);
        for (Pivot &pivot : basis) {
            if ((pivot.vector >> bit) & 1) {
                pivot.vector ^= next.vector;
                pivot.unit ^= next.unit;
            }
        }
        basis.push_back(next);
    }
    return basis;
}

std::vector<RowFootprint::Slice>
RowFootprint::slices(const std::vector<Pivot> &basis)
{
    std::vector<Slice> out;
    for (const Pivot &pivot : basis) {
        const auto bit = static_cast<unsigned>(std::countr_zero(pivot.vector));
        const unsigned shift = bit & ~7u;
        auto slice = std::find_if(out.begin(), out.end(),
                                  [&](const Slice &s) {
                                      return s.shift == shift;
                                  });
        if (slice == out.end()) {
            out.emplace_back();
            slice = out.end() - 1;
            slice->shift = shift;
        }
        for (unsigned byte = 0; byte < 256; ++byte) {
            if ((byte >> (bit - shift)) & 1) {
                slice->reduce[byte] ^= pivot.vector;
                slice->unit[byte] ^= static_cast<uint16_t>(pivot.unit);
            }
        }
    }
    return out;
}

} // namespace relaxfault
