#include "repair/relaxfault_map.h"

#include "common/log.h"

namespace relaxfault {

RelaxFaultMap::RelaxFaultMap(const DramGeometry &dram,
                             const CacheGeometry &llc, bool xor_fold)
    : RelaxFaultMap(dram, llc,
                    xor_fold ? IndexMode::StructuredFolded
                             : IndexMode::Structured)
{
}

RelaxFaultMap::RelaxFaultMap(const DramGeometry &dram,
                             const CacheGeometry &llc, IndexMode mode)
    : dram_(dram), mode_(mode), setBits_(llc.setBits())
{
    colGroupBits_ =
        indexBits(dram.colBlocksPerRow / dram.colBlocksPerRemapUnit());
    if (colGroupBits_ >= setBits_)
        fatal("RelaxFaultMap: LLC too small for the column-group field");
    rowLowBits_ = setBits_ - colGroupBits_;
    if (rowLowBits_ > dram.rowBits())
        rowLowBits_ = dram.rowBits();
    rowHighBits_ = dram.rowBits() - rowLowBits_;
}

uint64_t
RelaxFaultMap::tagOf(const RemapUnit &unit, uint64_t row_high) const
{
    // Tag fields, LSB to MSB: rowHigh | bank | device | dimm.
    uint64_t tag = row_high;
    unsigned lsb = rowHighBits_;
    tag = depositBits(tag, lsb, dram_.bankBits(), unit.bank);
    lsb += dram_.bankBits();
    tag = depositBits(tag, lsb, dram_.deviceBits(), unit.device);
    lsb += dram_.deviceBits();
    tag = depositBits(tag, lsb, indexBits(dram_.dimmsPerNode()), unit.dimm);
    return tag;
}

RemapLocation
RelaxFaultMap::locate(const RemapUnit &unit) const
{
    const uint64_t row_low = unit.row & maskBits(rowLowBits_);
    const uint64_t row_high = unit.row >> rowLowBits_;
    const uint64_t base = (row_low << colGroupBits_) | unit.colGroup;

    RemapLocation location;
    if (mode_ == IndexMode::HashOnly) {
        // Ablation: all fields live in the tag; the set index is a pure
        // hash of it. Still injective: (set, tag) determines the unit.
        location.tag = (tagOf(unit, row_high) << setBits_) |
                       (base & maskBits(setBits_));
        // Decorrelate the structured low bits with a multiplicative mix
        // before folding so consecutive rows scatter pseudo-randomly.
        location.set =
            xorFold(location.tag * 0x9e3779b97f4a7c15ull, setBits_);
        return location;
    }

    location.tag = tagOf(unit, row_high);
    uint64_t index = base & maskBits(setBits_);
    if (mode_ == IndexMode::StructuredFolded)
        index ^= xorFold(location.tag, setBits_);
    location.set = index;
    return location;
}

RemapUnit
RelaxFaultMap::invert(const RemapLocation &location) const
{
    uint64_t tag = location.tag;
    uint64_t base;
    if (mode_ == IndexMode::HashOnly) {
        base = tag & maskBits(setBits_);
        tag >>= setBits_;
    } else {
        uint64_t index = location.set;
        if (mode_ == IndexMode::StructuredFolded)
            index ^= xorFold(location.tag, setBits_);
        base = index;
    }

    RemapUnit unit;
    const uint64_t row_high = extractBits(tag, 0, rowHighBits_);
    unsigned lsb = rowHighBits_;
    unit.bank = static_cast<unsigned>(
        extractBits(tag, lsb, dram_.bankBits()));
    lsb += dram_.bankBits();
    unit.device = static_cast<unsigned>(
        extractBits(tag, lsb, dram_.deviceBits()));
    lsb += dram_.deviceBits();
    unit.dimm = static_cast<unsigned>(
        extractBits(tag, lsb, indexBits(dram_.dimmsPerNode())));

    unit.colGroup = static_cast<uint16_t>(
        extractBits(base, 0, colGroupBits_));
    const uint64_t row_low = base >> colGroupBits_;
    unit.row = static_cast<uint32_t>((row_high << rowLowBits_) | row_low);
    return unit;
}

} // namespace relaxfault
