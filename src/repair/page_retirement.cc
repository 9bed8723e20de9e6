#include "repair/page_retirement.h"

#include <vector>

namespace relaxfault {

PageRetirement::PageRetirement(const DramAddressMap &map,
                               uint64_t page_bytes,
                               uint64_t max_retired_bytes)
    : map_(map), pageBytes_(page_bytes),
      maxRetiredBytes_(max_retired_bytes)
{
}

bool
PageRetirement::tryRepair(const FaultRecord &fault)
{
    const DramGeometry &geometry = map_.geometry();
    const uint64_t max_pages = maxRetiredBytes_ / pageBytes_;

    // A massive fault would retire a bank's worth of frames: with the
    // swizzled mapping that is most of the address space. Reject like
    // the other fine-grained mechanisms.
    uint64_t total_lines = 0;
    for (const auto &part : fault.parts) {
        if (part.region.massive())
            return false;
        total_lines += part.region.lineSliceCount(geometry);
    }
    if (total_lines > max_pages * (pageBytes_ / geometry.lineBytes))
        return false;

    std::unordered_set<uint64_t> new_pages;
    for (const auto &part : fault.parts) {
        LineCoord coord;
        coord.channel = part.dimm / geometry.ranksPerChannel;
        coord.rank = part.dimm % geometry.ranksPerChannel;
        part.region.forEachUnit(
            geometry, 1,
            [&](unsigned bank, uint32_t row, uint16_t col_block) {
                coord.bank = bank;
                coord.row = row;
                coord.colBlock = col_block;
                const uint64_t frame = map_.encode(coord) / pageBytes_;
                if (!retired_.count(frame))
                    new_pages.insert(frame);
            });
    }
    if ((retired_.size() + new_pages.size()) * pageBytes_ >
        maxRetiredBytes_)
        return false;

    retired_.insert(new_pages.begin(), new_pages.end());
    return true;
}

void
PageRetirement::reset()
{
    retired_.clear();
}

bool
PageRetirement::pageRetired(uint64_t pa) const
{
    return retired_.count(pa / pageBytes_) != 0;
}

} // namespace relaxfault
