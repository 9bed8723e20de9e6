#include "repair/freefault_repair.h"

namespace relaxfault {

namespace {

/** LLC line (set, line address) of one DRAM line. */
RepairLine
physicalLine(const DramAddressMap &map, const SetIndexer &indexer,
             const LineCoord &coord)
{
    const uint64_t pa = map.encode(coord);
    return {indexer.setIndex(pa), pa >> map.geometry().offsetBits()};
}

/** Line of column block c XOR line of block 0, for every c. */
RowFootprint
columnFootprint(const DramAddressMap &map, const SetIndexer &indexer)
{
    std::vector<RepairLine> deltas;
    LineCoord coord;
    for (unsigned col = 0; col < map.geometry().colBlocksPerRow; ++col) {
        coord.colBlock = col;
        deltas.push_back(physicalLine(map, indexer, coord));
    }
    return RowFootprint(std::move(deltas), 1);
}

} // namespace

FreeFaultRepair::FreeFaultRepair(const DramAddressMap &map,
                                 const CacheGeometry &llc,
                                 const RepairBudget &budget, bool xor_hash)
    : LlcLineRepair(map.geometry(), llc, budget, 1,
                    columnFootprint(map, SetIndexer(llc, xor_hash))),
      map_(map), indexer_(llc, xor_hash)
{
}

std::string
FreeFaultRepair::name() const
{
    return indexer_.xorHash() ? "FreeFault" : "FreeFault-nohash";
}

RepairLine
FreeFaultRepair::unitLine(const DevicePart &part, unsigned bank,
                          uint32_t row, uint16_t col) const
{
    LineCoord coord;
    coord.channel = part.dimm / geometry().ranksPerChannel;
    coord.rank = part.dimm % geometry().ranksPerChannel;
    coord.bank = bank;
    coord.row = row;
    coord.colBlock = col;
    return physicalLine(map_, indexer_, coord);
}

bool
FreeFaultRepair::tryRepair(const FaultRecord &fault)
{
    // One encode per row; any other line of the row is an XOR away.
    return repairRows(fault, [this](const DevicePart &part, unsigned bank,
                                    uint32_t row) {
        return FreeFaultRepair::unitLine(part, bank, row, 0);
    });
}

std::optional<uint64_t>
FreeFaultRepair::keySet(uint64_t key) const
{
    // A key is pa >> offsetBits; the production indexer gives its set.
    const unsigned offset_bits = geometry().offsetBits();
    if (key >= geometry().nodeBytes() >> offset_bits)
        return std::nullopt;
    return indexer_.setIndex(key << offset_bits);
}

unsigned
FreeFaultRepair::keyBits() const
{
    return geometry().paBits() - geometry().offsetBits();
}

} // namespace relaxfault
