#include "repair/relaxfault_repair.h"

#include <algorithm>

namespace relaxfault {

namespace {

/**
 * Row deltas of @p mode's placement: (g, g) per column group, or
 * one-unit rows for HashOnly, whose placement is not linear.
 */
RowFootprint
remapFootprint(const DramGeometry &dram, RelaxFaultMap::IndexMode mode)
{
    if (mode == RelaxFaultMap::IndexMode::HashOnly)
        return RowFootprint();
    const unsigned cols_per_unit = dram.colBlocksPerRemapUnit();
    std::vector<RepairLine> deltas;
    for (uint64_t group = 0;
         group * cols_per_unit < dram.colBlocksPerRow; ++group)
        deltas.push_back({group, group});
    return RowFootprint(std::move(deltas), cols_per_unit);
}

} // namespace

RelaxFaultRepair::RelaxFaultRepair(const DramGeometry &dram,
                                   const CacheGeometry &llc,
                                   const RepairBudget &budget,
                                   bool xor_fold)
    : RelaxFaultRepair(dram, llc, budget,
                       xor_fold ? RelaxFaultMap::IndexMode::StructuredFolded
                                : RelaxFaultMap::IndexMode::Structured)
{
}

RelaxFaultRepair::RelaxFaultRepair(const DramGeometry &dram,
                                   const CacheGeometry &llc,
                                   const RepairBudget &budget,
                                   RelaxFaultMap::IndexMode mode)
    : LlcLineRepair(dram, llc, budget, dram.colBlocksPerRemapUnit(),
                    remapFootprint(dram, mode)),
      map_(dram, llc, mode), faultyBankTable_(dram.dimmsPerNode(), 0)
{
}

std::string
RelaxFaultRepair::name() const
{
    switch (map_.indexMode()) {
      case RelaxFaultMap::IndexMode::StructuredFolded:
        return "RelaxFault";
      case RelaxFaultMap::IndexMode::Structured:
        return "RelaxFault-nohash";
      case RelaxFaultMap::IndexMode::HashOnly:
        return "RelaxFault-hashonly";
    }
    return "RelaxFault";
}

RepairLine
RelaxFaultRepair::unitLine(const DevicePart &part, unsigned bank,
                           uint32_t row, uint16_t group) const
{
    return lineOf(RemapUnit{part.dimm, part.device, bank, row, group});
}

bool
RelaxFaultRepair::tryRepair(const FaultRecord &fault)
{
    // One locate per row; any other unit of the row is an XOR away.
    // Hash-only placement is not linear, so that ablation locates every
    // unit.
    bool ok;
    if (map_.indexMode() != RelaxFaultMap::IndexMode::HashOnly) {
        ok = repairRows(fault, [this](const DevicePart &part, unsigned bank,
                                      uint32_t row) {
            return lineOf(RemapUnit{part.dimm, part.device, bank, row, 0});
        });
    } else {
        if (!mayFit(fault))
            return false;
        bool fits = true;
        for (const auto &part : fault.parts) {
            fits = part.region.forEachUnit(
                geometry(), colsPerUnit(),
                [&](unsigned bank, uint32_t row, uint16_t group) {
                    const RepairLine line = lineOf(
                        RemapUnit{part.dimm, part.device, bank, row, group});
                    return tracker_.stage(line.set, line.key);
                });
            if (!fits)
                break;
        }
        ok = tracker_.finish(fits);
    }
    if (!ok)
        return false;

    for (const auto &part : fault.parts) {
        for (const auto &cluster : part.region.clusters())
            faultyBankTable_[part.dimm] |= cluster.bankMask;
    }
    return true;
}

void
RelaxFaultRepair::reset()
{
    LlcLineRepair::reset();
    std::fill(faultyBankTable_.begin(), faultyBankTable_.end(), 0);
}

std::optional<uint64_t>
RelaxFaultRepair::keySet(uint64_t key) const
{
    // The key must decode to a unit inside the geometry that locates
    // back to it: the map is injective, so a flipped bit either leaves
    // the image here or collides with the coverage walk.
    const DramGeometry &dram = geometry();
    RemapLocation loc;
    loc.set = key & maskBits(map_.setBits());
    loc.tag = key >> map_.setBits();
    if (loc.tag >= uint64_t{1} << map_.tagBits() ||
        loc.set >= tracker_.sets())
        return std::nullopt;
    const RemapUnit unit = map_.invert(loc);
    if (unit.dimm >= dram.dimmsPerNode() ||
        unit.device >= dram.devicesPerRank() ||
        unit.bank >= dram.banksPerDevice || unit.row >= dram.rowsPerBank ||
        map_.locate(unit) != loc)
        return std::nullopt;
    return loc.set;
}

unsigned
RelaxFaultRepair::keyBits() const
{
    return map_.setBits() + map_.tagBits();
}

bool
RelaxFaultRepair::bankFlagged(unsigned dimm, unsigned bank) const
{
    return (faultyBankTable_[dimm] >> bank) & 1u;
}

bool
RelaxFaultRepair::unitRepaired(const RemapUnit &unit) const
{
    return tracker_.contains(lineOf(unit).key);
}

} // namespace relaxfault
