#include "repair/relaxfault_repair.h"

#include <algorithm>
#include <bit>

#include "telemetry/metrics.h"

namespace relaxfault {

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
    : dram_(dram), map_(dram, llc, mode), tracker_(llc.sets(), budget),
      faultyBankTable_(dram.dimmsPerNode(), 0)
{
    if (mode == RelaxFaultMap::IndexMode::HashOnly)
        return;
    const unsigned cols_per_unit =
        dram.lineBytes / dram.bytesPerDevicePerLine();
    std::vector<RepairLine> deltas;
    for (uint64_t group = 0;
         group * cols_per_unit < dram.colBlocksPerRow; ++group)
        deltas.push_back({group, group});
    footprint_.emplace(std::move(deltas), cols_per_unit);
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

bool
RelaxFaultRepair::tryRepair(const FaultRecord &fault)
{
    // Feasibility pre-pass: a massive region (whole bank or more) or one
    // that alone exceeds the line budget can never fit; reject before
    // enumerating. Nor can a cluster with more remap units than the LLC
    // can lock (sets x ways): its units are distinct keys, so some set
    // would overflow whatever is locked already. The bound uses the
    // largest cluster, not the sum, because clusters may overlap.
    const RepairBudget &budget = tracker_.budget();
    uint64_t total_units = 0;
    uint64_t largest_cluster = 0;
    for (const auto &part : fault.parts) {
        if (part.region.massive())
            return false;
        for (const auto &cluster : part.region.clusters()) {
            const uint64_t units =
                FaultRegion::clusterRemapUnits(cluster, dram_);
            total_units += units;
            largest_cluster = std::max(largest_cluster, units);
        }
    }
    if (total_units > budget.maxLines ||
        largest_cluster > tracker_.sets() * budget.maxWaysPerSet)
        return false;

    // Coset pre-check (DESIGN.md §16): a fault of distinct whole rows
    // that must overflow some set is rejected per row, not per unit.
    // Then stream: one locate per row, and each unit an XOR away; the
    // hash-only ablation has no footprint and locates every unit.
    const auto row_base = [&](const DevicePart &part, unsigned bank,
                              uint32_t row) {
        return lineOf(RemapUnit{part.dimm, part.device, bank, row, 0});
    };
    bool fits = true;
    if (footprint_) {
        if (!footprint_->mayFit(tracker_, fault, dram_, true, row_base))
            return false;
        fits = footprint_->stageFault(tracker_, fault, dram_, row_base);
    } else {
        for (const auto &part : fault.parts) {
            RemapUnit unit{part.dimm, part.device};
            fits = part.region.forEachRemapUnit(
                dram_, [&](unsigned bank, uint32_t row, uint16_t group) {
                    unit.bank = bank;
                    unit.row = row;
                    unit.colGroup = group;
                    const RepairLine line = lineOf(unit);
                    return tracker_.stage(line.set, line.key);
                });
            if (!fits)
                break;
        }
    }
    if (!tracker_.finish(fits))
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
    tracker_.reset();
    std::fill(faultyBankTable_.begin(), faultyBankTable_.end(), 0);
}

void
RelaxFaultRepair::publishTelemetry(MetricRegistry &registry) const
{
    RepairMechanism::publishTelemetry(registry);
    const std::string prefix = "repair." + name();
    const uint64_t occupied = tracker_.publishSetLoads(
        registry.histogram(prefix + ".locked_ways_per_set"));
    registry.histogram(prefix + ".occupied_sets").record(occupied);
    uint64_t flagged = 0;
    for (const uint32_t mask : faultyBankTable_)
        flagged += std::popcount(mask);
    registry.histogram(prefix + ".flagged_banks").record(flagged);
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
