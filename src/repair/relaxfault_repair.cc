#include "repair/relaxfault_repair.h"

#include <algorithm>
#include <bit>

#include "telemetry/metrics.h"

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
    const unsigned cols_per_unit =
        dram.lineBytes / dram.bytesPerDevicePerLine();
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
    : dram_(dram), map_(dram, llc, mode),
      tracker_(llc.sets(), budget, remapFootprint(dram, mode)),
      faultyBankTable_(dram.dimmsPerNode(), 0)
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

    // Stream (DESIGN.md §16): one locate per row; the tracker decides a
    // fresh whole row from its coset's loads, and any other row unit by
    // unit, each an XOR away. Hash-only placement is not linear, so that
    // ablation locates every unit.
    bool fits = true;
    if (map_.indexMode() != RelaxFaultMap::IndexMode::HashOnly) {
        fits = tracker_.stageFault(
            fault, dram_, [&](const DevicePart &part, unsigned bank,
                              uint32_t row) {
                return lineOf(RemapUnit{part.dimm, part.device, bank, row, 0});
            });
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
    Log2Histogram *const *hist = histograms(
        registry, {"used_lines", "max_ways", "locked_ways_per_set",
                   "occupied_sets", "flagged_banks"});
    hist[0]->record(usedLines());
    hist[1]->record(maxWaysUsed());
    hist[3]->record(tracker_.publishSetLoads(*hist[2]));
    uint64_t flagged = 0;
    for (const uint32_t mask : faultyBankTable_)
        flagged += std::popcount(mask);
    hist[4]->record(flagged);
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
