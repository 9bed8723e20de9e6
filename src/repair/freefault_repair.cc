#include "repair/freefault_repair.h"

#include <algorithm>

#include "telemetry/metrics.h"

namespace relaxfault {

FreeFaultRepair::FreeFaultRepair(const DramAddressMap &map,
                                 const CacheGeometry &llc,
                                 const RepairBudget &budget, bool xor_hash)
    : map_(map), indexer_(llc, xor_hash),
      tracker_(llc.sets(), budget, RowFootprint(columnDeltas(), 1))
{
}

std::vector<RepairLine>
FreeFaultRepair::columnDeltas() const
{
    std::vector<RepairLine> deltas;
    LineCoord coord;
    for (unsigned col = 0; col < map_.geometry().colBlocksPerRow; ++col) {
        coord.colBlock = col;
        deltas.push_back(lineOf(coord));
    }
    return deltas;
}

std::string
FreeFaultRepair::name() const
{
    return indexer_.xorHash() ? "FreeFault" : "FreeFault-nohash";
}

bool
FreeFaultRepair::tryRepair(const FaultRecord &fault)
{
    // Reject before enumerating. A massive region, or a fault whose
    // lines alone exceed the line budget, never fits. Nor does a cluster
    // with more lines than the LLC can lock (sets x ways): its lines are
    // distinct physical blocks, so some set would overflow whatever is
    // locked already. The bound uses the largest cluster, not the sum:
    // parts on one rank share physical lines and clusters may overlap.
    const DramGeometry &geometry = map_.geometry();
    const RepairBudget &budget = tracker_.budget();
    uint64_t total_lines = 0;
    uint64_t largest_cluster = 0;
    for (const auto &part : fault.parts) {
        if (part.region.massive())
            return false;
        for (const auto &cluster : part.region.clusters()) {
            const uint64_t lines =
                FaultRegion::clusterLineSlices(cluster, geometry);
            total_lines += lines;
            largest_cluster = std::max(largest_cluster, lines);
        }
    }
    if (total_lines > budget.maxLines ||
        largest_cluster > tracker_.sets() * budget.maxWaysPerSet)
        return false;

    // Stream (DESIGN.md §16): one encode per row; the tracker decides a
    // fresh whole row from its coset's loads, and any other row line by
    // line, each an XOR away from the row's first.
    const auto row_base = [&](const DevicePart &part, unsigned bank,
                              uint32_t row) {
        LineCoord coord;
        coord.channel = part.dimm / geometry.ranksPerChannel;
        coord.rank = part.dimm % geometry.ranksPerChannel;
        coord.bank = bank;
        coord.row = row;
        return lineOf(coord);
    };
    return tracker_.finish(tracker_.stageFault(fault, geometry, row_base));
}

void
FreeFaultRepair::reset()
{
    tracker_.reset();
}

void
FreeFaultRepair::publishTelemetry(MetricRegistry &registry) const
{
    Log2Histogram *const *hist = histograms(
        registry,
        {"used_lines", "max_ways", "locked_ways_per_set", "occupied_sets"});
    hist[0]->record(usedLines());
    hist[1]->record(maxWaysUsed());
    hist[3]->record(tracker_.publishSetLoads(*hist[2]));
}

bool
FreeFaultRepair::lineRepaired(uint64_t pa) const
{
    return tracker_.contains(pa >> map_.geometry().offsetBits());
}

} // namespace relaxfault
