#include "repair/llc_line_repair.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "telemetry/metrics.h"

namespace relaxfault {

LlcLineRepair::LlcLineRepair(const DramGeometry &dram,
                             const CacheGeometry &llc,
                             const RepairBudget &budget,
                             unsigned cols_per_unit, RowFootprint footprint)
    : tracker_(llc.sets(), budget, std::move(footprint)), dram_(dram),
      colsPerUnit_(cols_per_unit)
{
}

bool
LlcLineRepair::mayFit(const FaultRecord &fault) const
{
    // A massive region, or a fault whose units alone exceed the line
    // budget, never fits. Nor does a cluster with more units than the
    // LLC can lock (sets x ways): its units are distinct lines, so some
    // set would overflow whatever is locked already. The bound uses the
    // largest cluster, not the sum: parts on one rank share physical
    // lines (FreeFault) and clusters may overlap.
    const RepairBudget &budget = tracker_.budget();
    uint64_t total_units = 0;
    uint64_t largest_cluster = 0;
    for (const auto &part : fault.parts) {
        if (part.region.massive())
            return false;
        for (const auto &cluster : part.region.clusters()) {
            const uint64_t units =
                FaultRegion::clusterUnits(cluster, dram_, colsPerUnit_);
            total_units += units;
            largest_cluster = std::max(largest_cluster, units);
        }
    }
    return total_units <= budget.maxLines &&
           largest_cluster <= tracker_.sets() * budget.maxWaysPerSet;
}

void
LlcLineRepair::publishTelemetry(MetricRegistry &registry) const
{
    static constexpr const char *kMetrics[] = {
        "used_lines", "max_ways", "locked_ways_per_set", "occupied_sets",
        "flagged_banks"};
    const std::span<const uint32_t> banks = faultyBankTable();
    Log2Histogram *const *hist = histograms(
        registry, std::span(kMetrics).first(banks.empty() ? 4 : 5));
    hist[0]->record(usedLines());
    hist[1]->record(maxWaysUsed());
    hist[3]->record(tracker_.publishSetLoads(*hist[2]));
    if (banks.empty())
        return;
    uint64_t flagged = 0;
    for (const uint32_t mask : banks)
        flagged += std::popcount(mask);
    hist[4]->record(flagged);
}

} // namespace relaxfault
