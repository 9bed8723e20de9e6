#include "repair/coverage.h"

namespace relaxfault {

double
CoverageResult::faultyFraction() const
{
    if (nodesSampled == 0)
        return 0.0;
    return static_cast<double>(faultyNodes) /
           static_cast<double>(nodesSampled);
}

double
CoverageResult::coverage() const
{
    if (faultyNodes == 0)
        return 0.0;
    return static_cast<double>(repairedNodes) /
           static_cast<double>(faultyNodes);
}

double
CoverageResult::coverageAtCapacity(uint64_t capacity_bytes) const
{
    if (faultyNodes == 0)
        return 0.0;
    return capacityHistogram.cumulativeWeightUpTo(
               static_cast<double>(capacity_bytes)) /
           static_cast<double>(faultyNodes);
}

uint64_t
CoverageResult::capacityForQuantile(double target) const
{
    const double want = target * static_cast<double>(repairedNodes);
    double cumulative = 0.0;
    for (size_t bin = 0; bin < capacityHistogram.binCount(); ++bin) {
        cumulative += capacityHistogram.binWeight(bin);
        if (cumulative >= want)
            return static_cast<uint64_t>(
                capacityHistogram.binUpperEdge(bin));
    }
    return static_cast<uint64_t>(
        capacityHistogram.binUpperEdge(capacityHistogram.binCount() - 1));
}

CoverageEvaluator::CoverageEvaluator(const CoverageConfig &config)
    : config_(config)
{
}

CoverageResult
CoverageEvaluator::run(const MechanismFactory &factory, Rng &rng) const
{
    NodeFaultSampler sampler(config_.faultModel);
    auto mechanism = factory();

    CoverageResult result;
    result.capacityHistogram = Histogram(
        static_cast<double>(config_.capacityBinBytes),
        config_.capacityMaxBytes / config_.capacityBinBytes);

    NodeSample node;
    while (result.faultyNodes < config_.faultyNodeTarget &&
           result.nodesSampled < config_.maxNodeSamples) {
        ++result.nodesSampled;
        sampler.sampleNodeInto(node, rng);
        if (!node.anyPermanent())
            continue;
        ++result.faultyNodes;

        mechanism->reset();
        bool all_repaired = true;
        for (const auto &fault : node.faults) {
            if (!fault.permanent())
                continue;
            if (!mechanism->tryRepair(fault))
                all_repaired = false;
        }
        if (all_repaired) {
            ++result.repairedNodes;
            result.capacityHistogram.add(
                static_cast<double>(mechanism->usedBytes()));
        }
    }
    return result;
}

} // namespace relaxfault
