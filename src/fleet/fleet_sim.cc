#include "fleet/fleet_sim.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"
#include "repair/page_retirement.h"
#include "tracing/tracer.h"

namespace relaxfault {

FleetNodeSampler::FleetNodeSampler(const FaultModelConfig &config)
    : inner_(config), dimms_(config.geometry.dimmsPerNode())
{
    perDimmBase_ = inner_.perDeviceFitTotal() * config.fitScale * 1e-9 *
                   config.missionHours * config.geometry.devicesPerRank();

    if (dimms_ > 64) {
        fatal("fleet sampler: more than 64 DIMMs/node is unsupported "
              "(per-DIMM attribution table is stack-bounded)");
    }

    if (!config.accelerationEnabled) {
        // One certain class at the nominal rate; no class draw at all,
        // matching sampleAcceleration's draw-free disabled path.
        classMean_.assign(1, perDimmBase_ * static_cast<double>(dimms_));
        return;
    }

    if (dimms_ > kMaxAccelDimms) {
        fatal("fleet sampler: " + std::to_string(dimms_) +
              " DIMMs/node needs a " +
              std::to_string(1ull << (1 + dimms_)) +
              "-entry acceleration-class CDF (cap " +
              std::to_string(kMaxAccelDimms) +
              " DIMMs); use the classic engine for this geometry");
    }

    // Class c: bit 0 = accelerated node, bit 1+d = accelerated DIMM d.
    // The flags are independent Bernoullis, so P(c) is a product; the
    // class's aggregate arrival mean is the sum of its per-DIMM means.
    const size_t classes = size_t{1} << (1 + dimms_);
    accelCdf_.resize(classes);
    classMean_.resize(classes);
    const double p_node = config.acceleratedNodeFraction;
    const double p_dimm = config.acceleratedDimmFraction;
    double cumulative = 0.0;
    for (size_t c = 0; c < classes; ++c) {
        const bool node_accel = (c & 1) != 0;
        double prob = node_accel ? p_node : 1.0 - p_node;
        double mean = 0.0;
        for (unsigned d = 0; d < dimms_; ++d) {
            const bool dimm_accel = ((c >> (1 + d)) & 1) != 0;
            prob *= dimm_accel ? p_dimm : 1.0 - p_dimm;
            mean += perDimmBase_ * inner_.dimmFactor(node_accel,
                                                     dimm_accel);
        }
        cumulative += prob;
        accelCdf_[c] = cumulative;
        classMean_[c] = mean;
    }
    // The masses sum to 1 exactly up to rounding; pin the tail so a
    // uniform draw of 1-epsilon can never fall off the table.
    accelCdf_.back() = 1.0;
}

double
FleetNodeSampler::zeroFaultProbability() const
{
    if (accelCdf_.empty())
        return std::exp(-classMean_[0]);
    double p_zero = 0.0;
    double previous = 0.0;
    for (size_t c = 0; c < accelCdf_.size(); ++c) {
        p_zero += (accelCdf_[c] - previous) * std::exp(-classMean_[c]);
        previous = accelCdf_[c];
    }
    return p_zero;
}

unsigned
FleetNodeSampler::sampleNodeInto(NodeSample &sample, Rng &rng) const
{
    // Draw 1: acceleration class (skipped when acceleration is off).
    size_t cls = 0;
    if (!accelCdf_.empty()) {
        const double u = rng.uniform();
        const auto it =
            std::lower_bound(accelCdf_.begin(), accelCdf_.end(), u);
        cls = static_cast<size_t>(it - accelCdf_.begin());
        if (cls >= accelCdf_.size())
            cls = accelCdf_.size() - 1;
    }
    sample.acceleratedNode = (cls & 1) != 0;
    sample.acceleratedDimm.assign(dimms_, false);
    for (unsigned d = 0; d < dimms_; ++d)
        sample.acceleratedDimm[d] = ((cls >> (1 + d)) & 1) != 0;
    sample.faults.clear();

    // Draw 2: ONE aggregate arrival count over the whole node
    // (superposition of the per-DIMM Poisson processes). Zero — the
    // common case — is the skip-ahead exit: no allocation happened.
    const uint64_t total = rng.poisson(classMean_[cls]);
    if (total == 0)
        return 0;

    // Attribute each arrival to a DIMM proportionally to the per-DIMM
    // means (conditioning a superposed Poisson on its total makes the
    // per-arrival source iid with these weights), then draw the fault's
    // attributes exactly as the classic sampler's inner step does.
    double dimm_cdf[64];  // dimmsPerNode <= 64, checked at construction
    double weight_sum = 0.0;
    for (unsigned d = 0; d < dimms_; ++d) {
        weight_sum += perDimmBase_ *
            inner_.dimmFactor(sample.acceleratedNode,
                              sample.acceleratedDimm[d]);
        dimm_cdf[d] = weight_sum;
    }
    sample.faults.reserve(total);
    for (uint64_t i = 0; i < total; ++i) {
        const double u = rng.uniform() * weight_sum;
        unsigned dimm = 0;
        while (dimm + 1 < dimms_ && u >= dimm_cdf[dimm])
            ++dimm;
        sample.faults.push_back(inner_.sampleFaultAt(dimm, rng));
    }
    std::sort(sample.faults.begin(), sample.faults.end(),
              [](const FaultRecord &a, const FaultRecord &b) {
                  return a.timeHours < b.timeHours;
              });
    return static_cast<unsigned>(total);
}

FleetSimulator::FleetSimulator(const LifetimeConfig &config)
    : LifetimeSimulator(config), sampler_(config.faultModel)
{
}

LifetimeMetrics
FleetSimulator::runTrial(uint64_t trial, const MechanismFactory &factory,
                         uint64_t seed, MetricRegistry *telemetry,
                         TrialAuditState *audit, TraceSink *trace) const
{
    const TrialRepair repair = makeTrialRepair(factory);

    // One pooled NodeSample, reused across the fleet. Nodes whose
    // aggregate arrival draw is zero cost ~2 uniforms and touch no
    // heap; only faulty nodes run the full pipeline.
    const uint32_t nodes = config().nodesPerSystem;
    LifetimeMetrics metrics;
    NodeSample pooled;
    for (uint32_t n = 0; n < nodes; ++n) {
        Rng rng = Rng::forkAt(seed, nodeStreamIndex(trial, n));
        if (sampler_.sampleNodeInto(pooled, rng) == 0)
            continue;
        if (repair.retirement != nullptr)
            repair.retirement->reset();
        if (trace != nullptr)
            trace->setNode(n);
        const PhaseScope scope(Phase::NodeSim);
        simulateNode(pooled, repair.mechanism.get(),
                     repair.retirement.get(), metrics, rng, telemetry,
                     audit, trace);
    }
    return metrics;
}

} // namespace relaxfault
