#include "faults/fault_model.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/log.h"

namespace relaxfault {

double
FaultModelConfig::adjustmentFactor() const
{
    if (!accelerationEnabled)
        return 1.0;
    // Eq. 1 with the acceleration anchored to the 1x nominal rates:
    //   fitScale = P_acc * A + (1 - P_acc) * adj  (factors of nominal)
    const double accelerated =
        acceleratedNodeFraction + acceleratedDimmFraction;
    const double factor =
        (fitScale - accelerated * accelerationFactor) /
        ((1.0 - accelerated) * fitScale);
    if (factor < 0.0) {
        fatal("fault model: acceleration removes more rate than exists; "
              "reduce the accelerated fraction or factor");
    }
    return factor;
}

bool
NodeSample::anyPermanent() const
{
    return std::any_of(faults.begin(), faults.end(),
                       [](const FaultRecord &f) { return f.permanent(); });
}

unsigned
NodeSample::permanentCount() const
{
    return static_cast<unsigned>(
        std::count_if(faults.begin(), faults.end(),
                      [](const FaultRecord &f) { return f.permanent(); }));
}

FaultRecordPool &
FaultRecordPool::operator=(FaultRecordPool &&other) noexcept
{
    ring_ = std::move(other.ring_);
    other.ring_.clear();
    head_ = std::exchange(other.head_, 0);
    count_ = std::exchange(other.count_, 0);
    return *this;
}

void
FaultRecordPool::park(FaultRecord &&record)
{
    if (count_ == ring_.size()) {
        // Double the ring, unwrapping the waiting run to the front.
        std::vector<FaultRecord> ring(std::max<size_t>(4, 2 * count_));
        for (size_t i = 0; i < count_; ++i)
            ring[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
        ring_ = std::move(ring);
        head_ = 0;
    }
    ring_[(head_ + count_) & (ring_.size() - 1)] = std::move(record);
    ++count_;
}

FaultRecord &
FaultRecordPool::revive(std::vector<FaultRecord> &live)
{
    if (count_ == 0)
        return live.emplace_back();
    live.push_back(std::move(ring_[head_]));
    head_ = (head_ + 1) & (ring_.size() - 1);
    --count_;
    return live.back();
}

void
NodeSample::clearFaults()
{
    for (FaultRecord &fault : faults)
        spareFaults_[static_cast<unsigned>(fault.mode)].park(
            std::move(fault));
    faults.clear();
}

void
NodeSample::sortByArrival()
{
    std::sort(faults.begin(), faults.end(),
              [](const FaultRecord &a, const FaultRecord &b) {
                  return a.timeHours < b.timeHours;
              });
}

NodeFaultSampler::NodeFaultSampler(const FaultModelConfig &config)
    : config_(config),
      geometrySampler_(config.geometry, config.geometryParams)
{
    processCdf_.reserve(2 * kFaultModeCount);
    double cumulative = 0.0;
    for (unsigned p = 0; p < 2; ++p) {
        const auto persistence = static_cast<Persistence>(p);
        for (unsigned m = 0; m < kFaultModeCount; ++m) {
            cumulative += config_.rates.rate(static_cast<FaultMode>(m),
                                             persistence);
            processCdf_.push_back(cumulative);
        }
    }
    perDeviceFitTotal_ = cumulative;
    if (perDeviceFitTotal_ <= 0.0)
        fatal("fault model: all FIT rates are zero");
    for (auto &value : processCdf_)
        value /= perDeviceFitTotal_;

    const double per_dimm_base = perDeviceFitTotal_ * config_.fitScale *
        1e-9 * config_.missionHours * config_.geometry.devicesPerRank();
    nominalDimmMean_ = per_dimm_base * dimmFactor(false, false);
    acceleratedDimmMean_ = per_dimm_base * dimmFactor(true, true);
}

double
NodeFaultSampler::dimmFactor(bool node_accel, bool dimm_accel) const
{
    // Factors are relative to fitScale * nominal (the caller multiplies
    // by fitScale): accelerated modules sit at accelerationFactor *
    // nominal in absolute terms.
    if (!config_.accelerationEnabled)
        return 1.0;
    if (node_accel || dimm_accel)
        return config_.accelerationFactor / config_.fitScale;
    return config_.adjustmentFactor();
}

void
NodeFaultSampler::sampleAcceleration(NodeSample &sample, Rng &rng) const
{
    const unsigned dimms = config_.geometry.dimmsPerNode();
    sample.acceleratedDimm.assign(dimms, false);
    if (!config_.accelerationEnabled)
        return;
    sample.acceleratedNode = rng.bernoulli(config_.acceleratedNodeFraction);
    for (unsigned d = 0; d < dimms; ++d)
        sample.acceleratedDimm[d] =
            rng.bernoulli(config_.acceleratedDimmFraction);
}

void
NodeFaultSampler::pickProcess(Rng &rng, FaultMode &mode,
                              Persistence &persistence) const
{
    const double u = rng.uniform();
    const auto it =
        std::lower_bound(processCdf_.begin(), processCdf_.end(), u);
    auto index = static_cast<unsigned>(it - processCdf_.begin());
    if (index >= processCdf_.size())
        index = static_cast<unsigned>(processCdf_.size()) - 1;
    persistence = index < kFaultModeCount ? Persistence::Transient
                                          : Persistence::Permanent;
    mode = static_cast<FaultMode>(index % kFaultModeCount);
}

void
NodeFaultSampler::makeFault(FaultRecord &fault, unsigned dimm,
                            FaultMode mode, Persistence persistence,
                            Rng &rng) const
{
    fault.mode = mode;
    fault.persistence = persistence;
    fault.timeHours = rng.uniform() * config_.missionHours;
    fault.hardPermanent = true;
    fault.activationRatePerHour = 0.0;

    if (persistence == Persistence::Permanent) {
        fault.hardPermanent = rng.bernoulli(config_.hardPermanentFraction);
        if (!fault.hardPermanent) {
            // Log-uniform activation rate across the published range.
            const double log_min =
                std::log(config_.intermittentMinRatePerHour);
            const double log_max =
                std::log(config_.intermittentMaxRatePerHour);
            fault.activationRatePerHour = std::exp(
                log_min + rng.uniform() * (log_max - log_min));
        }
    }

    const auto device = static_cast<unsigned>(
        rng.uniformInt(config_.geometry.devicesPerRank()));
    // Shared-circuitry fault: mirror the region onto the partner rank
    // of the same channel (same device position).
    const bool mirrored = mode == FaultMode::MultiRank &&
                          config_.geometry.ranksPerChannel > 1;
    fault.parts.resize(mirrored ? 2 : 1);
    DevicePart &part = fault.parts[0];
    part.dimm = dimm;
    part.device = device;
    geometrySampler_.sampleInto(part.region, mode, rng);
    if (mirrored) {
        DevicePart &partner = fault.parts[1];
        partner.dimm = dimm ^ 1;
        partner.device = device;
        partner.region = part.region;
    }
}

void
NodeFaultSampler::sampleFaultInto(NodeSample &sample, unsigned dimm,
                                  Rng &rng) const
{
    FaultMode mode;
    Persistence persistence;
    pickProcess(rng, mode, persistence);
    makeFault(sample.addFault(mode), dimm, mode, persistence, rng);
}

NodeSample
NodeFaultSampler::sampleNode(Rng &rng) const
{
    NodeSample sample;
    sampleNodeInto(sample, rng);
    return sample;
}

void
NodeFaultSampler::sampleNodeInto(NodeSample &sample, Rng &rng) const
{
    sample.acceleratedNode = false;  // sampleAcceleration may not set it
    sampleAcceleration(sample, rng);
    sample.clearFaults();

    const unsigned dimms = config_.geometry.dimmsPerNode();
    for (unsigned dimm = 0; dimm < dimms; ++dimm) {
        const double mean =
            dimmMean(sample.acceleratedNode, sample.acceleratedDimm[dimm]);
        const uint64_t count = rng.poisson(mean);
        for (uint64_t i = 0; i < count; ++i)
            sampleFaultInto(sample, dimm, rng);
    }
    sample.sortByArrival();
}

NodeSample
NodeFaultSampler::sampleNodeExact(Rng &rng) const
{
    NodeSample sample;
    sampleAcceleration(sample, rng);

    const unsigned dimms = config_.geometry.dimmsPerNode();
    const unsigned devices = config_.geometry.devicesPerRank();
    const double hours_factor = config_.fitScale * 1e-9 *
                                config_.missionHours;

    for (unsigned dimm = 0; dimm < dimms; ++dimm) {
        const double factor =
            dimmFactor(sample.acceleratedNode, sample.acceleratedDimm[dimm]);
        for (unsigned device = 0; device < devices; ++device) {
            for (unsigned p = 0; p < 2; ++p) {
                const auto persistence = static_cast<Persistence>(p);
                for (unsigned m = 0; m < kFaultModeCount; ++m) {
                    const auto mode = static_cast<FaultMode>(m);
                    double fit = config_.rates.rate(mode, persistence);
                    if (fit <= 0.0)
                        continue;
                    if (config_.deviceVariation) {
                        fit = rng.lognormalMeanVar(
                            fit, fit * config_.varianceOverMean);
                    }
                    const double mean = fit * factor * hours_factor;
                    const uint64_t count = rng.poisson(mean);
                    for (uint64_t i = 0; i < count; ++i) {
                        FaultRecord &fault = sample.addFault(mode);
                        makeFault(fault, dimm, mode, persistence, rng);
                        // makeFault picks a device uniformly; this path
                        // attributes the fault to the sampled device.
                        for (auto &fault_part : fault.parts)
                            fault_part.device = device;
                    }
                }
            }
        }
    }

    sample.sortByArrival();
    return sample;
}

double
NodeFaultSampler::expectedFaultsPerNode() const
{
    return perDeviceFitTotal_ * config_.fitScale * 1e-9 *
           config_.missionHours * config_.geometry.devicesPerNode();
}

} // namespace relaxfault
