/**
 * @file
 * The paper's refined fault-injection methodology (Sec. 4.1.2).
 *
 * Faults arrive as independent Poisson processes per device and mode with
 * the Table 2 rates. On top of the uniform model the paper adds:
 *
 *  - device-to-device variation: each device/process rate is a Lognormal
 *    with the nominal mean and variance = mean/4;
 *  - node/DIMM acceleration: a fraction (0.1%) of nodes and of DIMMs run
 *    100x hotter, with all remaining rates scaled down per Eq. 1 so the
 *    population mean is preserved (~20% reduction at the defaults).
 *
 * Two samplers are provided. The fast path draws one aggregate Poisson
 * count per DIMM and then attributes faults to devices/modes; because the
 * variation multipliers have mean 1 and tiny relative variance at Table 2
 * rates (var/mean^2 < 2%), this matches the exact model to well under the
 * Monte Carlo noise. The exact path samples every device/process with its
 * own Lognormal-perturbed rate and exists for validation (and for studies
 * that crank the variation up).
 */

#ifndef RELAXFAULT_FAULTS_FAULT_MODEL_H
#define RELAXFAULT_FAULTS_FAULT_MODEL_H

#include <array>
#include <vector>

#include "common/rng.h"
#include "dram/geometry.h"
#include "faults/fault.h"
#include "faults/fault_geometry.h"
#include "faults/rates.h"

namespace relaxfault {

/** Full configuration of the fault-injection model. */
struct FaultModelConfig
{
    DramGeometry geometry;
    FitRates rates = FitRates::cielo();

    /** Global FIT multiplier (the paper evaluates 1x and 10x). */
    double fitScale = 1.0;

    /** Mission length; the paper simulates 6 years of operation. */
    double missionHours = 6 * 8766.0;

    /** Enable the accelerated-population refinement. */
    bool accelerationEnabled = true;
    double acceleratedNodeFraction = 0.001;
    double acceleratedDimmFraction = 0.001;
    /**
     * Rate multiplier of accelerated nodes/DIMMs, relative to the 1x
     * nominal rates. A low-quality module is bad in absolute terms, so
     * the factor does not compound with fitScale; Eq. 1 rebalances the
     * rest of the population so the mean stays fitScale * nominal.
     */
    double accelerationFactor = 100.0;

    /** Enable per-device/process Lognormal rate variation (exact path). */
    bool deviceVariation = true;
    /** Lognormal variance as a fraction of the mean (paper: 1/4). */
    double varianceOverMean = 0.25;

    /** P(a permanent fault is hard-permanent rather than intermittent). */
    double hardPermanentFraction = 0.5;
    /** Hard-intermittent activation-rate range, events/hour (Sec. 2). */
    double intermittentMinRatePerHour = 1.0 / 720.0;
    double intermittentMaxRatePerHour = 2.0;

    FaultGeometryParams geometryParams;

    /**
     * Eq. 1 rebalancing factor applied to non-accelerated devices so the
     * population-average FIT is unchanged.
     */
    double adjustmentFactor() const;
};

/**
 * Retired fault records of one mode, kept with their buffers for reuse.
 * The pool is first in, first out: each record is put to use in turn,
 * so all of their buffers grow to what the mode's faults need, not just
 * the most recently used few. A pool is not part of its owner's value:
 * copying an owner leaves the copy's pool empty.
 */
class FaultRecordPool
{
  public:
    FaultRecordPool() = default;
    FaultRecordPool(const FaultRecordPool &) {}
    FaultRecordPool &operator=(const FaultRecordPool &) { return *this; }
    FaultRecordPool(FaultRecordPool &&other) noexcept
    {
        *this = std::move(other);
    }
    FaultRecordPool &operator=(FaultRecordPool &&other) noexcept;

    void park(FaultRecord &&record);
    /** Append the record parked longest ago to @p live (a new one when
     * the pool is empty); its value is stale. */
    FaultRecord &revive(std::vector<FaultRecord> &live);

  private:
    /// count_ parked records from head_ on, circularly (the size is a
    /// power of two); the other slots hold emptied husks.
    std::vector<FaultRecord> ring_;
    size_t head_ = 0;
    size_t count_ = 0;
};

/**
 * All faults a node experiences over one simulated mission.
 *
 * A sample reused from node to node keeps the records it retires, with
 * their part, cluster, row and column buffers, in spare pools, one per
 * fault mode: clearFaults parks them and addFault revives one of the
 * mode about to be drawn. A revived record was last filled with a fault
 * of the same shape (one part or two; one cluster or a bank's worth),
 * so a warm sample draws a node without touching the heap.
 */
struct NodeSample
{
    bool acceleratedNode = false;
    std::vector<bool> acceleratedDimm;   ///< Per DIMM.
    std::vector<FaultRecord> faults;     ///< Sorted by arrival time.

    bool anyPermanent() const;
    unsigned permanentCount() const;
    /** Order the faults by arrival time (every sampler's last step). */
    void sortByArrival();

    /** Retire every fault into its mode's spare pool. */
    void clearFaults();
    /** Append a record for a fault of @p mode, revived from that mode's
     * pool when it has one: its value is stale until a sampler
     * overwrites it. */
    FaultRecord &addFault(FaultMode mode)
    {
        return spareFaults_[static_cast<unsigned>(mode)].revive(faults);
    }

  private:
    std::array<FaultRecordPool, kFaultModeCount> spareFaults_;
};

/** Samples the fault history of nodes under a FaultModelConfig. */
class NodeFaultSampler
{
  public:
    explicit NodeFaultSampler(const FaultModelConfig &config);

    /** Fast-path sample (aggregate Poisson per DIMM; see file comment). */
    NodeSample sampleNode(Rng &rng) const;

    /** sampleNode into a reused @p sample (every field overwritten). */
    void sampleNodeInto(NodeSample &sample, Rng &rng) const;

    /** Exact per-device/process sample with Lognormal variation. */
    NodeSample sampleNodeExact(Rng &rng) const;

    /** Expected faults per (non-accelerated) node over the mission. */
    double expectedFaultsPerNode() const;

    const FaultModelConfig &config() const { return config_; }

    /** Expected mission faults of a DIMM given its and its node's
     * acceleration; the fleet sampler's class means sum these. */
    double dimmMean(bool node_accel, bool dimm_accel) const
    {
        return node_accel || dimm_accel ? acceleratedDimmMean_
                                        : nominalDimmMean_;
    }

    /**
     * Attribute one fault that has already been assigned to @p dimm and
     * append it to @p sample: draws (mode, persistence) from the rate
     * table, then fills a record of that mode from the sample's pool
     * (NodeSample::addFault) with the fault's time/device/region
     * attributes. This is `sampleNodeInto`'s inner per-fault step; the
     * fleet engine's skip-ahead sampler calls it after drawing one
     * aggregate arrival count, so both paths consume identical
     * per-fault draws.
     */
    void sampleFaultInto(NodeSample &sample, unsigned dimm, Rng &rng) const;

    /** Sum of all (mode x persistence) process rates, in FIT. */
    double perDeviceFitTotal() const { return perDeviceFitTotal_; }

  private:
    /** dimmMean's rate factor, relative to `fitScale * nominal`. */
    double dimmFactor(bool node_accel, bool dimm_accel) const;

    /** Draw acceleration flags into @p sample. */
    void sampleAcceleration(NodeSample &sample, Rng &rng) const;

    /** Attribute one fault into @p fault, overwriting every field and
     * reusing its buffers: mode, persistence, region(s), time. */
    void makeFault(FaultRecord &fault, unsigned dimm, FaultMode mode,
                   Persistence persistence, Rng &rng) const;

    /** Pick (mode, persistence) proportionally to the rate table. */
    void pickProcess(Rng &rng, FaultMode &mode,
                     Persistence &persistence) const;

    FaultModelConfig config_;
    FaultGeometrySampler geometrySampler_;
    /// Cumulative probabilities over the 12 (mode x persistence)
    /// processes, transient first.
    std::vector<double> processCdf_;
    double perDeviceFitTotal_;  ///< Sum of all process rates (FIT).
    double nominalDimmMean_;      ///< dimmMean of a nominal DIMM.
    double acceleratedDimmMean_;  ///< dimmMean of an accelerated DIMM.
};

} // namespace relaxfault

#endif // RELAXFAULT_FAULTS_FAULT_MODEL_H
