/**
 * @file
 * Fleet-scale lifetime Monte Carlo: millions of nodes per trial with
 * resident memory O(faulty nodes), not O(fleet).
 *
 * The classic `LifetimeSimulator::runSystemTrial` walks every node of a
 * trial off ONE sequential RNG stream, so node n's draws depend on all
 * nodes before it — correct, but it forces every node to be sampled in
 * full even though the overwhelming majority never draw a fault. The
 * fleet engine re-keys randomness per node: node n of trial t draws
 * from the counter-forked stream `Rng::forkAt(seed, t * nodes + n)`,
 * making every node's history self-contained. That enables skip-ahead
 * arrival sampling: each node first draws its acceleration class (one
 * inverse-CDF uniform over the 2^(1+D) flag combinations) and then ONE
 * aggregate Poisson arrival count over the whole node (superposition of
 * the per-DIMM processes). A zero draw — the common case — retires the
 * node after ~2 uniforms with no allocation at all; only nodes with
 * arrivals materialize a `NodeSample` (into a pooled, reused buffer)
 * and run the full per-node pipeline (`LifetimeSimulator::simulateNode`
 * — identical physics to the classic engine).
 *
 * `FleetSimulator` IS a `LifetimeSimulator`: it overrides only the
 * per-trial hook, so `runTrials`/`runTrialRange`, the campaign runner,
 * the worker pool, auditing, tracing, live stats and telemetry are the
 * classic engine's, unchanged. Because streams are keyed only on
 * (seed, trial, node), results are bit-identical at any thread count,
 * shard split, or worker-process count. (An eager whole-fleet walk over
 * the same per-node streams is the lazy walk's test-local oracle in
 * `tests/test_fleet.cc`.)
 *
 * The fleet engine is a separate deterministic universe from the
 * classic engine: same physics, different stream keying, so its numbers
 * are statistically equivalent (`Fleet.StatisticallyEquivalentToClassicEngine`
 * in `tests/test_fleet.cc` holds every metric to a Welch z test) but
 * not bit-equal to the classic engine's. The paper-figure benches keep
 * the classic engine; the fleet benches (`bench/fleet_scale`) use this
 * one.
 */

#ifndef RELAXFAULT_FLEET_FLEET_SIM_H
#define RELAXFAULT_FLEET_FLEET_SIM_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "faults/fault_model.h"
#include "sim/lifetime.h"

namespace relaxfault {

/**
 * The fleet engine's run options are the classic engine's. Kept as a
 * name only because the benchmark program (perfbench/) spells it; it
 * goes with the next benchmark change.
 */
using FleetTrialOptions = TrialRunOptions;

/**
 * Skip-ahead node sampler: per-node draw order is (acceleration class,
 * aggregate arrival count, then per-fault attribution). Statistically
 * identical to `NodeFaultSampler::sampleNode` (Poisson superposition:
 * independent per-DIMM Poissons == one total Poisson plus iid DIMM
 * attribution proportional to the per-DIMM means), but a fault-free
 * node costs ~2 uniforms and zero allocation.
 */
class FleetNodeSampler
{
  public:
    explicit FleetNodeSampler(const FaultModelConfig &config);

    /**
     * Sample one node's mission into @p sample, reusing its pooled
     * records (each arrival is filled by
     * `NodeFaultSampler::sampleFaultInto`). Returns the arrival count;
     * 0 means the node can be skipped entirely — @p sample's fault list
     * is empty and @p rng has consumed exactly the class and count
     * draws.
     */
    unsigned sampleNodeInto(NodeSample &sample, Rng &rng) const;

    /** P(a node draws zero faults); the expected skip rate. */
    double zeroFaultProbability() const;

    const NodeFaultSampler &inner() const { return inner_; }

    /** Hard cap on DIMMs/node with acceleration enabled (CDF size). */
    static constexpr unsigned kMaxAccelDimms = 12;

  private:
    NodeFaultSampler inner_;
    unsigned dimms_;
    /// Cumulative probability over acceleration classes c, where bit 0
    /// is the node flag and bit 1+d is DIMM d's flag. Empty when
    /// acceleration is disabled (class 0 is certain; no draw).
    std::vector<double> accelCdf_;
    /// Aggregate per-node arrival mean for each acceleration class.
    std::vector<double> classMean_;
};

/**
 * Monte Carlo engine over fleet-scale system lifetimes: the classic
 * engine with a lazy, per-node-keyed trial walk.
 */
class FleetSimulator : public LifetimeSimulator
{
  public:
    explicit FleetSimulator(const LifetimeConfig &config);

    /** Stream index of node @p node in trial @p trial. */
    uint64_t nodeStreamIndex(uint64_t trial, uint64_t node) const
    {
        return trial * config().nodesPerSystem + node;
    }

    const FleetNodeSampler &sampler() const { return sampler_; }

  protected:
    /**
     * Node n of trial t draws from `Rng::forkAt(seed, t * nodes + n)`
     * into one pooled `NodeSample`; nodes without arrivals are skipped
     * after ~2 uniforms, so a trial holds O(faulty nodes) state.
     */
    LifetimeMetrics runTrial(uint64_t trial,
                             const MechanismFactory &factory,
                             uint64_t seed, MetricRegistry *telemetry,
                             TrialAuditState *audit,
                             TraceSink *trace) const override;

  private:
    FleetNodeSampler sampler_;
};

} // namespace relaxfault

#endif // RELAXFAULT_FLEET_FLEET_SIM_H
