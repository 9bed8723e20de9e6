/**
 * @file
 * System-lifetime Monte Carlo (paper Sec. 4.1, Figs. 9, 12, 13, 14).
 *
 * Simulates a 16,384-node system over a 6-year mission. Faults arrive per
 * the refined fault model; each arrival is classified for DUE/SDC against
 * the faults already active in its rank; a repair mechanism (if any) then
 * attempts to remap the fault away; and a replacement policy decides
 * whether the DIMM is swapped:
 *
 *  - ReplA: replace after a DUE caused by a permanent fault;
 *  - ReplB: replace once a fault's corrected-error stream would exceed an
 *    error-count threshold within a service window (frequent-error
 *    replacement, as on Blue Waters).
 *
 * Replacing a DIMM clears its faults (and releases the repair resources
 * they held). The replacement DIMM inherits the slot's rate class — if
 * the node runs hot, its replacement runs hot too.
 */

#ifndef RELAXFAULT_SIM_LIFETIME_H
#define RELAXFAULT_SIM_LIFETIME_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "faults/fault_model.h"
#include "repair/degradation.h"
#include "repair/repair_mechanism.h"
#include "sim/reliability.h"

namespace relaxfault {

class Counter;
class Log2Histogram;
class MetricRegistry;
class PageRetirement;
class StatsPublisher;
class Tracer;
class TraceSink;
struct TrialAuditState;

/** When DIMMs are replaced. */
enum class ReplacePolicy : uint8_t
{
    None,             ///< Never replace (pure fault accounting).
    AfterDue,         ///< ReplA: after a permanent-fault DUE.
    OnFrequentErrors, ///< ReplB: corrected-error threshold in a window.
};

/** Parameters of one lifetime experiment. */
struct LifetimeConfig
{
    FaultModelConfig faultModel;
    unsigned nodesPerSystem = 16384;
    ReliabilityParams reliability;
    ReplacePolicy policy = ReplacePolicy::AfterDue;

    /**
     * ReplB: an unrepaired fault whose error rate reaches this many
     * corrected errors per hour trips the threshold. Hard-permanent
     * faults always trip it; hard-intermittent faults trip it when
     * their activation rate is at least this.
     */
    double replBActivationThresholdPerHour = 1.0 / 100.0;

    /**
     * When a *new* fault overlaps an existing one but is itself
     * repairable, the DUE only manifests if an access to the overlap
     * wins the race against detection + repair (scrubbing and CE
     * monitoring usually notice a fault through its non-overlapping,
     * correctable errors first). This is the probability the DUE
     * manifests before repair; it scales the benefit repair can have on
     * the DUE rate and is calibrated against the paper's 52%/37%
     * reductions.
     */
    double dueBeforeRepairProb = 0.5;

    /**
     * What happens when the repair mechanism cannot cover a fault
     * (budget exhausted, or the region exceeds any budget). The
     * default, CountDue, reproduces the paper's evaluation exactly: the
     * fault stays unrepaired and is accounted for through the normal
     * DUE/SDC classification. RetirePages falls back to OS page
     * retirement; FailStop takes the node down on first exhaustion.
     * Only the default leaves every original metric untouched.
     */
    DegradationPolicy degradation = DegradationPolicy::CountDue;
    /** OS frame size for the RetirePages fallback. */
    uint64_t retirePageBytes = 4096;
    /** Per-node retirement-capacity cap for the RetirePages fallback. */
    uint64_t retireMaxBytes = 4ull * 1024 * 1024;

    /**
     * Registered address-mapping scheme (see makeAddressMap) used
     * wherever the lifetime pipeline decodes physical addresses to DRAM
     * coordinates — today the RetirePages fallback engine. The default
     * is the paper's Fig. 7a scheme; any other value changes results
     * and must be folded into campaign fingerprints.
     */
    std::string mapping = "fig7a";
};

/** Aggregate outcomes of one simulated system lifetime. */
struct LifetimeMetrics
{
    double faultyNodes = 0;          ///< Nodes with >=1 permanent fault.
    double multiDeviceFaultDimms = 0;///< DIMMs with concurrent faults on
                                     ///< >=2 devices.
    double dues = 0;
    double sdcs = 0;                 ///< Expected count (fractional).
    double replacements = 0;
    double repairedFaults = 0;
    double permanentFaults = 0;
    double fullyRepairedNodes = 0;   ///< Faulty nodes with every
                                     ///< permanent fault repaired.

    // Degradation accounting (all zero under the default CountDue
    // policy with a mechanism that never exhausts its budget; none of
    // these feed the original metrics above).
    double budgetExhausted = 0;      ///< Repair attempts that failed.
    double degradedToRetirement = 0; ///< Faults absorbed by retirement.
    double degradedDues = 0;         ///< Faults left to DUE accounting.
    double failStops = 0;            ///< Nodes taken down by FailStop.

    LifetimeMetrics &operator+=(const LifetimeMetrics &other);
    LifetimeMetrics &operator/=(double divisor);
};

/** Mean and 95% CI of each metric over many trials. */
struct LifetimeSummary
{
    RunningStat faultyNodes;
    RunningStat multiDeviceFaultDimms;
    RunningStat dues;
    RunningStat sdcs;
    RunningStat replacements;
    RunningStat repairedFaults;
    RunningStat permanentFaults;
    RunningStat fullyRepairedNodes;
    RunningStat budgetExhausted;
    RunningStat degradedToRetirement;
    RunningStat degradedDues;
    RunningStat failStops;

    /** Accumulate one trial's metrics. */
    void addTrial(const LifetimeMetrics &metrics);

    /** Fold another summary in (Chan's merge, metric by metric). */
    void merge(const LifetimeSummary &other);

    /**
     * FNV-1a over the bit patterns of every statistic (count, mean,
     * variance, sum, min, max of each metric), as 16 hex digits. Equal
     * digests mean bit-identical summaries; the result pins
     * (`tests/result_pins.txt`) and `chaos_soak` compare these.
     */
    std::string digest() const;
};

/** Invariant-audit cadence during lifetime trials. */
struct AuditOptions
{
    /**
     * Walk the mechanism's structural invariants during simulation.
     * The auditor is read-only and consumes no RNG, so enabling it
     * cannot change any simulation result — outcomes land exclusively
     * in the `audit.checks` / `audit.violations` telemetry counters.
     */
    bool enabled = false;

    /** Audit after every Nth permanent fault of a node (>= 1). */
    unsigned everyFaults = 1;
};

/** Execution knobs of a `runTrials` call; never affects its results. */
struct TrialRunOptions
{
    ParallelConfig parallel;

    /** Report trials/sec and ETA through `inform` while running. */
    bool progress = false;

    /** Label prefixed to progress lines. */
    std::string progressLabel = "trials";

    /**
     * Optional telemetry sink. Per-trial outcomes land in `sim.*`
     * counters (SDC expectations as integer micro-units, so totals stay
     * bit-identical at any thread count) and the `sim.trial_us`
     * latency histogram; each trial's mechanism publishes its occupancy
     * histograms on completion. Null disables all of it.
     */
    MetricRegistry *metrics = nullptr;

    /** Runtime invariant auditing (needs `metrics` for its counters). */
    AuditOptions audit;

    /**
     * Optional causal event tracer. Each worker leases a bounded event
     * shard and records fault arrivals, repair decisions, degradation
     * actions, and DUE/SDC verdicts with trial ids and causal parents.
     * Null is the disabled path: one predictable branch per would-be
     * event, and results stay bit-identical to an untraced run (the
     * tracer never consumes RNG). See `src/tracing/tracer.h`.
     */
    Tracer *tracer = nullptr;

    /** Unit id (Tracer::registerUnit) trace events are attributed to. */
    uint16_t traceUnit = 0;

    /**
     * Optional live-stats sink (`src/telemetry/stats_plane.h`). The
     * trial loop calls `trialStarted`/`trialFinished` around each trial
     * — relaxed atomic adds into a shared-memory slot observers sample
     * without coordination. Null is the disabled path (one predictable
     * branch per trial); publishing consumes no RNG, so results stay
     * bit-identical with the plane on or off.
     */
    StatsPublisher *stats = nullptr;
};

/**
 * Hoisted handles to the `sim.*` / `repair.*` trial counters, with the
 * per-trial fold of the trial loop (`runTrialRange`). Metric creation
 * takes the registry mutex, so the handles are resolved once up front;
 * the folds themselves are lock-free integer adds (SDC expectations
 * fold as micro-units), which keeps merged totals bit-identical no
 * matter which thread — or which worker process — ran which trial. A
 * null registry disables everything (all folds are no-ops).
 */
class TrialTelemetry
{
  public:
    TrialTelemetry(MetricRegistry *registry, bool audit_counters);

    /** Fold one trial's outcome into the counters (and count it). */
    void foldTrial(const LifetimeMetrics &metrics);

    /** Fold one trial's invariant-audit outcome. */
    void foldAudit(uint64_t checks, uint64_t violations);

    /** The `sim.trial_us` latency histogram (null when disabled). */
    Log2Histogram *trialUs() const { return trialUs_; }

    bool enabled() const { return trials_ != nullptr; }

  private:
    Counter *trials_ = nullptr;
    Counter *faultyNodes_ = nullptr;
    Counter *multiDev_ = nullptr;
    Counter *dues_ = nullptr;
    Counter *sdcMicros_ = nullptr;
    Counter *replacements_ = nullptr;
    Counter *repaired_ = nullptr;
    Counter *permanent_ = nullptr;
    Counter *fullyRepaired_ = nullptr;
    Counter *budgetExhausted_ = nullptr;
    Counter *degradedRetire_ = nullptr;
    Counter *degradedDues_ = nullptr;
    Counter *failStops_ = nullptr;
    Counter *auditChecks_ = nullptr;
    Counter *auditViolations_ = nullptr;
    Log2Histogram *trialUs_ = nullptr;
};

/**
 * Monte Carlo engine over whole-system lifetimes.
 *
 * `runTrialRange` is the one trial loop: it owns threading, progress,
 * live stats, the trace lease, auditing and the telemetry fold, and
 * hands each global trial index to the `runTrial` hook. The hook is the
 * one decision the engines differ in — how trial t's nodes get their
 * random streams. This class walks every node off one per-trial stream
 * `Rng::forkAt(seed, t)`; the fleet engine (`src/fleet/fleet_sim.h`)
 * overrides the hook with per-node streams.
 */
class LifetimeSimulator
{
  public:
    /** Factory for one node's repair mechanism; null => no repair. */
    using MechanismFactory =
        std::function<std::unique_ptr<RepairMechanism>()>;

    explicit LifetimeSimulator(const LifetimeConfig &config);
    virtual ~LifetimeSimulator() = default;
    LifetimeSimulator(const LifetimeSimulator &) = default;
    LifetimeSimulator &operator=(const LifetimeSimulator &) = default;
    LifetimeSimulator(LifetimeSimulator &&) = default;
    LifetimeSimulator &operator=(LifetimeSimulator &&) = default;

    /**
     * Simulate one full system lifetime, every node drawn in turn from
     * @p rng (this class's per-trial walk). A non-null @p metrics
     * receives the trial mechanism's end-of-trial occupancy telemetry;
     * a non-null @p audit accumulates invariant-audit outcomes.
     */
    LifetimeMetrics runSystemTrial(const MechanismFactory &factory,
                                   Rng &rng,
                                   MetricRegistry *metrics = nullptr,
                                   TrialAuditState *audit = nullptr,
                                   TraceSink *trace = nullptr) const;

    /**
     * Run @p trials independent lifetimes in parallel and aggregate.
     *
     * Trial t's random streams depend only on (seed, t), so every
     * per-trial result — and therefore the summary — is bit-identical
     * regardless of thread count, chunking, or scheduling; per-trial
     * metrics are folded in trial order. The factory is invoked
     * concurrently and must return mechanisms that share no mutable
     * state.
     */
    LifetimeSummary runTrials(unsigned trials,
                              const MechanismFactory &factory,
                              uint64_t seed,
                              const TrialRunOptions &options = {}) const;

    /**
     * Shard-granular entry point: run the @p count trials starting at
     * global trial index @p first_trial and return their metrics in
     * trial order. Trial t's streams still depend only on (seed, t), so
     * folding the ranges [0,a), [a,b), ... [z,trials) back together in
     * order reproduces `runTrials(trials, ...)` bit-for-bit at any
     * split — the invariant the campaign checkpoint layer and the
     * worker pool are built on. `runTrials` itself is the single-range
     * [0, trials) case.
     */
    std::vector<LifetimeMetrics>
    runTrialRange(uint64_t first_trial, unsigned count,
                  const MechanismFactory &factory, uint64_t seed,
                  const TrialRunOptions &options = {}) const;

    const LifetimeConfig &config() const { return config_; }

    /**
     * Process one node's full mission; accumulates into @p metrics and
     * consumes @p rng only when the node has faults. Public because it
     * is the shared node pipeline of both engines' trial hooks (and of
     * test-local reference walks): identical physics whichever stream
     * feeds it.
     */
    void simulateNode(const NodeSample &node, RepairMechanism *mechanism,
                      PageRetirement *retirement,
                      LifetimeMetrics &metrics, Rng &rng,
                      MetricRegistry *telemetry, TrialAuditState *audit,
                      TraceSink *trace) const;

  protected:
    /** One trial's repair mechanism and its RetirePages fallback. */
    struct TrialRepair
    {
        std::unique_ptr<RepairMechanism> mechanism;  ///< Null: no repair.
        /// Reset per node (its budget is a per-node capacity cap); null
        /// unless the policy is RetirePages and there is a mechanism.
        std::unique_ptr<PageRetirement> retirement;
    };

    /** The trial prologue both engines share. */
    TrialRepair makeTrialRepair(const MechanismFactory &factory) const;

    /**
     * Simulate global trial @p trial of the run seeded @p seed. Called
     * concurrently by `runTrialRange`; an override must keep the
     * result a pure function of (seed, trial) and consume no state
     * shared across trials.
     */
    virtual LifetimeMetrics runTrial(uint64_t trial,
                                     const MechanismFactory &factory,
                                     uint64_t seed,
                                     MetricRegistry *telemetry,
                                     TrialAuditState *audit,
                                     TraceSink *trace) const;

  private:
    LifetimeConfig config_;
    ReliabilityClassifier classifier_;
};

} // namespace relaxfault

#endif // RELAXFAULT_SIM_LIFETIME_H
