#include "sim/lifetime.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <vector>

#include "audit/invariants.h"
#include "common/log.h"
#include "dram/address_map.h"
#include "repair/page_retirement.h"
#include "telemetry/metrics.h"
#include "telemetry/stats_plane.h"
#include "tracing/trace_payloads.h"
#include "tracing/tracer.h"

namespace relaxfault {

/**
 * Per-trial invariant-audit accumulator. The auditor itself is shared
 * and stateless; the counters are folded into `audit.*` telemetry by
 * the trial loop, never into LifetimeMetrics — auditing cannot change
 * simulation results.
 */
struct TrialAuditState
{
    const InvariantAuditor *auditor = nullptr;
    unsigned everyFaults = 1;   ///< Audit cadence in permanent faults.
    uint64_t sinceLast = 0;
    uint64_t checks = 0;
    uint64_t violations = 0;
};

void
LifetimeSummary::addTrial(const LifetimeMetrics &metrics)
{
    for (const LifetimeField &field : kLifetimeFields)
        (this->*field.summary).add(metrics.*field.metric);
}

std::string
LifetimeSummary::digest() const
{
    uint64_t hash = 0xcbf29ce484222325ull;
    const auto mix = [&hash](uint64_t word) {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (word >> (8 * byte)) & 0xff;
            hash *= 0x100000001b3ull;
        }
    };
    for (const LifetimeField &field : kLifetimeFields) {
        const RunningStat &stat = this->*field.summary;
        mix(stat.count());
        for (const double value : {stat.mean(), stat.variance(),
                                   stat.sum(), stat.min(), stat.max()})
            mix(std::bit_cast<uint64_t>(value));
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(hash));
    return hex;
}

TrialTelemetry::TrialTelemetry(MetricRegistry *registry,
                               bool audit_counters)
{
    if (registry == nullptr)
        return;
    trials_ = &registry->counter("sim.trials");
    for (size_t i = 0; i < kLifetimeFieldCount; ++i)
        fields_[i] = &registry->counter(kLifetimeFields[i].counter);
    if (audit_counters) {
        auditChecks_ = &registry->counter("audit.checks");
        auditViolations_ = &registry->counter("audit.violations");
    }
    trialUs_ = &registry->histogram("sim.trial_us");
}

void
TrialTelemetry::foldTrial(const LifetimeMetrics &m)
{
    if (trials_ == nullptr)
        return;
    trials_->add(1);
    for (size_t i = 0; i < kLifetimeFieldCount; ++i) {
        const LifetimeField &field = kLifetimeFields[i];
        fields_[i]->add(static_cast<uint64_t>(
            std::llround(m.*field.metric * field.counterScale)));
    }
}

void
TrialTelemetry::foldAudit(uint64_t checks, uint64_t violations)
{
    if (auditChecks_ == nullptr)
        return;
    auditChecks_->add(checks);
    auditViolations_->add(violations);
}

namespace {

/** A live permanent fault's share of one DIMM, as simulateNode tracks it. */
struct LivePart
{
    unsigned device;
    const FaultRegion *region;
    size_t faultIndex;
};

/**
 * simulateNode's per-node state, one per thread and reset by size at
 * each faulty node, so its buffers outlive the node (as randomRows'
 * row scratch does for sampling).
 */
struct NodeScratch
{
    std::vector<bool> replacedOnce;              ///< Per DIMM.
    std::vector<std::vector<LivePart>> active;   ///< Per DIMM.
    std::vector<uint8_t> covered;                ///< Per fault.
    std::vector<bool> multiDevCounted;           ///< Per DIMM.
    std::vector<ActiveFaultPart> others;  ///< One part's classify input.
    std::vector<unsigned> dueDimms;
    std::vector<unsigned> faultDimms;
    std::vector<bool> mechCovered;        ///< The audit's per-fault input.

    void reset(unsigned dimms, size_t faults, uint8_t uncovered)
    {
        replacedOnce.assign(dimms, false);
        active.resize(dimms);
        for (auto &parts : active)
            parts.clear();
        covered.assign(faults, uncovered);
        multiDevCounted.assign(dimms, false);
    }
};

thread_local NodeScratch nodeScratch;

} // namespace

LifetimeSimulator::LifetimeSimulator(const LifetimeConfig &config)
    : config_(config),
      classifier_(config.faultModel.geometry, config.reliability)
{
}

void
LifetimeSimulator::simulateNode(const NodeSample &node,
                                RepairMechanism *mechanism,
                                PageRetirement *retirement,
                                LifetimeMetrics &metrics, Rng &rng,
                                MetricRegistry *telemetry,
                                TrialAuditState *audit,
                                TraceSink *trace) const
{
    if (node.faults.empty())
        return;

    // How each permanent fault is covered. Retired faults stop being
    // accessed (like repaired ones) but hold no mechanism lines.
    constexpr uint8_t kUncovered = 0;
    constexpr uint8_t kByMechanism = 1;
    constexpr uint8_t kByRetirement = 2;

    NodeScratch &scratch = nodeScratch;
    scratch.reset(config_.faultModel.geometry.dimmsPerNode(),
                  node.faults.size(), kUncovered);
    // A replaced DIMM is a fresh, nominal-quality module: the slot's
    // pre-sampled accelerated fault stream is thinned back to the
    // nominal rate after a replacement (maintenance that replaces a bad
    // module typically also addresses the slot: reseating, cooling).
    std::vector<bool> &replacedOnce = scratch.replacedOnce;
    std::vector<std::vector<LivePart>> &active = scratch.active;
    std::vector<uint8_t> &covered = scratch.covered;
    std::vector<bool> &multiDevCounted = scratch.multiDevCounted;
    double thin_keep_prob = 1.0;
    if (config_.faultModel.accelerationEnabled) {
        // Relative factors: accelerated stream runs at A/fitScale of the
        // node's base mean; nominal replacements run at adjustmentFactor.
        thin_keep_prob = config_.faultModel.adjustmentFactor() *
                         config_.faultModel.fitScale /
                         config_.faultModel.accelerationFactor;
    }

    bool any_permanent = false;
    bool all_repaired = true;
    bool failed_stop = false;
    if (mechanism != nullptr)
        mechanism->reset();

    // Degradation after a failed repair attempt. Only the non-default
    // policies can alter coverage (and thereby results); CountDue just
    // counts, so the default reproduces the seed behavior exactly.
    auto degrade = [&](const FaultRecord &fault) -> uint8_t {
        metrics.budgetExhausted += 1.0;
        switch (degradeUncovered(config_.degradation, fault, retirement,
                                 failed_stop, trace)) {
        case DegradationOutcome::Retired:
            metrics.degradedToRetirement += 1.0;
            return kByRetirement;
        case DegradationOutcome::CountedDue:
            metrics.degradedDues += 1.0;
            break;
        case DegradationOutcome::FailStopped:
            failed_stop = true;
            metrics.failStops += 1.0;
            break;
        case DegradationOutcome::AlreadyStopped:
            break;
        }
        return kUncovered;
    };

    // One audit pass over the mechanism's structures against the faults
    // it currently covers: mechanism-covered AND still live (a replaced
    // DIMM's faults left the mechanism with the replacement). Read-only
    // and RNG-free by construction.
    auto runAudit = [&]() {
        if (audit == nullptr || audit->auditor == nullptr ||
            mechanism == nullptr)
            return;
        std::vector<bool> &mech_covered = scratch.mechCovered;
        mech_covered.assign(node.faults.size(), false);
        for (const auto &parts : active) {
            for (const auto &part : parts) {
                if (covered[part.faultIndex] == kByMechanism)
                    mech_covered[part.faultIndex] = true;
            }
        }
        const AuditReport report = audit->auditor->auditMechanism(
            *mechanism, node.faults, mech_covered);
        audit->checks += report.checks;
        audit->violations += report.violations;
    };

    auto replaceDimm = [&](unsigned dimm) {
        metrics.replacements += 1.0;
        replacedOnce[dimm] = true;
        active[dimm].clear();
        uint64_t replace_id = 0;
        if (trace != nullptr)
            replace_id = trace->emit(TraceKind::Replacement, 0, dimm);
        // Rebuilt repair decisions below become children of the
        // replacement event, not of the fault that triggered it.
        const TraceParentScope replace_scope(trace, replace_id);
        if (mechanism == nullptr)
            return;
        // The replaced DIMM's repair lines are released; rebuild the
        // mechanism state from the repaired faults still in service.
        mechanism->reset();
        for (size_t idx = 0; idx < node.faults.size(); ++idx) {
            if (covered[idx] != kByMechanism)
                continue;
            bool still_live = false;
            for (const auto &parts : active) {
                for (const auto &part : parts) {
                    if (part.faultIndex == idx) {
                        still_live = true;
                        break;
                    }
                }
            }
            if (!still_live)
                continue;
            if (!mechanism->tracedRepair(node.faults[idx], trace))
                covered[idx] = degrade(node.faults[idx]);
        }
    };

    for (size_t idx = 0; idx < node.faults.size(); ++idx) {
        const FaultRecord &fault = node.faults[idx];

        // 0. Thin the stream of module-accelerated DIMMs that have been
        //    replaced by nominal-rate modules.
        if (thin_keep_prob < 1.0) {
            bool thinned_away = false;
            for (const auto &part : fault.parts) {
                if (replacedOnce[part.dimm] &&
                    (node.acceleratedDimm[part.dimm] ||
                     node.acceleratedNode) &&
                    !rng.bernoulli(thin_keep_prob)) {
                    thinned_away = true;
                    break;
                }
            }
            if (thinned_away)
                continue;
        }

        // The fault's arrival event roots this iteration's causal
        // chain: classification verdicts, the repair decision, and any
        // degradation or replacement below become its children.
        uint64_t fault_id = 0;
        if (trace != nullptr) {
            trace->setSimTime(fault.timeHours);
            fault_id = trace->emit(TraceKind::FaultArrival,
                                   kFaultSampled,
                                   static_cast<uint64_t>(fault.mode),
                                   traceFaultPermanence(fault),
                                   traceFaultLocation(fault));
        }
        const TraceParentScope fault_scope(trace, fault_id);

        // 1. Classify the new fault against what is already broken and
        //    unrepaired in each rank it touches. Counting is deferred
        //    until the repair outcome is known (step 2a).
        bool due = false;
        double sdc_expectation = 0.0;
        std::vector<unsigned> &due_dimms = scratch.dueDimms;
        due_dimms.clear();
        for (const auto &part : fault.parts) {
            std::vector<ActiveFaultPart> &others = scratch.others;
            others.clear();
            for (const auto &live : active[part.dimm]) {
                if (covered[live.faultIndex] != kUncovered)
                    continue;
                others.push_back({live.device, live.region});
            }
            const ErrorClassification outcome =
                classifier_.classify(part.device, part.region, others);
            sdc_expectation += outcome.sdcExpectation;
            if (outcome.due) {
                due = true;
                due_dimms.push_back(part.dimm);
            }
        }

        // 2. Permanent faults persist: try to repair, then track them.
        bool trip_threshold = false;
        if (fault.permanent()) {
            any_permanent = true;
            metrics.permanentFaults += 1.0;

            const bool fixed = mechanism != nullptr &&
                               mechanism->tracedRepair(fault, trace);
            if (fixed) {
                covered[idx] = kByMechanism;
                metrics.repairedFaults += 1.0;
            } else {
                if (mechanism != nullptr)
                    covered[idx] = degrade(fault);
                if (covered[idx] == kUncovered)
                    all_repaired = false;
            }

            for (const auto &part : fault.parts) {
                if (!multiDevCounted[part.dimm]) {
                    for (const auto &live : active[part.dimm]) {
                        if (live.device != part.device) {
                            multiDevCounted[part.dimm] = true;
                            metrics.multiDeviceFaultDimms += 1.0;
                            break;
                        }
                    }
                }
                active[part.dimm].push_back(
                    {part.device, &part.region, idx});
            }

            if (covered[idx] == kUncovered &&
                config_.policy == ReplacePolicy::OnFrequentErrors) {
                // An unrepaired permanent fault keeps producing corrected
                // errors; frequent-enough streams trip the threshold.
                // (A retired fault's frames are unmapped: no stream.)
                trip_threshold = fault.hardPermanent ||
                    fault.activationRatePerHour >=
                        config_.replBActivationThresholdPerHour;
            }

            // Cadenced invariant audit after the repair machinery
            // touched its structures for this fault.
            if (audit != nullptr &&
                ++audit->sinceLast >= audit->everyFaults) {
                audit->sinceLast = 0;
                runAudit();
            }
        }

        // 2a. Error accounting: a repaired new fault only manifests a
        //     DUE/SDC if an overlapping access beats detection+repair.
        //     SDCs are expectations, so they scale by the probability;
        //     DUEs are events, so the race is sampled.
        const bool repaired_new =
            fault.permanent() && covered[idx] != kUncovered;
        if (repaired_new) {
            sdc_expectation *= config_.dueBeforeRepairProb;
            if (due && !rng.bernoulli(config_.dueBeforeRepairProb))
                due = false;
        }
        if (due) {
            metrics.dues += 1.0;
            if (trace != nullptr)
                trace->emit(TraceKind::Verdict, kVerdictDue, 0,
                            due_dimms.size());
        }
        metrics.sdcs += sdc_expectation;
        if (trace != nullptr && sdc_expectation > 0.0)
            trace->emit(TraceKind::Verdict, kVerdictSdc,
                        static_cast<uint64_t>(
                            std::llround(sdc_expectation * 1e6)));

        // 3. Replacement policy.
        if (config_.policy == ReplacePolicy::AfterDue && due &&
            fault.permanent()) {
            std::sort(due_dimms.begin(), due_dimms.end());
            due_dimms.erase(
                std::unique(due_dimms.begin(), due_dimms.end()),
                due_dimms.end());
            for (const auto dimm : due_dimms)
                replaceDimm(dimm);
        } else if (trip_threshold) {
            std::vector<unsigned> &fault_dimms = scratch.faultDimms;
            fault_dimms.clear();
            for (const auto &part : fault.parts)
                fault_dimms.push_back(part.dimm);
            std::sort(fault_dimms.begin(), fault_dimms.end());
            fault_dimms.erase(
                std::unique(fault_dimms.begin(), fault_dimms.end()),
                fault_dimms.end());
            for (const auto dimm : fault_dimms)
                replaceDimm(dimm);
        }

        // FailStop: the node is down; no further faults arrive at a
        // running system. (Only reachable under the FailStop policy.)
        if (failed_stop)
            break;
    }

    if (any_permanent) {
        metrics.faultyNodes += 1.0;
        if (all_repaired)
            metrics.fullyRepairedNodes += 1.0;
        // One occupancy sample per faulty node: the distribution of
        // repair-resource usage over nodes that actually needed repair.
        if (mechanism != nullptr && telemetry != nullptr)
            mechanism->publishTelemetry(*telemetry);
        // End-of-node audit: the final resting state of the repair
        // structures must satisfy every invariant too.
        runAudit();
    }
}

LifetimeSimulator::TrialRepair
LifetimeSimulator::makeTrialRepair(const MechanismFactory &factory) const
{
    TrialRepair repair;
    if (factory)
        repair.mechanism = factory();
    // No-repair rows degrade nothing, so no engine is built without a
    // mechanism.
    if (repair.mechanism != nullptr &&
        config_.degradation == DegradationPolicy::RetirePages) {
        repair.retirement = std::make_unique<PageRetirement>(
            makeAddressMap(config_.mapping, config_.faultModel.geometry),
            config_.retirePageBytes, config_.retireMaxBytes);
    }
    return repair;
}

LifetimeMetrics
LifetimeSimulator::runSystemTrial(const MechanismFactory &factory,
                                  Rng &rng,
                                  MetricRegistry *telemetry,
                                  TrialAuditState *audit,
                                  TraceSink *trace) const
{
    NodeFaultSampler sampler(config_.faultModel);
    const TrialRepair repair = makeTrialRepair(factory);

    LifetimeMetrics metrics;
    NodeSample node;
    for (unsigned n = 0; n < config_.nodesPerSystem; ++n) {
        {
            const PhaseScope scope(Phase::NodeSample);
            sampler.sampleNodeInto(node, rng);
        }
        if (repair.retirement != nullptr)
            repair.retirement->reset();
        if (trace != nullptr)
            trace->setNode(n);
        const PhaseScope scope(Phase::NodeSim);
        simulateNode(node, repair.mechanism.get(),
                     repair.retirement.get(), metrics, rng, telemetry,
                     audit, trace);
    }
    return metrics;
}

LifetimeMetrics
LifetimeSimulator::runTrial(uint64_t trial,
                            const MechanismFactory &factory,
                            uint64_t seed, MetricRegistry *telemetry,
                            TrialAuditState *audit,
                            TraceSink *trace) const
{
    Rng trial_rng = Rng::forkAt(seed, trial);
    return runSystemTrial(factory, trial_rng, telemetry, audit, trace);
}

LifetimeSummary
LifetimeSimulator::runTrials(unsigned trials,
                             const MechanismFactory &factory,
                             uint64_t seed,
                             const TrialRunOptions &options) const
{
    const std::vector<LifetimeMetrics> per_trial =
        runTrialRange(0, trials, factory, seed, options);
    LifetimeSummary summary;
    for (const LifetimeMetrics &m : per_trial)
        summary.addTrial(m);
    return summary;
}

std::vector<LifetimeMetrics>
LifetimeSimulator::runTrialRange(uint64_t first_trial, unsigned count,
                                 const MechanismFactory &factory,
                                 uint64_t seed,
                                 const TrialRunOptions &options) const
{
    // Each trial owns slot t of `per_trial`, and `runTrial` keys its
    // streams on the trial's global index first_trial + t alone: no
    // cross-trial state, so any thread may run any trial, and no
    // result depends on which range, shard, or thread executed it.
    std::vector<LifetimeMetrics> per_trial(count);
    ProgressMeter meter(options.progressLabel, count, options.progress);
    StatsPublisher *const stats = options.stats;

    // Hoisted counter handles; SDC expectations fold as integer
    // micro-units so the merged counters are bit-identical regardless
    // of which thread ran which trial.
    MetricRegistry *const telemetry = options.metrics;
    TrialTelemetry fold(telemetry, options.audit.enabled);
    Log2Histogram *const h_trial_us = fold.trialUs();

    // One shared read-only auditor; per-trial accumulators are local to
    // the trial, so any thread may run any trial.
    const InvariantAuditor auditor;

    parallelFor(
        count,
        [&](size_t begin, size_t end) {
            // One shard lease per chunk: the ring is single-writer for
            // the chunk's lifetime, then returns to the pool. A null
            // tracer yields a null sink — the fully disabled path.
            const TraceShardLease trace_lease(options.tracer);
            TraceSink chunk_sink(options.tracer, trace_lease.shard(),
                                 options.traceUnit);
            TraceSink *const sink =
                chunk_sink.enabled() ? &chunk_sink : nullptr;
            // Per-trial latencies stage in a chunk-local batch and
            // publish through the positional recordBatch fill — exact
            // integer adds either way, so the merged histogram stays
            // bit-identical to per-trial recording.
            HistogramBatch trial_us_batch(h_trial_us);
            for (size_t t = begin; t < end; ++t) {
                if (stats != nullptr)
                    stats->trialStarted();
                if (sink != nullptr)
                    sink->beginTrial(first_trial + t);
                TrialAuditState audit_state;
                TrialAuditState *audit_ptr = nullptr;
                if (options.audit.enabled && telemetry != nullptr) {
                    audit_state.auditor = &auditor;
                    audit_state.everyFaults =
                        std::max(1u, options.audit.everyFaults);
                    audit_ptr = &audit_state;
                }
                {
                    // The one Trial scope of both engines: profiler
                    // frame, trace span and `sim.trial_us` sample.
                    const PhaseScope trial_scope(Phase::Trial, sink,
                                                 &trial_us_batch);
                    per_trial[t] = runTrial(first_trial + t, factory,
                                            seed, telemetry, audit_ptr,
                                            sink);
                }
                fold.foldTrial(per_trial[t]);
                if (audit_ptr != nullptr)
                    fold.foldAudit(audit_state.checks,
                                   audit_state.violations);
                if (stats != nullptr)
                    stats->trialFinished();
                meter.tick();
            }
        },
        options.parallel);
    meter.finish();
    return per_trial;
}

} // namespace relaxfault
