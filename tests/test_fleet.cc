/**
 * @file
 * Determinism and crash-recovery tests for the fleet-scale engine.
 *
 * The load-bearing invariants, all checked with exact double equality:
 *
 *  - The engine's lazy (O(faulty) skip-ahead) walk and a test-local
 *    eager (whole-fleet) reference walk over the same per-node streams
 *    produce bit-identical `LifetimeSummary` and telemetry — at 16,384
 *    nodes per system and at multiple thread counts.
 *  - Folding `runTrialRange` splits back together reproduces
 *    `runTrials` bit-for-bit — the shard invariance the campaign runner
 *    and the worker pool build on; in-process `CampaignRunner` shards
 *    match too, resumed or not.
 *  - The shared trial loop's instruments (auditor, tracer) reach the
 *    fleet engine without changing its results.
 *  - The multi-process worker pool (forked workers claiming shards
 *    through the stats plane) matches the in-process run at any worker count, on
 *    both the fleet and the classic engine, including after a worker
 *    is genuinely SIGKILLed holding a shard lease and the run is
 *    resumed from the surviving worker checkpoints.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/campaign.h"
#include "common/fs.h"
#include "common/parallel.h"
#include "common/process.h"
#include "common/signal_guard.h"
#include "fleet/fleet_sim.h"
#include "repair/relaxfault_repair.h"
#include "telemetry/metrics.h"
#include "tracing/tracer.h"

namespace relaxfault {
namespace {

LifetimeConfig
fleetConfig(unsigned nodes, double fit_scale = 1.0)
{
    LifetimeConfig config;
    config.nodesPerSystem = nodes;
    config.faultModel.fitScale = fit_scale;
    config.policy = ReplacePolicy::AfterDue;
    return config;
}

FleetSimulator::MechanismFactory
relaxFactory(const LifetimeConfig &config)
{
    const DramGeometry geometry = config.faultModel.geometry;
    const CacheGeometry llc{8 * 1024 * 1024, 16, 64};
    return [geometry, llc] {
        return std::make_unique<RelaxFaultRepair>(
            geometry, llc, RepairBudget{4, 32768}, true);
    };
}

void
expectIdentical(const RunningStat &a, const RunningStat &b)
{
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.ci95(), b.ci95());
    EXPECT_EQ(a.variance(), b.variance());
    EXPECT_EQ(a.sum(), b.sum());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
}

void
expectIdentical(const LifetimeSummary &a, const LifetimeSummary &b)
{
    expectIdentical(a.faultyNodes, b.faultyNodes);
    expectIdentical(a.multiDeviceFaultDimms, b.multiDeviceFaultDimms);
    expectIdentical(a.dues, b.dues);
    expectIdentical(a.sdcs, b.sdcs);
    expectIdentical(a.replacements, b.replacements);
    expectIdentical(a.repairedFaults, b.repairedFaults);
    expectIdentical(a.permanentFaults, b.permanentFaults);
    expectIdentical(a.fullyRepairedNodes, b.fullyRepairedNodes);
    expectIdentical(a.budgetExhausted, b.budgetExhausted);
    expectIdentical(a.degradedToRetirement, b.degradedToRetirement);
    expectIdentical(a.degradedDues, b.degradedDues);
    expectIdentical(a.failStops, b.failStops);
}

/** Exact telemetry match, minus the wall-clock trial histogram. */
void
expectIdenticalTelemetry(const MetricsSnapshot &a,
                         const MetricsSnapshot &b)
{
    ASSERT_EQ(a.counters.size(), b.counters.size());
    for (size_t i = 0; i < a.counters.size(); ++i) {
        EXPECT_EQ(a.counters[i].first, b.counters[i].first);
        EXPECT_EQ(a.counters[i].second, b.counters[i].second)
            << "counter " << a.counters[i].first;
    }
    ASSERT_EQ(a.histograms.size(), b.histograms.size());
    for (size_t i = 0; i < a.histograms.size(); ++i) {
        EXPECT_EQ(a.histograms[i].first, b.histograms[i].first);
        if (a.histograms[i].first == "sim.trial_us")
            continue;
        const Log2HistogramSnapshot &ha = a.histograms[i].second;
        const Log2HistogramSnapshot &hb = b.histograms[i].second;
        EXPECT_EQ(ha.count, hb.count) << a.histograms[i].first;
        EXPECT_EQ(ha.sum, hb.sum) << a.histograms[i].first;
        for (size_t bkt = 0; bkt < ha.buckets.size(); ++bkt)
            EXPECT_EQ(ha.buckets[bkt], hb.buckets[bkt])
                << a.histograms[i].first << " bucket " << bkt;
    }
}

TrialRunOptions
fleetRun(unsigned threads, MetricRegistry *metrics = nullptr)
{
    TrialRunOptions options;
    options.parallel.threads = threads;
    options.metrics = metrics;
    return options;
}

/**
 * The eager reference walk: materialize a trial's whole fleet first —
 * node n sampled from the same per-node stream the engine uses — then
 * simulate it, folding telemetry like the trial loop does. O(fleet)
 * memory, and built only from the engine's public sampler and node
 * pipeline, so it checks the engine's lazy walk from outside.
 */
LifetimeSummary
eagerRun(const FleetSimulator &simulator, unsigned trials,
         const FleetSimulator::MechanismFactory &factory, uint64_t seed,
         unsigned threads, MetricRegistry *metrics = nullptr)
{
    const uint64_t nodes = simulator.config().nodesPerSystem;
    std::vector<LifetimeMetrics> per_trial(trials);
    TrialTelemetry fold(metrics, /*audit_counters=*/false);
    ParallelConfig parallel;
    parallel.threads = threads;
    parallelFor(
        trials,
        [&](size_t begin, size_t end) {
            for (size_t t = begin; t < end; ++t) {
                const std::unique_ptr<RepairMechanism> mechanism =
                    factory();
                std::vector<NodeSample> fleet(nodes);
                std::vector<Rng> streams;
                streams.reserve(nodes);
                for (uint64_t n = 0; n < nodes; ++n) {
                    streams.push_back(Rng::forkAt(
                        seed, simulator.nodeStreamIndex(t, n)));
                    simulator.sampler().sampleNodeInto(fleet[n],
                                                       streams.back());
                }
                for (uint64_t n = 0; n < nodes; ++n)
                    simulator.simulateNode(fleet[n], mechanism.get(),
                                           nullptr, per_trial[t],
                                           streams[n], metrics, nullptr,
                                           nullptr);
                fold.foldTrial(per_trial[t]);
            }
        },
        parallel);
    LifetimeSummary summary;
    for (const LifetimeMetrics &m : per_trial)
        summary.addTrial(m);
    return summary;
}

CampaignFingerprint
fleetFingerprint(uint64_t seed, uint64_t trials, unsigned shards)
{
    CampaignFingerprint fingerprint;
    fingerprint.campaign = "test_fleet";
    fingerprint.seed = seed;
    fingerprint.trials = trials;
    fingerprint.shards = shards;
    fingerprint.config = "fleet";
    return fingerprint;
}

std::string
tempBase(const std::string &name)
{
    return ::testing::TempDir() + "relaxfault_fleet_" + name + "_" +
           std::to_string(::getpid()) + ".ckpt";
}

void
removeWorkerLogs(const std::string &base)
{
    for (unsigned slot = 0; slot < CampaignRunner::kMaxWorkers;
         ++slot)
        std::remove(
            CampaignRunner::workerLogPath(base, slot).c_str());
}

// ---------------------------------------------------------------------
// Sampler distribution shape.

TEST(FleetSampler, ZeroFaultProbabilityIsTheCommonCase)
{
    // ~0.78 at nominal FIT: arrivals count transient faults too, so
    // the skip rate is lower than the permanent-faulty-node rate
    // suggests — but still the majority case the lazy path feeds on.
    const FleetNodeSampler nominal(fleetConfig(1).faultModel);
    EXPECT_GT(nominal.zeroFaultProbability(), 0.5);
    EXPECT_LT(nominal.zeroFaultProbability(), 1.0);
    // More FIT => fewer fault-free nodes.
    const FleetNodeSampler scaled(fleetConfig(1, 10.0).faultModel);
    EXPECT_LT(scaled.zeroFaultProbability(),
              nominal.zeroFaultProbability());
}

TEST(FleetSampler, ObservedSkipRateMatchesPrediction)
{
    const FaultModelConfig config = fleetConfig(1, 10.0).faultModel;
    const FleetNodeSampler sampler(config);
    constexpr unsigned kNodes = 200000;
    NodeSample sample;
    unsigned zero = 0;
    for (unsigned n = 0; n < kNodes; ++n) {
        Rng rng = Rng::forkAt(42, n);
        if (sampler.sampleNodeInto(sample, rng) == 0) {
            ++zero;
            EXPECT_TRUE(sample.faults.empty());
        }
    }
    const double observed = static_cast<double>(zero) / kNodes;
    // ~4 sigma band around the analytic zero-fault probability.
    const double p = sampler.zeroFaultProbability();
    const double sigma = std::sqrt(p * (1.0 - p) / kNodes);
    EXPECT_NEAR(observed, p, 4.0 * sigma);
}

// ---------------------------------------------------------------------
// Lazy engine == eager reference, bit for bit.

TEST(Fleet, LazyAndEagerBitIdenticalAt16kNodes)
{
    const LifetimeConfig config = fleetConfig(16384);
    const FleetSimulator simulator(config);
    const auto factory = relaxFactory(config);
    constexpr unsigned kTrials = 4;
    constexpr uint64_t kSeed = 1206;

    MetricRegistry lazy_metrics;
    const LifetimeSummary lazy = simulator.runTrials(
        kTrials, factory, kSeed,
        fleetRun(1, &lazy_metrics));
    ASSERT_GT(lazy.faultyNodes.mean(), 0.0);

    for (const unsigned threads : {1u, 4u}) {
        MetricRegistry eager_metrics;
        const LifetimeSummary eager = eagerRun(
            simulator, kTrials, factory, kSeed, threads, &eager_metrics);
        expectIdentical(lazy, eager);
        expectIdenticalTelemetry(lazy_metrics.snapshot(),
                                 eager_metrics.snapshot());

        MetricRegistry lazy_mt_metrics;
        const LifetimeSummary lazy_mt = simulator.runTrials(
            kTrials, factory, kSeed,
            fleetRun(threads, &lazy_mt_metrics));
        expectIdentical(lazy, lazy_mt);
        expectIdenticalTelemetry(lazy_metrics.snapshot(),
                                 lazy_mt_metrics.snapshot());
    }
}

TEST(Fleet, LazyAndEagerBitIdenticalWithAcceleratedFleet)
{
    // The accelerated-class CDF path (node and DIMM acceleration flags)
    // must skip-ahead identically too.
    LifetimeConfig config = fleetConfig(4096, 10.0);
    config.faultModel.accelerationEnabled = true;
    config.faultModel.accelerationFactor = 100.0;
    config.faultModel.acceleratedNodeFraction = 0.01;
    config.faultModel.acceleratedDimmFraction = 0.01;
    const FleetSimulator simulator(config);
    const auto factory = relaxFactory(config);

    const LifetimeSummary lazy =
        simulator.runTrials(6, factory, 77, fleetRun(2));
    const LifetimeSummary eager = eagerRun(simulator, 6, factory, 77, 2);
    ASSERT_GT(lazy.faultyNodes.mean(), 0.0);
    expectIdentical(lazy, eager);
}

TEST(Fleet, TrialRangeSplitsFoldBackToRunTrials)
{
    const LifetimeConfig config = fleetConfig(1024, 10.0);
    const FleetSimulator simulator(config);
    const auto factory = relaxFactory(config);
    constexpr unsigned kTrials = 9;
    constexpr uint64_t kSeed = 5;

    const LifetimeSummary straight = simulator.runTrials(
        kTrials, factory, kSeed, fleetRun(1));

    for (const unsigned shards : {1u, 2u, 4u, 9u}) {
        LifetimeSummary folded;
        for (unsigned shard = 0; shard < shards; ++shard) {
            const uint64_t first =
                CampaignRunner::shardFirstTrial(kTrials, shards, shard);
            const uint64_t end = CampaignRunner::shardFirstTrial(
                kTrials, shards, shard + 1);
            const std::vector<LifetimeMetrics> range =
                simulator.runTrialRange(
                    first, static_cast<unsigned>(end - first), factory,
                    kSeed, fleetRun(2));
            for (const LifetimeMetrics &m : range)
                folded.addTrial(m);
        }
        expectIdentical(straight, folded);
    }
}

// ---------------------------------------------------------------------
// In-process campaign shards: the runner the fig benches use.

TEST(FleetCampaign, InProcessShardsMatchRunTrials)
{
    SignalGuard::reset();
    const LifetimeConfig config = fleetConfig(1024, 10.0);
    const FleetSimulator simulator(config);
    const auto factory = relaxFactory(config);
    constexpr unsigned kTrials = 6;
    constexpr uint64_t kSeed = 17;

    MetricRegistry straight_metrics;
    const LifetimeSummary straight = simulator.runTrials(
        kTrials, factory, kSeed, fleetRun(2, &straight_metrics));
    ASSERT_GT(straight.faultyNodes.mean(), 0.0);

    for (const unsigned shards : {1u, 3u}) {
        CampaignOptions options;
        options.shards = shards;
        CampaignRunner runner(fleetFingerprint(kSeed, kTrials, shards),
                              options);
        MetricRegistry metrics;
        const CampaignResult result = runner.runUnit(
            "fleet", simulator, factory, kTrials, kSeed,
            fleetRun(2, &metrics));
        ASSERT_FALSE(result.interrupted);
        EXPECT_EQ(result.shardsRun, shards);
        expectIdentical(straight, result.summary);
        expectIdenticalTelemetry(straight_metrics.snapshot(),
                                 metrics.snapshot());
    }
}

TEST(FleetCampaign, ResumedPartialCheckpointMatchesRunTrials)
{
    SignalGuard::reset();
    const LifetimeConfig config = fleetConfig(1024, 10.0);
    const FleetSimulator simulator(config);
    const auto factory = relaxFactory(config);
    constexpr unsigned kTrials = 6;
    constexpr unsigned kShards = 3;
    constexpr uint64_t kSeed = 18;
    const std::string path = tempBase("campaign");
    std::remove(path.c_str());

    {
        // A stop lands while shard 1 is in flight: shards 0 and 1
        // commit, shard 2 never runs.
        CampaignOptions options;
        options.checkpointPath = path;
        options.shards = kShards;
        options.onShardStart = [](const std::string &, unsigned shard,
                                  unsigned) {
            if (shard == 1)
                SignalGuard::requestStop();
        };
        CampaignRunner runner(fleetFingerprint(kSeed, kTrials, kShards),
                              options);
        MetricRegistry metrics;
        const CampaignResult partial = runner.runUnit(
            "fleet", simulator, factory, kTrials, kSeed,
            fleetRun(1, &metrics));
        EXPECT_TRUE(partial.interrupted);
        EXPECT_EQ(runner.log().committedShards(), 2u);
    }

    SignalGuard::reset();
    CampaignOptions options;
    options.checkpointPath = path;
    options.resume = true;
    options.shards = kShards;
    CampaignRunner runner(fleetFingerprint(kSeed, kTrials, kShards),
                          options);
    MetricRegistry metrics;
    const CampaignResult resumed = runner.runUnit(
        "fleet", simulator, factory, kTrials, kSeed, fleetRun(1, &metrics));
    ASSERT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.shardsResumed, 2u);
    EXPECT_EQ(resumed.shardsRun, 1u);

    MetricRegistry straight_metrics;
    const LifetimeSummary straight = simulator.runTrials(
        kTrials, factory, kSeed, fleetRun(1, &straight_metrics));
    expectIdentical(straight, resumed.summary);
    expectIdenticalTelemetry(straight_metrics.snapshot(),
                             metrics.snapshot());
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// The shared trial loop's instruments on the fleet engine.

TEST(FleetInstruments, AuditedRunHasNoViolationsAndTheSameSummary)
{
    const LifetimeConfig config = fleetConfig(1024, 10.0);
    const FleetSimulator simulator(config);
    const auto factory = relaxFactory(config);

    const LifetimeSummary plain =
        simulator.runTrials(4, factory, 9, fleetRun(2));
    ASSERT_GT(plain.faultyNodes.mean(), 0.0);

    MetricRegistry metrics;
    TrialRunOptions audited = fleetRun(2, &metrics);
    audited.audit.enabled = true;
    const LifetimeSummary checked =
        simulator.runTrials(4, factory, 9, audited);
    expectIdentical(plain, checked);
    const MetricsSnapshot snapshot = metrics.snapshot();
    EXPECT_GT(snapshot.counterValue("audit.checks"), 0u);
    EXPECT_EQ(snapshot.counterValue("audit.violations"), 0u);
}

TEST(FleetInstruments, TracerSeesOneTrialSpanPerTrialAndFaultNodeIds)
{
    const LifetimeConfig config = fleetConfig(512, 10.0);
    const FleetSimulator simulator(config);
    const auto factory = relaxFactory(config);
    constexpr unsigned kTrials = 3;
    constexpr uint64_t kSeed = 21;

    const LifetimeSummary untraced =
        simulator.runTrials(kTrials, factory, kSeed, fleetRun(2));
    Tracer tracer;
    TrialRunOptions run = fleetRun(2);
    run.tracer = &tracer;
    run.traceUnit = tracer.registerUnit("fleet");
    const LifetimeSummary traced =
        simulator.runTrials(kTrials, factory, kSeed, run);
    expectIdentical(untraced, traced);
    ASSERT_EQ(tracer.dropped(), 0u);

    std::multiset<uint64_t> span_trials;
    std::set<std::pair<uint64_t, uint32_t>> arrival_nodes;
    for (const TraceEvent &e : tracer.collect()) {
        if (e.kind == TraceKind::Span &&
            e.sub == static_cast<uint8_t>(Phase::Trial))
            span_trials.insert(e.trial);
        if (e.kind == TraceKind::FaultArrival)
            arrival_nodes.insert({e.trial, e.node});
    }
    EXPECT_EQ(span_trials, (std::multiset<uint64_t>{0, 1, 2}));

    // The Trial scope lives in the shared trial loop, so the classic
    // engine sees exactly one per trial too.
    const LifetimeSimulator classic(config);
    Tracer classic_tracer;
    run.tracer = &classic_tracer;
    run.traceUnit = classic_tracer.registerUnit("classic");
    classic.runTrials(kTrials, factory, kSeed, run);
    std::multiset<uint64_t> classic_span_trials;
    for (const TraceEvent &e : classic_tracer.collect()) {
        if (e.kind == TraceKind::Span &&
            e.sub == static_cast<uint8_t>(Phase::Trial))
            classic_span_trials.insert(e.trial);
    }
    EXPECT_EQ(classic_span_trials, (std::multiset<uint64_t>{0, 1, 2}));

    // Arrivals carry exactly the nodes whose own stream draws faults.
    std::set<std::pair<uint64_t, uint32_t>> faulty_nodes;
    NodeSample sample;
    for (uint64_t t = 0; t < kTrials; ++t) {
        for (uint32_t n = 0; n < config.nodesPerSystem; ++n) {
            Rng rng = Rng::forkAt(kSeed, simulator.nodeStreamIndex(t, n));
            if (simulator.sampler().sampleNodeInto(sample, rng) > 0)
                faulty_nodes.insert({t, n});
        }
    }
    ASSERT_GT(faulty_nodes.size(), kTrials);
    EXPECT_EQ(arrival_nodes, faulty_nodes);
}

/**
 * A trace's events minus the kinds that carry wall-clock time (Span
 * durations, Heartbeat shard timings), one line each with the exact
 * payload and the unit's label.
 */
std::vector<std::string>
deterministicEvents(const Tracer &tracer)
{
    const std::vector<std::string> units = tracer.unitLabels();
    std::vector<std::string> lines;
    for (const TraceEvent &e : tracer.collect()) {
        if (e.kind == TraceKind::Span || e.kind == TraceKind::Heartbeat)
            continue;
        std::ostringstream line;
        line << units.at(e.unit) << " id=" << e.id << " parent=" << e.parent
             << " trial=" << e.trial << " node=" << e.node
             << " kind=" << static_cast<int>(e.kind)
             << " sub=" << static_cast<int>(e.sub) << " t=" << std::hexfloat
             << e.timeHours << std::dec << " a=" << e.a << " b=" << e.b
             << " c=" << e.c;
        lines.push_back(line.str());
    }
    return lines;
}

TEST(FleetWorkers, TracedWorkerRunMatchesInProcessTraceOnBothEngines)
{
    SignalGuard::reset();
    const LifetimeConfig config = fleetConfig(256, 10.0);
    const LifetimeSimulator classic(config);
    const FleetSimulator fleet(config);
    const auto factory = relaxFactory(config);
    constexpr unsigned kTrials = 4;
    constexpr unsigned kShards = 3;
    constexpr uint64_t kSeed = 3;
    const std::string trace_base = tempBase("trace") + ".trace";

    for (const LifetimeSimulator *simulator :
         {&classic, static_cast<const LifetimeSimulator *>(&fleet)}) {
        std::vector<std::string> events[2];
        for (const unsigned workers : {0u, 2u}) {
            CampaignOptions options;
            options.workers = workers;
            options.shards = kShards;
            // The classic engine's workers publish named shard files;
            // the fleet engine's ship theirs through transient ones.
            if (simulator == &classic)
                options.tracePath = trace_base;
            CampaignRunner runner(fleetFingerprint(kSeed, kTrials, kShards),
                                  options);
            Tracer tracer;
            TrialRunOptions run = fleetRun(1);
            run.tracer = &tracer;
            run.traceUnit = tracer.registerUnit("traced");
            const CampaignResult result = runner.runUnit(
                "traced", *simulator, factory, kTrials, kSeed, run);
            ASSERT_FALSE(result.interrupted);
            EXPECT_EQ(result.shardsRun, kShards);
            EXPECT_EQ(tracer.dropped(), 0u);
            events[workers == 0 ? 0 : 1] = deterministicEvents(tracer);
        }
        ASSERT_FALSE(events[0].empty());
        EXPECT_EQ(events[0], events[1]);
    }
    for (unsigned shard = 0; shard < kShards; ++shard) {
        const std::string path =
            trace_base + ".traced.shard" + std::to_string(shard) + ".json";
        EXPECT_TRUE(fileExists(path)) << path;
        std::remove(path.c_str());
    }
}

// ---------------------------------------------------------------------
// Worker pool: forked processes == in-process, bit for bit.

TEST(FleetWorkers, FleetEngineMatchesInProcessAtOneAndTwoWorkers)
{
    SignalGuard::reset();
    const LifetimeConfig config = fleetConfig(2048, 10.0);
    const FleetSimulator simulator(config);
    const auto factory = relaxFactory(config);
    constexpr unsigned kTrials = 8;
    constexpr uint64_t kSeed = 31;

    MetricRegistry straight_metrics;
    const LifetimeSummary straight = simulator.runTrials(
        kTrials, factory, kSeed,
        fleetRun(1, &straight_metrics));

    for (const unsigned workers : {1u, 2u}) {
        CampaignOptions options;
        options.workers = workers;
        options.shards = 4;
        CampaignRunner pool(fleetFingerprint(kSeed, kTrials, 4),
                                  options);
        MetricRegistry metrics;
        const CampaignResult result = pool.runUnit(
            "fleet", simulator, factory, kTrials, kSeed,
            fleetRun(1, &metrics));
        ASSERT_FALSE(result.interrupted);
        EXPECT_EQ(result.shardsRun, 4u);
        expectIdentical(straight, result.summary);
        expectIdenticalTelemetry(straight_metrics.snapshot(),
                                 metrics.snapshot());
        // Every worker stamped its peak RSS; the pool kept the max.
        EXPECT_GT(pool.workerPeakRssBytes(), 0);
    }
}

TEST(FleetWorkers, ClassicEngineMatchesStraightRun)
{
    SignalGuard::reset();
    LifetimeConfig config = fleetConfig(128, 10.0);
    const LifetimeSimulator simulator(config);
    const auto factory = relaxFactory(config);
    constexpr unsigned kTrials = 10;
    constexpr uint64_t kSeed = 99;

    MetricRegistry straight_metrics;
    TrialRunOptions straight_run;
    straight_run.parallel.threads = 1;
    straight_run.metrics = &straight_metrics;
    const LifetimeSummary straight =
        simulator.runTrials(kTrials, factory, kSeed, straight_run);

    CampaignOptions options;
    options.workers = 2;
    options.shards = 5;
    CampaignRunner pool(fleetFingerprint(kSeed, kTrials, 5),
                              options);
    MetricRegistry metrics;
    TrialRunOptions run;
    run.parallel.threads = 1;
    run.metrics = &metrics;
    const CampaignResult result = pool.runUnit(
        "classic", simulator, factory, kTrials, kSeed, run);
    ASSERT_FALSE(result.interrupted);
    expectIdentical(straight, result.summary);
    expectIdenticalTelemetry(straight_metrics.snapshot(),
                             metrics.snapshot());
}

TEST(FleetWorkers, TemporaryCheckpointDirIsRemovedOnDestruction)
{
    SignalGuard::reset();
    const LifetimeConfig config = fleetConfig(256, 10.0);
    const FleetSimulator simulator(config);
    std::string dir;
    {
        CampaignOptions options;  // Empty checkpointPath: private scratch.
        options.workers = 2;
        options.shards = 2;
        CampaignRunner pool(fleetFingerprint(1, 4, 2), options);
        const std::string &base = pool.checkpointBasePath();
        EXPECT_EQ(base.rfind("/tmp/relaxfault_fleet.", 0), 0u) << base;
        dir = base.substr(0, base.rfind('/'));
        const CampaignResult result = pool.runUnit(
            "fleet", simulator, relaxFactory(config), 4, 1, fleetRun(1));
        ASSERT_FALSE(result.interrupted);
        EXPECT_TRUE(fileExists(
            CampaignRunner::workerLogPath(base, 0)));
    }
    // fileExists is regular-file-only; probe the directory directly.
    EXPECT_NE(::access(dir.c_str(), F_OK), 0) << dir;
}

// ---------------------------------------------------------------------
// Crash recovery: a worker genuinely SIGKILLed holding a shard lease.

constexpr unsigned kKillTrials = 10;
constexpr uint64_t kKillSeed = 1234;

/**
 * Runs a 2-worker pool where worker slot 0 SIGKILLs itself right after
 * popping its first shard — before running or committing it (the lost
 * lease worst case). With maxRounds=1 the pool cannot recover and dies
 * fatally (exit 1); in the rare schedule where worker 1 drains the
 * whole ring before worker 0 pops anything, the run completes cleanly
 * instead (exit 0). Either way the committed worker logs must be
 * resumable.
 */
int
runKilledPoolChild(const std::string &base, unsigned shards)
{
    SignalGuard::reset();
    const LifetimeConfig config = fleetConfig(512, 10.0);
    const FleetSimulator simulator(config);
    CampaignOptions options;
    options.workers = 2;
    options.checkpointPath = base;
    options.shards = shards;
    options.maxRounds = 1;
    options.killBeforeCommit = 1;
    CampaignRunner pool(
        fleetFingerprint(kKillSeed, kKillTrials, shards), options);
    // Telemetry on: committed shard records must carry their counters
    // so the resumed run can merge them (resume inherits the original
    // run's telemetry choice).
    MetricRegistry metrics;
    pool.runUnit("fleet", simulator, relaxFactory(config), kKillTrials,
                 kKillSeed, fleetRun(1, &metrics));
    return 0;
}

class FleetWorkerKillResume : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FleetWorkerKillResume, ResumeAfterSigkillMatchesStraightRun)
{
    const unsigned shards = GetParam();
    SignalGuard::reset();
    const std::string base =
        tempBase("kill_s" + std::to_string(shards));
    removeWorkerLogs(base);

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // In the child: the pool parent whose worker 0 dies by real
        // SIGKILL. _exit so the parent's gtest teardown never runs
        // twice.
        _exit(runKilledPoolChild(base, shards));
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_TRUE(WEXITSTATUS(status) == 1 || WEXITSTATUS(status) == 0)
        << "unexpected exit " << WEXITSTATUS(status);

    // Resume from the surviving worker checkpoints with a healthy pool.
    const LifetimeConfig config = fleetConfig(512, 10.0);
    const FleetSimulator simulator(config);
    const auto factory = relaxFactory(config);
    CampaignOptions options;
    options.workers = 2;
    options.checkpointPath = base;
    options.resume = true;
    options.shards = shards;
    CampaignRunner pool(
        fleetFingerprint(kKillSeed, kKillTrials, shards), options);
    MetricRegistry metrics;
    const CampaignResult resumed = pool.runUnit(
        "fleet", simulator, factory, kKillTrials, kKillSeed,
        fleetRun(1, &metrics));
    ASSERT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.shardsResumed + resumed.shardsRun, shards);

    MetricRegistry straight_metrics;
    const LifetimeSummary straight = simulator.runTrials(
        kKillTrials, factory, kKillSeed,
        fleetRun(1, &straight_metrics));
    expectIdentical(straight, resumed.summary);
    expectIdenticalTelemetry(straight_metrics.snapshot(),
                             metrics.snapshot());
    removeWorkerLogs(base);
}

// 2 workers x >= 2 shard counts, per the acceptance criteria.
INSTANTIATE_TEST_SUITE_P(TwoWorkers, FleetWorkerKillResume,
                         ::testing::Values(3u, 5u));

TEST(FleetWorkersDeathTest, ExhaustedRoundsWithLostShardIsFatal)
{
    SignalGuard::reset();
    const std::string base = tempBase("rounds");
    removeWorkerLogs(base);
    const LifetimeConfig config = fleetConfig(256, 10.0);
    const FleetSimulator simulator(config);
    // A single worker that always dies before committing: round 1 loses
    // the lease deterministically, and maxRounds=1 forbids recovery.
    CampaignOptions options;
    options.workers = 1;
    options.checkpointPath = base;
    options.shards = 3;
    options.maxRounds = 1;
    options.killBeforeCommit = 1;
    CampaignRunner pool(fleetFingerprint(8, 6, 3), options);
    EXPECT_EXIT(pool.runUnit("fleet", simulator, relaxFactory(config), 6,
                             8, fleetRun(1)),
                ::testing::ExitedWithCode(1), "still missing");
    removeWorkerLogs(base);
}

TEST(FleetWorkersDeathTest, ExhaustedRoundsRemoveThePrivateCheckpointDir)
{
    SignalGuard::reset();
    const std::string note = tempBase("private_dir_note");
    std::remove(note.c_str());
    const LifetimeConfig config = fleetConfig(256, 10.0);
    const FleetSimulator simulator(config);
    // No checkpoint path: the runner works in a private temp dir. The
    // only worker dies holding its first lease and maxRounds=1 makes
    // that fatal; fatal() skips the runner's destructor, so the exit
    // handler must remove the dir. The death-test child records the
    // dir it made before running.
    EXPECT_EXIT(
        {
            CampaignOptions options;
            options.workers = 1;
            options.shards = 2;
            options.maxRounds = 1;
            options.killBeforeCommit = 1;
            CampaignRunner pool(fleetFingerprint(9, 4, 2), options);
            const std::string &base = pool.checkpointBasePath();
            if (!atomicWriteFile(note, base.substr(0, base.rfind('/'))))
                std::_Exit(3);
            pool.runUnit("fleet", simulator, relaxFactory(config), 4, 9,
                         fleetRun(1));
        },
        ::testing::ExitedWithCode(1),
        "still missing.*pass a checkpoint path to keep the worker logs");
    std::string dir;
    ASSERT_TRUE(readFile(note, dir));
    EXPECT_EQ(dir.rfind("/tmp/relaxfault_fleet.", 0), 0u) << dir;
    EXPECT_NE(::access(dir.c_str(), F_OK), 0) << dir << " leaked";
    std::remove(note.c_str());
}

TEST(FleetWorkersDeathTest, ForeignWorkerLogIsNeverMerged)
{
    SignalGuard::reset();
    const std::string base = tempBase("foreign");
    removeWorkerLogs(base);
    const LifetimeConfig config = fleetConfig(256, 10.0);
    const FleetSimulator simulator(config);
    const auto factory = relaxFactory(config);
    {
        CampaignOptions options;
        options.workers = 1;
        options.checkpointPath = base;
        options.shards = 2;
        CampaignRunner pool(fleetFingerprint(1, 4, 2), options);
        const CampaignResult result = pool.runUnit(
            "fleet", simulator, factory, 4, 1, fleetRun(1));
        ASSERT_FALSE(result.interrupted);
    }
    // Same path, different campaign (seed): the resume scan must refuse
    // the existing worker logs, not silently merge a different
    // experiment's shards.
    CampaignOptions options;
    options.workers = 1;
    options.checkpointPath = base;
    options.resume = true;
    options.shards = 2;
    CampaignRunner pool(fleetFingerprint(2, 4, 2), options);
    EXPECT_EXIT(pool.runUnit("fleet", simulator, factory, 4, 2,
                             fleetRun(1)),
                ::testing::ExitedWithCode(1), "different campaign");
    removeWorkerLogs(base);
}

// ---------------------------------------------------------------------
// Signal forwarding to live workers.

TEST(SignalGuardFleet, StopSignalIsForwardedToAdoptedChildren)
{
    // Run the whole scenario in a forked process so the signal games
    // never touch the test runner itself. Inside: a guard parent spawns
    // a worker that polls its own stop flag, adopts it, and SIGTERMs
    // itself — the handler must set the parent flag AND forward the
    // signal to the worker, which then exits with a marker code.
    const pid_t outer = spawnProcess([]() {
        SignalGuard::reset();
        SignalGuard::clearChildren();
        SignalGuard guard;
        const pid_t worker = spawnProcess([]() {
            SignalGuard::clearChildren();
            for (int i = 0; i < 20000 && !SignalGuard::stopRequested();
                 ++i)
                ::usleep(1000);
            return SignalGuard::stopRequested() ? 7 : 8;
        });
        SignalGuard::adoptChild(worker);
        if (SignalGuard::childCount() != 1)
            return 3;
        ::usleep(100000);  // Let the worker settle into its poll loop.
        ::kill(::getpid(), SIGTERM);
        const ProcessStatus status = waitProcess(worker);
        SignalGuard::releaseChild(worker);
        if (!SignalGuard::stopRequested())
            return 1;
        if (SignalGuard::stopSignal() != SIGTERM)
            return 2;
        if (SignalGuard::childCount() != 0)
            return 4;
        return status.exited && status.exitCode == 7 ? 0 : 5;
    });
    const ProcessStatus status = waitProcess(outer);
    EXPECT_TRUE(status.ok()) << "scenario exit code "
                             << status.exitCode;
}

TEST(FleetWorkers, PeakRssProbeReportsThisProcess)
{
    EXPECT_GT(peakRssBytes(), 0);
}

} // namespace
} // namespace relaxfault
