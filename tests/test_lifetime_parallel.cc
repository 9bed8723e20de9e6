/**
 * @file
 * Regression tests for the parallel Monte Carlo engine's determinism
 * contract: a given master seed must produce bit-identical
 * `LifetimeSummary` results at every thread count and chunk size, and
 * `runTrials(N)` must equal the concatenation of the N per-trial
 * `runSystemTrial` calls with the counter-derived seeds. Every
 * comparison is exact double equality — no tolerances.
 */

#include <gtest/gtest.h>

#include "repair/relaxfault_repair.h"
#include "sim/lifetime.h"

#include "lifetime_expect.h"

namespace relaxfault {
namespace {

LifetimeConfig
testConfig()
{
    // 10x FIT on 512 nodes: every metric is comfortably non-zero, so
    // the exact-equality checks below exercise real arithmetic.
    LifetimeConfig config;
    config.nodesPerSystem = 512;
    config.faultModel.fitScale = 10.0;
    return config;
}

LifetimeSimulator::MechanismFactory
relaxFactory(const LifetimeConfig &config)
{
    const DramGeometry geometry = config.faultModel.geometry;
    const CacheGeometry llc{8 * 1024 * 1024, 16, 64};
    return [geometry, llc] {
        return std::make_unique<RelaxFaultRepair>(
            geometry, llc, RepairBudget{4, 32768}, true);
    };
}

TrialRunOptions
withThreads(unsigned threads, unsigned chunk = 0)
{
    TrialRunOptions options;
    options.parallel.threads = threads;
    options.parallel.chunk = chunk;
    return options;
}

TEST(LifetimeParallel, BitIdenticalAcrossThreadCounts)
{
    const LifetimeSimulator simulator(testConfig());
    constexpr unsigned kTrials = 24;
    constexpr uint64_t kSeed = 1206;

    const LifetimeSummary one =
        simulator.runTrials(kTrials, {}, kSeed, withThreads(1));
    const LifetimeSummary two =
        simulator.runTrials(kTrials, {}, kSeed, withThreads(2));
    const LifetimeSummary eight =
        simulator.runTrials(kTrials, {}, kSeed, withThreads(8));

    EXPECT_GT(one.dues.mean(), 0.0);  // The comparison is non-vacuous.
    expectIdentical(one, two);
    expectIdentical(one, eight);
}

TEST(LifetimeParallel, BitIdenticalWithRepairMechanism)
{
    // The factory path exercises concurrent mechanism construction.
    const LifetimeConfig config = testConfig();
    const LifetimeSimulator simulator(config);
    const auto factory = relaxFactory(config);
    constexpr unsigned kTrials = 16;
    constexpr uint64_t kSeed = 4242;

    const LifetimeSummary one =
        simulator.runTrials(kTrials, factory, kSeed, withThreads(1));
    const LifetimeSummary eight =
        simulator.runTrials(kTrials, factory, kSeed, withThreads(8));

    EXPECT_GT(one.repairedFaults.mean(), 0.0);
    expectIdentical(one, eight);
}

TEST(LifetimeParallel, BitIdenticalAcrossChunkSizes)
{
    const LifetimeSimulator simulator(testConfig());
    constexpr unsigned kTrials = 24;
    constexpr uint64_t kSeed = 77;

    const LifetimeSummary coarse =
        simulator.runTrials(kTrials, {}, kSeed, withThreads(4, 24));
    const LifetimeSummary fine =
        simulator.runTrials(kTrials, {}, kSeed, withThreads(4, 1));
    const LifetimeSummary odd =
        simulator.runTrials(kTrials, {}, kSeed, withThreads(4, 7));

    expectIdentical(coarse, fine);
    expectIdentical(coarse, odd);
}

TEST(LifetimeParallel, EqualsConcatenationOfDerivedTrials)
{
    // runTrials(N) == sequentially folding runSystemTrial under the
    // derived seeds forkAt(seed, 0..N-1), in trial order. This pins the
    // engine to the obvious sequential semantics.
    const LifetimeConfig config = testConfig();
    const LifetimeSimulator simulator(config);
    const auto factory = relaxFactory(config);
    constexpr unsigned kTrials = 12;
    constexpr uint64_t kSeed = 31415;

    LifetimeSummary reference;
    for (unsigned t = 0; t < kTrials; ++t) {
        Rng rng = Rng::forkAt(kSeed, t);
        reference.addTrial(simulator.runSystemTrial(factory, rng));
    }

    const LifetimeSummary parallel =
        simulator.runTrials(kTrials, factory, kSeed, withThreads(8, 3));
    expectIdentical(reference, parallel);
}

TEST(LifetimeParallel, DistinctSeedsStillDiffer)
{
    // Guard against a forkAt bug that collapses seeds: two master
    // seeds must not reproduce each other's trial streams.
    const LifetimeSimulator simulator(testConfig());
    const LifetimeSummary a =
        simulator.runTrials(8, {}, 1, withThreads(2));
    const LifetimeSummary b =
        simulator.runTrials(8, {}, 2, withThreads(2));
    EXPECT_NE(a.permanentFaults.sum(), b.permanentFaults.sum());
}

} // namespace
} // namespace relaxfault
