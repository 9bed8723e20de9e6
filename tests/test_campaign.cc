/**
 * @file
 * Crash-recovery tests for the sharded campaign runner.
 *
 * The load-bearing invariant: a campaign's final `LifetimeSummary` and
 * merged telemetry counters are bit-identical to an uninterrupted
 * `runTrials` call at ANY shard count and ANY thread count — including
 * when the campaign is killed with SIGKILL mid-run (a genuine child
 * process killed via the `killAfterCommits` hook) and resumed from its
 * checkpoint, and when the checkpoint's tail was torn by a partial
 * write. Every comparison is exact double equality — no tolerances.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/campaign.h"
#include "campaign/checkpoint.h"
#include "common/clock.h"
#include "common/fs.h"
#include "common/signal_guard.h"
#include "repair/relaxfault_repair.h"
#include "sim/lifetime.h"
#include "telemetry/metrics.h"

#include "lifetime_expect.h"

namespace relaxfault {
namespace {

LifetimeConfig
testConfig()
{
    // Small but active: 10x FIT on 128 nodes keeps every metric nonzero
    // while a full campaign run stays well under a second.
    LifetimeConfig config;
    config.nodesPerSystem = 128;
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
withThreads(unsigned threads, MetricRegistry *metrics = nullptr)
{
    TrialRunOptions options;
    options.parallel.threads = threads;
    options.metrics = metrics;
    return options;
}

CampaignFingerprint
testFingerprint(uint64_t seed, uint64_t trials, unsigned shards)
{
    CampaignFingerprint fingerprint;
    fingerprint.campaign = "test_campaign";
    fingerprint.seed = seed;
    fingerprint.trials = trials;
    fingerprint.shards = shards;
    fingerprint.config = "nodes=128";
    return fingerprint;
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "relaxfault_" + name + "_" +
           std::to_string(::getpid()) + ".ckpt";
}

// ---------------------------------------------------------------------
// Checkpoint serialization.

/**
 * Trial @p t's value of @p field: distinct, none exact in decimal, and
 * keyed on the member (not its table position), so the golden line
 * below sees a reordered kLifetimeFields.
 */
double
sampleValue(int t, const LifetimeField &field)
{
    const size_t slot = metricSlot(field);
    return 16.0 * t + slot + 1e-7 * (slot + 1);
}

ShardRecord
sampleRecord()
{
    ShardRecord record;
    record.unit = "1x-fit/RelaxFault-4way";
    record.shard = 3;
    record.firstTrial = 12;
    record.attempt = 2;
    record.threads = 8;
    record.durationMs = 1234;
    record.timestampMs = 1700000000000ull;
    record.gitRev = "abc1234";
    for (int t = 0; t < 3; ++t) {
        LifetimeMetrics m;
        for (const LifetimeField &field : kLifetimeFields)
            m.*field.metric = sampleValue(t, field);
        record.trials.push_back(m);
    }
    record.metrics.counters.emplace_back("sim.dues", 41u);
    // A counter above 2^53 must survive the round trip exactly (a
    // double-typed JSON number would silently round it).
    record.metrics.counters.emplace_back("sim.huge",
                                         (uint64_t{1} << 60) + 3);
    Log2HistogramSnapshot histogram;
    histogram.buckets[0] = 2;
    histogram.buckets[17] = 5;
    histogram.count = 7;
    histogram.sum = 1234567;
    record.metrics.histograms.emplace_back("repair.ways", histogram);
    return record;
}

TEST(Checkpoint, ShardLineRoundTripsExactly)
{
    const ShardRecord record = sampleRecord();
    const std::string line = CheckpointLog::shardLine(record);
    EXPECT_EQ(line.find('\n'), std::string::npos);

    ShardRecord parsed;
    ASSERT_TRUE(CheckpointLog::parseShardLine(line, parsed));
    EXPECT_EQ(parsed.unit, record.unit);
    EXPECT_EQ(parsed.shard, record.shard);
    EXPECT_EQ(parsed.firstTrial, record.firstTrial);
    EXPECT_EQ(parsed.attempt, record.attempt);
    EXPECT_EQ(parsed.threads, record.threads);
    EXPECT_EQ(parsed.durationMs, record.durationMs);
    EXPECT_EQ(parsed.timestampMs, record.timestampMs);
    EXPECT_EQ(parsed.gitRev, record.gitRev);
    ASSERT_EQ(parsed.trials.size(), record.trials.size());
    for (size_t t = 0; t < record.trials.size(); ++t) {
        // Bit-exact doubles — %.17g and strtod round-trip IEEE-754.
        for (const LifetimeField &field : kLifetimeFields)
            EXPECT_EQ(parsed.trials[t].*field.metric,
                      record.trials[t].*field.metric)
                << "trial " << t << " " << field.counter;
    }
    expectIdenticalTelemetry(parsed.metrics, record.metrics);
}

TEST(Checkpoint, ShardLineMatchesGoldenV2)
{
    // The per-trial array order is the on-disk schema. A round trip
    // cannot see a reorder (writer and parser share it), so pin the
    // exact bytes a relaxfault.ckpt.v2 writer produced for
    // sampleRecord(); its values are keyed on the member, so a
    // reordered kLifetimeFields changes them.
    const std::string golden =
        R"({"schema":"relaxfault.ckpt.v2","kind":"shard",)"
        R"("unit":"1x-fit/RelaxFault-4way","shard":3,"first_trial":12,)"
        R"("trial_count":3,"attempt":2,"threads":8,"duration_ms":1234,)"
        R"("timestamp_ms":1700000000000,"git_rev":"abc1234","trials":[)"
        R"([9.9999999999999995e-08,1.0000001999999999,2.0000003,)"
        R"(3.0000003999999998,4.0000004999999996,5.0000005999999999,)"
        R"(6.0000007000000002,7.0000007999999996,8.0000008999999999,)"
        R"(9.0000009999999993,10.0000011,11.0000012],)"
        R"([16.000000100000001,17.000000199999999,18.0000003,)"
        R"(19.000000400000001,20.000000499999999,21.0000006,)"
        R"(22.000000700000001,23.000000799999999,24.0000009,)"
        R"(25.000001000000001,26.000001099999999,27.0000012],)"
        R"([32.000000100000001,33.000000200000002,34.000000300000004,)"
        R"(35.000000399999998,36.000000499999999,37.0000006,)"
        R"(38.000000700000001,39.000000800000002,40.000000900000003,)"
        R"(41.000000999999997,42.000001099999999,43.0000012]],)"
        R"("metrics":{"counters":{"sim.dues":41,)"
        R"("sim.huge":1152921504606846979},"gauges":{},)"
        R"("histograms":{"repair.ways":{"sum":1234567,)"
        R"("buckets":{"0":2,"17":5}}}}})";
    EXPECT_EQ(CheckpointLog::shardLine(sampleRecord()), golden);

    ShardRecord parsed;
    ASSERT_TRUE(CheckpointLog::parseShardLine(golden, parsed));
    ASSERT_EQ(parsed.trials.size(), 3u);
    EXPECT_EQ(parsed.trials[2].faultyNodes, 32.000000100000001);
    EXPECT_EQ(parsed.trials[2].failStops, 43.0000012);
    for (int t = 0; t < 3; ++t)
        for (const LifetimeField &field : kLifetimeFields)
            EXPECT_EQ(parsed.trials[t].*field.metric, sampleValue(t, field))
                << "trial " << t << " " << field.counter;
}

TEST(Checkpoint, EveryStrictPrefixOfAShardLineIsTorn)
{
    // A torn write leaves a prefix of the line on disk. No prefix may
    // parse as a valid record — otherwise resume would fold in a
    // partial shard.
    const std::string line = CheckpointLog::shardLine(sampleRecord());
    ShardRecord parsed;
    for (size_t len = 0; len < line.size(); ++len)
        EXPECT_FALSE(
            CheckpointLog::parseShardLine(line.substr(0, len), parsed))
            << "prefix length " << len;
    EXPECT_TRUE(CheckpointLog::parseShardLine(line, parsed));
}

TEST(Checkpoint, WrongSchemaOrKindRejected)
{
    ShardRecord parsed;
    EXPECT_FALSE(CheckpointLog::parseShardLine("{}", parsed));
    EXPECT_FALSE(CheckpointLog::parseShardLine("not json at all", parsed));
    EXPECT_FALSE(CheckpointLog::parseShardLine(
        R"({"schema":"other.v9","kind":"shard","unit":"u"})", parsed));
    EXPECT_FALSE(CheckpointLog::parseShardLine(
        R"({"schema":"relaxfault.ckpt.v2","kind":"campaign"})", parsed));
    EXPECT_FALSE(CheckpointLog::parseShardLine(
        R"({"schema":"relaxfault.ckpt.v1","kind":"shard","unit":"u"})",
        parsed));
}

// ---------------------------------------------------------------------
// Shard/thread invariance (no persistence).

TEST(Campaign, BitIdenticalAtAnyShardAndThreadCount)
{
    SignalGuard::reset();
    const LifetimeConfig config = testConfig();
    const LifetimeSimulator simulator(config);
    const auto factory = relaxFactory(config);
    constexpr unsigned kTrials = 12;
    constexpr uint64_t kSeed = 1206;

    MetricRegistry straight_metrics;
    const LifetimeSummary straight = simulator.runTrials(
        kTrials, factory, kSeed, withThreads(1, &straight_metrics));
    const MetricsSnapshot straight_snap = straight_metrics.snapshot();

    for (const unsigned shards : {1u, 2u, 3u, 5u, 12u}) {
        for (const unsigned threads : {1u, 4u}) {
            CampaignOptions options;
            options.shards = shards;
            CampaignRunner runner(
                testFingerprint(kSeed, kTrials, shards), options);
            MetricRegistry metrics;
            const CampaignResult result = runner.runUnit(
                "matrix", simulator, factory, kTrials, kSeed,
                withThreads(threads, &metrics));
            ASSERT_FALSE(result.interrupted);
            EXPECT_EQ(result.shardsRun, shards);
            expectIdentical(straight, result.summary);
            expectIdenticalTelemetry(straight_snap, metrics.snapshot());
        }
    }
}

TEST(Campaign, ShardBoundsPartitionTrials)
{
    for (const uint64_t trials : {1u, 7u, 12u, 100u}) {
        for (const unsigned shards : {1u, 2u, 3u, 7u, 12u}) {
            uint64_t covered = 0;
            for (unsigned k = 0; k < shards; ++k) {
                const uint64_t first =
                    CampaignRunner::shardFirstTrial(trials, shards, k);
                const uint64_t end = CampaignRunner::shardFirstTrial(
                    trials, shards, k + 1);
                EXPECT_LE(first, end);
                covered += end - first;
            }
            EXPECT_EQ(covered, trials);
            EXPECT_EQ(
                CampaignRunner::shardFirstTrial(trials, shards, shards),
                trials);
        }
    }
}

// ---------------------------------------------------------------------
// Kill/resume. The child genuinely dies by SIGKILL after a known
// number of durable commits; the parent resumes from its checkpoint.

void
runCampaignChild(const std::string &path, unsigned shards,
                 unsigned threads, unsigned kill_after_commits,
                 bool resume)
{
    const LifetimeConfig config = testConfig();
    const LifetimeSimulator simulator(config);
    const auto factory = relaxFactory(config);
    CampaignOptions options;
    options.checkpointPath = path;
    options.resume = resume;
    options.shards = shards;
    options.killAfterCommits = kill_after_commits;
    CampaignRunner runner(testFingerprint(99, 10, shards), options);
    MetricRegistry metrics;
    runner.runUnit("matrix", simulator, factory, 10, 99,
                   withThreads(threads, &metrics));
}

class KillResume
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(KillResume, ResumedRunIsBitIdenticalToUninterrupted)
{
    const auto [shards, threads] = GetParam();
    SignalGuard::reset();
    const std::string path = tempPath(
        "kill_s" + std::to_string(shards) + "_t" +
        std::to_string(threads));
    std::remove(path.c_str());

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // In the child: run until killAfterCommits commits, then die by
        // raise(SIGKILL) inside the runner. _exit guards the unexpected
        // survival case (it must not run the parent's test teardown).
        runCampaignChild(path, shards, threads, /*kill_after=*/2,
                         /*resume=*/false);
        _exit(42);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status)) << "child should die by signal";
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    // The checkpoint holds exactly the shards committed before death.
    {
        CampaignOptions probe;
        probe.checkpointPath = path;
        probe.resume = true;
        CampaignRunner inspector(testFingerprint(99, 10, shards), probe);
        EXPECT_EQ(inspector.log().committedShards(), 2u);
        EXPECT_EQ(inspector.log().tornLines(), 0u);
    }

    // Resume in-process and compare against the uninterrupted run.
    const LifetimeConfig config = testConfig();
    const LifetimeSimulator simulator(config);
    const auto factory = relaxFactory(config);

    CampaignOptions options;
    options.checkpointPath = path;
    options.resume = true;
    options.shards = shards;
    CampaignRunner runner(testFingerprint(99, 10, shards), options);
    MetricRegistry metrics;
    const CampaignResult resumed = runner.runUnit(
        "matrix", simulator, factory, 10, 99,
        withThreads(threads, &metrics));
    ASSERT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.shardsResumed, 2u);
    EXPECT_EQ(resumed.shardsRun, shards - 2);

    MetricRegistry straight_metrics;
    const LifetimeSummary straight = simulator.runTrials(
        10, factory, 99, withThreads(threads, &straight_metrics));
    expectIdentical(straight, resumed.summary);
    expectIdenticalTelemetry(straight_metrics.snapshot(),
                             metrics.snapshot());
    std::remove(path.c_str());
}

// >= 2 shard counts x >= 2 thread counts, per the acceptance criteria.
INSTANTIATE_TEST_SUITE_P(
    ShardsByThreads, KillResume,
    ::testing::Values(std::pair<unsigned, unsigned>{4, 1},
                      std::pair<unsigned, unsigned>{4, 4},
                      std::pair<unsigned, unsigned>{5, 1},
                      std::pair<unsigned, unsigned>{5, 4}));

TEST(Campaign, TornCheckpointTailIsDroppedAndReRun)
{
    SignalGuard::reset();
    const std::string path = tempPath("torn");
    std::remove(path.c_str());
    const LifetimeConfig config = testConfig();
    const LifetimeSimulator simulator(config);
    constexpr unsigned kTrials = 9;
    constexpr unsigned kShards = 3;
    constexpr uint64_t kSeed = 7;

    {
        CampaignOptions options;
        options.checkpointPath = path;
        options.shards = kShards;
        CampaignRunner runner(testFingerprint(kSeed, kTrials, kShards),
                              options);
        const CampaignResult result =
            runner.runUnit("matrix", simulator, {}, kTrials, kSeed,
                           withThreads(2));
        ASSERT_FALSE(result.interrupted);
    }

    // Tear the file mid-way through the last line, as a crash on a
    // filesystem without atomic rename would.
    std::string content;
    ASSERT_TRUE(readFile(path, content));
    ASSERT_GT(content.size(), 40u);
    content.resize(content.size() - 37);
    {
        std::ofstream out(path, std::ios::trunc | std::ios::binary);
        out << content;
    }

    CampaignOptions options;
    options.checkpointPath = path;
    options.resume = true;
    options.shards = kShards;
    CampaignRunner runner(testFingerprint(kSeed, kTrials, kShards),
                          options);
    EXPECT_EQ(runner.log().tornLines(), 1u);
    EXPECT_EQ(runner.log().committedShards(), kShards - 1);
    const CampaignResult resumed = runner.runUnit(
        "matrix", simulator, {}, kTrials, kSeed, withThreads(2));
    ASSERT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.shardsRun, 1u);

    const LifetimeSummary straight =
        simulator.runTrials(kTrials, {}, kSeed, withThreads(2));
    expectIdentical(straight, resumed.summary);
    std::remove(path.c_str());
}

TEST(Campaign, StopRequestFlushesInFlightShardThenStops)
{
    SignalGuard::reset();
    const std::string path = tempPath("sigint");
    std::remove(path.c_str());
    const LifetimeConfig config = testConfig();
    const LifetimeSimulator simulator(config);
    constexpr unsigned kTrials = 8;
    constexpr unsigned kShards = 4;
    constexpr uint64_t kSeed = 5;

    {
        CampaignOptions options;
        options.checkpointPath = path;
        options.shards = kShards;
        // Stop lands while shard 1 is "in flight": the shard must
        // still complete and commit (the flush) before the runner
        // stops.
        options.onShardStart = [](const std::string &, unsigned shard,
                                  unsigned) {
            if (shard == 1)
                SignalGuard::requestStop();
        };
        CampaignRunner runner(testFingerprint(kSeed, kTrials, kShards),
                              options);
        const CampaignResult result = runner.runUnit(
            "matrix", simulator, {}, kTrials, kSeed, withThreads(1));
        EXPECT_TRUE(result.interrupted);
        EXPECT_EQ(result.shardsRun, 2u);  // Shards 0 and 1 committed.
        EXPECT_EQ(runner.log().committedShards(), 2u);
    }

    SignalGuard::reset();
    CampaignOptions options;
    options.checkpointPath = path;
    options.resume = true;
    options.shards = kShards;
    CampaignRunner runner(testFingerprint(kSeed, kTrials, kShards),
                          options);
    const CampaignResult resumed = runner.runUnit(
        "matrix", simulator, {}, kTrials, kSeed, withThreads(1));
    ASSERT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.shardsResumed, 2u);

    const LifetimeSummary straight =
        simulator.runTrials(kTrials, {}, kSeed, withThreads(1));
    expectIdentical(straight, resumed.summary);
    std::remove(path.c_str());
}

TEST(Campaign, FailedShardIsRetriedAndForensicallyLogged)
{
    SignalGuard::reset();
    const std::string path = tempPath("retry");
    std::remove(path.c_str());
    const LifetimeConfig config = testConfig();
    const LifetimeSimulator simulator(config);
    constexpr unsigned kTrials = 6;
    constexpr unsigned kShards = 3;
    constexpr uint64_t kSeed = 11;

    unsigned failures_injected = 0;
    FakeClock clock;
    CampaignOptions options;
    options.checkpointPath = path;
    options.shards = kShards;
    options.clock = &clock;  // Virtual backoff: no real sleeps.
    options.onShardStart = [&failures_injected](const std::string &,
                                                unsigned shard,
                                                unsigned attempt) {
        if (shard == 1 && attempt <= 2) {
            ++failures_injected;
            throw std::runtime_error("injected shard failure");
        }
    };
    CampaignRunner runner(testFingerprint(kSeed, kTrials, kShards),
                          options);
    const CampaignResult result = runner.runUnit(
        "matrix", simulator, {}, kTrials, kSeed, withThreads(1));
    ASSERT_FALSE(result.interrupted);
    EXPECT_EQ(failures_injected, 2u);
    EXPECT_EQ(result.shardsRun, kShards);
    const ShardRecord *retried = runner.log().find("matrix", 1);
    ASSERT_NE(retried, nullptr);
    EXPECT_EQ(retried->attempt, 3u);

    // Exponential backoff ran on the injected clock: 50ms then 100ms.
    ASSERT_EQ(clock.sleeps().size(), 2u);
    EXPECT_EQ(clock.sleeps()[0], std::chrono::milliseconds(50));
    EXPECT_EQ(clock.sleeps()[1], std::chrono::milliseconds(100));

    // The failure left a forensic shard_failed line in the file.
    std::string content;
    ASSERT_TRUE(readFile(path, content));
    EXPECT_NE(content.find("\"kind\":\"shard_failed\""),
              std::string::npos);
    EXPECT_NE(content.find("injected shard failure"), std::string::npos);

    const LifetimeSummary straight =
        simulator.runTrials(kTrials, {}, kSeed, withThreads(1));
    expectIdentical(straight, result.summary);
    std::remove(path.c_str());
}

TEST(CampaignDeathTest, FingerprintMismatchIsFatal)
{
    SignalGuard::reset();
    const std::string path = tempPath("mismatch");
    std::remove(path.c_str());
    {
        CampaignOptions options;
        options.checkpointPath = path;
        options.shards = 2;
        CampaignRunner runner(testFingerprint(1, 4, 2), options);
    }
    CampaignOptions options;
    options.checkpointPath = path;
    options.resume = true;
    options.shards = 2;
    // Different seed => different campaign => refuse to mix.
    EXPECT_EXIT(
        CampaignRunner(testFingerprint(2, 4, 2), options),
        ::testing::ExitedWithCode(1), "different campaign");
    std::remove(path.c_str());
}

TEST(Campaign, ResumeWithoutFileStartsFresh)
{
    SignalGuard::reset();
    const std::string path = tempPath("fresh");
    std::remove(path.c_str());
    const LifetimeConfig config = testConfig();
    const LifetimeSimulator simulator(config);
    CampaignOptions options;
    options.checkpointPath = path;
    options.resume = true;  // Nothing to resume: warn and start fresh.
    options.shards = 2;
    CampaignRunner runner(testFingerprint(3, 4, 2), options);
    const CampaignResult result =
        runner.runUnit("matrix", simulator, {}, 4, 3, withThreads(1));
    ASSERT_FALSE(result.interrupted);
    EXPECT_EQ(result.shardsRun, 2u);
    EXPECT_TRUE(fileExists(path));
    std::remove(path.c_str());
}

TEST(Campaign, EmptyPathDisablesPersistence)
{
    SignalGuard::reset();
    const LifetimeConfig config = testConfig();
    const LifetimeSimulator simulator(config);
    CampaignOptions options;
    options.shards = 3;
    CampaignRunner runner(testFingerprint(4, 6, 3), options);
    EXPECT_FALSE(runner.log().persistent());
    const CampaignResult result =
        runner.runUnit("matrix", simulator, {}, 6, 4, withThreads(2));
    ASSERT_FALSE(result.interrupted);
    const LifetimeSummary straight =
        simulator.runTrials(6, {}, 4, withThreads(2));
    expectIdentical(straight, result.summary);
}

} // namespace
} // namespace relaxfault
