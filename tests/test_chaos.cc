/**
 * @file
 * Chaos-layer tests: deterministic failpoint injection, errno-carrying
 * fs diagnostics, checkpoint publish retry, and fleet supervision
 * (heartbeat watchdog, shard quarantine).
 *
 * The contract under test is the one `bench/chaos_soak` enforces
 * end-to-end: under any shipped failpoint schedule a campaign either
 * completes with a bit-identical summary or fails loudly with a
 * site-named diagnostic — never a hang, never a corrupt checkpoint,
 * never a silently dropped shard. The env surface
 * (`RELAXFAULT_FAILPOINTS`) resolves through `applySpecList` at process
 * startup, so the death tests on `applySpecList`/`parseSpec` pin the
 * env contract too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>
#include <unistd.h>

#include "campaign/campaign.h"
#include "campaign/checkpoint.h"
#include "common/clock.h"
#include "common/failpoint.h"
#include "common/fs.h"
#include "common/signal_guard.h"
#include "fleet/fleet_sim.h"
#include "repair/relaxfault_repair.h"
#include "telemetry/metrics.h"
#include "telemetry/stats_plane.h"

#include "lifetime_expect.h"

namespace relaxfault {
namespace {

using failpoint::applySpecList;
using failpoint::arm;
using failpoint::describeArmed;
using failpoint::disarmAll;
using failpoint::evalCount;
using failpoint::fireCount;
using failpoint::parseSpec;

/** Every test leaves the process-global failpoint table clean. */
class ChaosTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        disarmAll();
        failpoint::setClock(nullptr);
    }
    void TearDown() override
    {
        disarmAll();
        failpoint::setClock(nullptr);
    }
};

using ChaosDeathTest = ChaosTest;

FailpointSpec
errorSpec(int errnum, FailpointSchedule schedule = FailpointSchedule::Always,
          uint64_t n = 0)
{
    FailpointSpec spec;
    spec.effect = FailpointEffect::Error;
    spec.errnum = errnum;
    spec.schedule = schedule;
    spec.n = n;
    return spec;
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "relaxfault_chaos_" + name + "_" +
           std::to_string(::getpid());
}

std::string
tmpFileOf(const std::string &path)
{
    return path + ".tmp." + std::to_string(::getpid());
}

uint64_t
counterValue(const MetricsSnapshot &snapshot, const std::string &name)
{
    for (const auto &[counter, value] : snapshot.counters) {
        if (counter == name)
            return value;
    }
    return 0;
}

// ---------------------------------------------------------------------
// Spec grammar.

TEST_F(ChaosTest, SpecParsingCoversTheGrammar)
{
    FailpointSpec spec = parseSpec("error");
    EXPECT_EQ(spec.effect, FailpointEffect::Error);
    EXPECT_EQ(spec.errnum, EIO);
    EXPECT_EQ(spec.schedule, FailpointSchedule::Always);

    spec = parseSpec("error=ENOSPC@nth=2");
    EXPECT_EQ(spec.effect, FailpointEffect::Error);
    EXPECT_EQ(spec.errnum, ENOSPC);
    EXPECT_EQ(spec.schedule, FailpointSchedule::Nth);
    EXPECT_EQ(spec.n, 2u);

    spec = parseSpec("short@every=3");
    EXPECT_EQ(spec.effect, FailpointEffect::ShortWrite);
    EXPECT_EQ(spec.schedule, FailpointSchedule::EveryKth);
    EXPECT_EQ(spec.n, 3u);

    spec = parseSpec("torn");
    EXPECT_EQ(spec.effect, FailpointEffect::TornRename);

    spec = parseSpec("delay=25@p=0.5/77");
    EXPECT_EQ(spec.effect, FailpointEffect::Delay);
    EXPECT_EQ(spec.delayMs, 25u);
    EXPECT_EQ(spec.schedule, FailpointSchedule::Prob);
    EXPECT_EQ(spec.probability, 0.5);
    EXPECT_EQ(spec.seed, 77u);

    spec = parseSpec("abort@nth=1");
    EXPECT_EQ(spec.effect, FailpointEffect::Abort);
    EXPECT_EQ(spec.n, 1u);
}

TEST_F(ChaosTest, ApplySpecListArmsNamedSites)
{
    EXPECT_FALSE(failpoint::anyArmed());
    applySpecList("fs.write:error=ENOSPC@nth=2,shm.pop:delay=5");
    EXPECT_TRUE(failpoint::anyArmed());
    const std::string armed = describeArmed();
    EXPECT_NE(armed.find("fs.write:error=ENOSPC@nth=2"),
              std::string::npos)
        << armed;
    EXPECT_NE(armed.find("shm.pop:delay=5"), std::string::npos) << armed;
    disarmAll();
    EXPECT_FALSE(failpoint::anyArmed());
    EXPECT_TRUE(describeArmed().empty());
}

TEST_F(ChaosTest, DescribeArmedRoundTripsThroughTheParser)
{
    applySpecList("fs.write:short@every=3,fs.rename:torn@nth=1,"
                  "ckpt.publish:error=EDQUOT@p=0.25/9");
    const std::string armed = describeArmed();
    disarmAll();
    // The description must itself be a valid spec list (replayable).
    applySpecList(armed);
    EXPECT_EQ(describeArmed(), armed);
}

// ---------------------------------------------------------------------
// Schedule determinism.

TEST_F(ChaosTest, NthFiresExactlyOnceAtTheNthEvaluation)
{
    arm(FailpointSite::FsWrite,
        errorSpec(EIO, FailpointSchedule::Nth, 3));
    for (unsigned call = 1; call <= 10; ++call) {
        const FailpointHit hit =
            failpoint::eval(FailpointSite::FsWrite);
        EXPECT_EQ(static_cast<bool>(hit), call == 3) << "call " << call;
    }
    EXPECT_EQ(evalCount(FailpointSite::FsWrite), 10u);
    EXPECT_EQ(fireCount(FailpointSite::FsWrite), 1u);
}

TEST_F(ChaosTest, EveryKthFiresPeriodically)
{
    arm(FailpointSite::FsFsync,
        errorSpec(EIO, FailpointSchedule::EveryKth, 4));
    unsigned fires = 0;
    for (unsigned call = 1; call <= 12; ++call) {
        if (failpoint::eval(FailpointSite::FsFsync)) {
            ++fires;
            EXPECT_EQ(call % 4, 0u) << "call " << call;
        }
    }
    EXPECT_EQ(fires, 3u);
    EXPECT_EQ(fireCount(FailpointSite::FsFsync), 3u);
}

TEST_F(ChaosTest, ProbScheduleReplaysBitIdenticallyFromItsSeed)
{
    FailpointSpec spec;
    spec.effect = FailpointEffect::Error;
    spec.errnum = EIO;
    spec.schedule = FailpointSchedule::Prob;
    spec.probability = 0.5;
    spec.seed = 99;

    const auto pattern = [&]() {
        arm(FailpointSite::FsOpen, spec);
        std::vector<bool> fired;
        for (unsigned call = 0; call < 64; ++call)
            fired.push_back(
                static_cast<bool>(failpoint::eval(FailpointSite::FsOpen)));
        return fired;
    };
    const std::vector<bool> first = pattern();
    const std::vector<bool> replay = pattern();
    EXPECT_EQ(first, replay);
    // A fair 64-flip pattern is neither empty nor full (p < 2^-63).
    EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
    EXPECT_NE(std::count(first.begin(), first.end(), true), 64);

    spec.seed = 100;  // A different stream, same probability.
    arm(FailpointSite::FsOpen, spec);
    std::vector<bool> other;
    for (unsigned call = 0; call < 64; ++call)
        other.push_back(
            static_cast<bool>(failpoint::eval(FailpointSite::FsOpen)));
    EXPECT_NE(first, other);
}

TEST_F(ChaosTest, DisabledSitesEvaluateQuietly)
{
    EXPECT_FALSE(failpoint::anyArmed());
    const uint64_t before = evalCount(FailpointSite::FsWrite);
    const FailpointHit hit = failpoint::eval(FailpointSite::FsWrite);
    EXPECT_FALSE(hit);
    EXPECT_EQ(hit.effect, FailpointEffect::None);
    // A disabled eval never reaches the armed-site counters.
    EXPECT_EQ(evalCount(FailpointSite::FsWrite), before);
}

TEST_F(ChaosTest, RearmingResetsTheCallCounters)
{
    arm(FailpointSite::FsWrite,
        errorSpec(EIO, FailpointSchedule::Nth, 2));
    failpoint::eval(FailpointSite::FsWrite);
    failpoint::eval(FailpointSite::FsWrite);
    EXPECT_EQ(evalCount(FailpointSite::FsWrite), 2u);
    EXPECT_EQ(fireCount(FailpointSite::FsWrite), 1u);
    arm(FailpointSite::FsWrite,
        errorSpec(EIO, FailpointSchedule::Nth, 2));
    EXPECT_EQ(evalCount(FailpointSite::FsWrite), 0u);
    EXPECT_EQ(fireCount(FailpointSite::FsWrite), 0u);
    // The nth schedule starts over: fires again on its (new) 2nd call.
    EXPECT_FALSE(failpoint::eval(FailpointSite::FsWrite));
    EXPECT_TRUE(failpoint::eval(FailpointSite::FsWrite));
}

// ---------------------------------------------------------------------
// Flag/env surface death tests. RELAXFAULT_FAILPOINTS resolves through
// applySpecList at startup, so these pin the env contract as well.

TEST_F(ChaosDeathTest, UnknownSiteIsFatalListingKnownSites)
{
    EXPECT_EXIT(applySpecList("fs.wrote:error"),
                ::testing::ExitedWithCode(1),
                "unknown site 'fs.wrote'.*known sites: fs.open, "
                "fs.write, fs.fsync, fs.rename, fs.close, ckpt.publish, "
                "shm.pop, fleet.pop");
}

TEST_F(ChaosDeathTest, EntryWithoutSpecIsFatal)
{
    EXPECT_EXIT(applySpecList("fs.write"), ::testing::ExitedWithCode(1),
                "has no spec .*site:effect");
}

TEST_F(ChaosDeathTest, MalformedSpecsAreFatalNamingTheGrammar)
{
    EXPECT_EXIT(parseSpec("explode"), ::testing::ExitedWithCode(1),
                "unknown effect 'explode'.*grammar");
    EXPECT_EXIT(parseSpec("error@sometimes"),
                ::testing::ExitedWithCode(1),
                "unknown schedule 'sometimes'");
    EXPECT_EXIT(parseSpec("delay"), ::testing::ExitedWithCode(1),
                "'delay' needs a duration");
    EXPECT_EXIT(parseSpec("error=EWHAT"), ::testing::ExitedWithCode(1),
                "unknown errno 'EWHAT'.*ENOSPC");
    EXPECT_EXIT(parseSpec("error@p=1.5"), ::testing::ExitedWithCode(1),
                "bad probability '1.5'");
    EXPECT_EXIT(parseSpec("error@nth=0"), ::testing::ExitedWithCode(1),
                "nth=N is 1-based");
}

TEST_F(ChaosDeathTest, IncompatibleEffectSitePairingsAreFatal)
{
    FailpointSpec spec;
    spec.effect = FailpointEffect::ShortWrite;
    EXPECT_EXIT(arm(FailpointSite::FsRename, spec),
                ::testing::ExitedWithCode(1),
                "'short' only applies to fs.write");
    spec.effect = FailpointEffect::TornRename;
    EXPECT_EXIT(arm(FailpointSite::FsWrite, spec),
                ::testing::ExitedWithCode(1),
                "'torn' only applies to fs.rename");
    EXPECT_EXIT(applySpecList("fleet.pop:error=EIO"),
                ::testing::ExitedWithCode(1),
                "incompatible with site 'fleet.pop'");
}

// ---------------------------------------------------------------------
// fs layer: errno-carrying diagnostics + injected syscall failures.

TEST_F(ChaosTest, InjectedEnospcNamesTheSyscallAndPreservesOldContent)
{
    const std::string path = tempPath("enospc");
    ASSERT_TRUE(atomicWriteFile(path, "old content\n"));

    arm(FailpointSite::FsWrite, errorSpec(ENOSPC));
    const IoResult io = atomicWriteFile(path, "new content\n");
    EXPECT_FALSE(io);
    EXPECT_EQ(io.errnum, ENOSPC);
    EXPECT_STREQ(io.op, "write");
    const std::string diagnostic = io.describe(path);
    EXPECT_NE(diagnostic.find("write(" + path + ")"), std::string::npos)
        << diagnostic;
    EXPECT_NE(diagnostic.find(std::strerror(ENOSPC)), std::string::npos)
        << diagnostic;

    // Atomicity: the old content survives and the tmp file is gone.
    disarmAll();
    std::string content;
    ASSERT_TRUE(readFile(path, content));
    EXPECT_EQ(content, "old content\n");
    EXPECT_FALSE(fileExists(tmpFileOf(path)));
    std::remove(path.c_str());
}

TEST_F(ChaosTest, SingleShortWriteRecoversWithIntactContent)
{
    const std::string path = tempPath("short_once");
    FailpointSpec spec;
    spec.effect = FailpointEffect::ShortWrite;
    spec.schedule = FailpointSchedule::Nth;
    spec.n = 1;
    arm(FailpointSite::FsWrite, spec);

    const std::string payload(4096, 'x');
    ASSERT_TRUE(atomicWriteFile(path, payload));
    EXPECT_GE(evalCount(FailpointSite::FsWrite), 2u);

    disarmAll();
    std::string content;
    ASSERT_TRUE(readFile(path, content));
    EXPECT_EQ(content, payload);
    std::remove(path.c_str());
}

TEST_F(ChaosTest, ShortWriteToZeroFailsInsteadOfSpinning)
{
    // `short@always` halves every request: 8 -> 4 -> 2 -> 1 -> 0, and a
    // zero-length write returns 0. Before the write()==0 fix this loop
    // never advanced `written` and spun forever; now it must fail
    // loudly (the ctest TIMEOUT would catch a regression to spinning).
    const std::string path = tempPath("short_spin");
    FailpointSpec spec;
    spec.effect = FailpointEffect::ShortWrite;
    arm(FailpointSite::FsWrite, spec);

    const IoResult io = atomicWriteFile(path, "12345678");
    EXPECT_FALSE(io);
    EXPECT_STREQ(io.op, "write");
    EXPECT_EQ(io.errnum, EIO);
    disarmAll();
    EXPECT_FALSE(fileExists(path));
    EXPECT_FALSE(fileExists(tmpFileOf(path)));
}

TEST_F(ChaosTest, TornRenameLeavesTheTmpAndTheOldContent)
{
    const std::string path = tempPath("torn");
    ASSERT_TRUE(atomicWriteFile(path, "old\n"));

    FailpointSpec spec;
    spec.effect = FailpointEffect::TornRename;
    spec.schedule = FailpointSchedule::Nth;
    spec.n = 1;
    arm(FailpointSite::FsRename, spec);

    const IoResult io = atomicWriteFile(path, "new\n");
    EXPECT_FALSE(io);
    EXPECT_STREQ(io.op, "rename");

    // The "crash" happened between write and rename: the destination
    // still has the old content and the fully-written tmp is stranded.
    std::string content;
    ASSERT_TRUE(readFile(path, content));
    EXPECT_EQ(content, "old\n");
    ASSERT_TRUE(fileExists(tmpFileOf(path)));
    ASSERT_TRUE(readFile(tmpFileOf(path), content));
    EXPECT_EQ(content, "new\n");

    // The retry (nth=1 already fired) publishes and consumes the tmp.
    ASSERT_TRUE(atomicWriteFile(path, "new\n"));
    ASSERT_TRUE(readFile(path, content));
    EXPECT_EQ(content, "new\n");
    EXPECT_FALSE(fileExists(tmpFileOf(path)));
    std::remove(path.c_str());
}

TEST_F(ChaosTest, EverySyscallSiteCarriesItsInjectedErrno)
{
    const std::string path = tempPath("sites");
    struct Case
    {
        FailpointSite site;
        int errnum;
        const char *op;
    };
    const Case cases[] = {
        {FailpointSite::FsOpen, EMFILE, "open"},
        {FailpointSite::FsFsync, EIO, "fsync"},
        {FailpointSite::FsClose, EIO, "close"},
        {FailpointSite::FsRename, EACCES, "rename"},
    };
    for (const Case &c : cases) {
        disarmAll();
        arm(c.site, errorSpec(c.errnum));
        const IoResult io = atomicWriteFile(path, "payload");
        EXPECT_FALSE(io) << c.op;
        EXPECT_EQ(io.errnum, c.errnum) << c.op;
        EXPECT_STREQ(io.op, c.op);
        disarmAll();
        EXPECT_FALSE(fileExists(tmpFileOf(path))) << c.op;
    }
    EXPECT_FALSE(fileExists(path));
}

TEST_F(ChaosTest, ReadFileReportsTheFailingSyscall)
{
    const std::string missing = tempPath("does_not_exist");
    std::string out;
    const IoResult io = readFile(missing, out);
    EXPECT_FALSE(io);
    EXPECT_STREQ(io.op, "open");
    EXPECT_EQ(io.errnum, ENOENT);
    EXPECT_NE(io.describe(missing).find(std::strerror(ENOENT)),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Checkpoint publish: bounded retry with backoff on the injected clock.

CampaignFingerprint
chaosFingerprint()
{
    CampaignFingerprint fingerprint;
    fingerprint.campaign = "test_chaos";
    fingerprint.seed = 7;
    fingerprint.trials = 4;
    fingerprint.shards = 2;
    fingerprint.config = "chaos";
    return fingerprint;
}

ShardRecord
chaosRecord(unsigned shard)
{
    ShardRecord record;
    record.unit = "unit";
    record.shard = shard;
    record.firstTrial = shard * 2;
    LifetimeMetrics m;
    m.faultyNodes = 1.0 + shard;
    record.trials.push_back(m);
    return record;
}

TEST_F(ChaosTest, PublishRetriesTransientFailuresOnTheInjectedClock)
{
    const std::string path = tempPath("retry.ckpt");
    std::remove(path.c_str());
    FakeClock clock;
    MetricRegistry metrics;
    CheckpointLog log(path, chaosFingerprint(), /*resume=*/false);
    log.setClock(&clock);
    log.setMetrics(&metrics);
    log.setRetryPolicy({/*maxAttempts=*/5, /*backoffMs=*/10});

    // Attempt 1 dies at the publish site, attempt 2 dies at the first
    // write(2) of the republish, attempt 3 succeeds: the backoff ladder
    // must be exactly 10ms then 20ms, recorded by the FakeClock (no
    // real sleeps anywhere in this test).
    arm(FailpointSite::CkptPublish,
        errorSpec(ENOSPC, FailpointSchedule::Nth, 1));
    arm(FailpointSite::FsWrite,
        errorSpec(ENOSPC, FailpointSchedule::Nth, 1));
    log.commit(chaosRecord(0));
    disarmAll();

    EXPECT_EQ(log.publishRetries(), 2u);
    const std::vector<std::chrono::milliseconds> expected = {
        std::chrono::milliseconds(10), std::chrono::milliseconds(20)};
    EXPECT_EQ(clock.sleeps(), expected);
    EXPECT_EQ(counterValue(metrics.snapshot(), "fs.retries"), 2u);

    // The commit that eventually succeeded is durable and resumable.
    const CheckpointLog resumed(path, chaosFingerprint(),
                                /*resume=*/true);
    EXPECT_NE(resumed.find("unit", 0), nullptr);
    EXPECT_EQ(resumed.tornLines(), 0u);
    std::remove(path.c_str());
}

TEST_F(ChaosDeathTest, PublishExhaustionIsFatalWithASiteDiagnostic)
{
    const std::string path = tempPath("exhaust.ckpt");
    std::remove(path.c_str());
    FakeClock clock;
    CheckpointLog log(path, chaosFingerprint(), /*resume=*/false);
    log.setClock(&clock);
    log.setRetryPolicy({/*maxAttempts=*/3, /*backoffMs=*/1});

    arm(FailpointSite::CkptPublish, errorSpec(ENOSPC));
    EXPECT_EXIT(log.commit(chaosRecord(0)),
                ::testing::ExitedWithCode(1),
                "cannot write checkpoint after 3 attempt.*publish\\(.*"
                "No space left on device");
    disarmAll();
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Shard claims: injected `shm.pop` delays run on the failpoint clock.

TEST_F(ChaosTest, ShmPopDelaySleepsOnTheInjectedClock)
{
    FakeClock clock;
    failpoint::setClock(&clock);
    FailpointSpec spec;
    spec.effect = FailpointEffect::Delay;
    spec.delayMs = 7;
    spec.schedule = FailpointSchedule::EveryKth;
    spec.n = 2;
    arm(FailpointSite::ShmPop, spec);

    StatsPlane plane = StatsPlane::create("", 1, "claim_delay");
    uint64_t index = 0;
    ASSERT_TRUE(plane.claim(2, index));
    EXPECT_EQ(index, 0u);
    ASSERT_TRUE(plane.claim(2, index));  // 2nd claim: the delay fires here.
    EXPECT_EQ(index, 1u);
    EXPECT_FALSE(plane.claim(2, index));  // 3rd eval, no fire.

    const std::vector<std::chrono::milliseconds> expected = {
        std::chrono::milliseconds(7)};
    EXPECT_EQ(clock.sleeps(), expected);
    EXPECT_EQ(evalCount(FailpointSite::ShmPop), 3u);
    EXPECT_EQ(fireCount(FailpointSite::ShmPop), 1u);
}

// ---------------------------------------------------------------------
// Fleet supervision: hung-worker watchdog and shard quarantine.

LifetimeConfig
chaosFleetConfig()
{
    LifetimeConfig config;
    config.nodesPerSystem = 128;
    config.faultModel.fitScale = 10.0;
    config.policy = ReplacePolicy::AfterDue;
    return config;
}

FleetSimulator::MechanismFactory
chaosFactory(const LifetimeConfig &config)
{
    const DramGeometry geometry = config.faultModel.geometry;
    const CacheGeometry llc{8 * 1024 * 1024, 16, 64};
    return [geometry, llc] {
        return std::make_unique<RelaxFaultRepair>(
            geometry, llc, RepairBudget{4, 32768}, true);
    };
}

TrialRunOptions
chaosRun(MetricRegistry *metrics = nullptr)
{
    TrialRunOptions options;
    options.parallel.threads = 1;
    options.metrics = metrics;
    return options;
}

CampaignFingerprint
fleetFingerprint(uint64_t seed, uint64_t trials, unsigned shards)
{
    CampaignFingerprint fingerprint;
    fingerprint.campaign = "test_chaos_fleet";
    fingerprint.seed = seed;
    fingerprint.trials = trials;
    fingerprint.shards = shards;
    fingerprint.config = "chaos";
    return fingerprint;
}

TEST_F(ChaosTest, HungWorkerIsKilledAndItsShardRecoveredBitIdentically)
{
    SignalGuard::reset();
    const LifetimeConfig config = chaosFleetConfig();
    const FleetSimulator simulator(config);
    const auto factory = chaosFactory(config);
    constexpr unsigned kTrials = 8;
    constexpr uint64_t kSeed = 42;

    const LifetimeSummary straight =
        simulator.runTrials(kTrials, factory, kSeed, chaosRun());

    // Whichever worker pops shard 1 in round 1 goes to sleep for far
    // longer than the watchdog deadline — a hang, not a crash. The
    // watchdog must SIGKILL it within ~watchdogMs on the parent's own
    // clock and round 2 must re-run the reclaimed shard (round 2 pops
    // skip the stall, so recovery is deterministic, never timing-tuned).
    CampaignOptions options;
    options.workers = 2;
    options.shards = 4;
    options.maxRounds = 3;
    options.watchdogMs = 250;
    options.pollMs = 5;
    options.onWorkerPop = [](unsigned, unsigned round, uint64_t shard) {
        if (round == 1 && shard == 1)
            ::sleep(600);  // Far past the deadline; SIGKILL ends it.
    };
    CampaignRunner pool(fleetFingerprint(kSeed, kTrials, 4),
                              options);
    MetricRegistry metrics;
    const CampaignResult result = pool.runUnit(
        "fleet", simulator, factory, kTrials, kSeed,
        chaosRun(&metrics));

    ASSERT_FALSE(result.interrupted);
    EXPECT_EQ(result.shardsRun, 4u);
    EXPECT_TRUE(result.quarantinedShards.empty());
    expectIdentical(straight, result.summary);
    EXPECT_GE(pool.workersStalled(), 1u);
    EXPECT_GE(counterValue(metrics.snapshot(), "fleet.workers_stalled"),
              1u);
}

TEST_F(ChaosTest, PoisonShardIsQuarantinedAndTheMergeStaysPartial)
{
    SignalGuard::reset();
    const LifetimeConfig config = chaosFleetConfig();
    const FleetSimulator simulator(config);
    const auto factory = chaosFactory(config);
    constexpr unsigned kTrials = 8;
    constexpr unsigned kShards = 4;
    constexpr uint64_t kSeed = 43;
    const std::string base = tempPath("quarantine.ckpt");

    // Shard 2 SIGKILLs every worker that leases it, in every round: a
    // poison shard. With quarantineAfter=2 the supervisor gives up on
    // it after two distinct crashed attempts instead of failing the
    // whole campaign.
    CampaignOptions options;
    options.workers = 2;
    options.checkpointPath = base;
    options.shards = kShards;
    options.maxRounds = 4;
    options.quarantineAfter = 2;
    options.onWorkerPop = [](unsigned, unsigned, uint64_t shard) {
        if (shard == 2)
            std::raise(SIGKILL);
    };
    CampaignRunner pool(fleetFingerprint(kSeed, kTrials, kShards),
                              options);
    MetricRegistry metrics;
    const CampaignResult result = pool.runUnit(
        "fleet", simulator, factory, kTrials, kSeed,
        chaosRun(&metrics));

    ASSERT_FALSE(result.interrupted);
    ASSERT_EQ(result.quarantinedShards,
              (std::vector<unsigned>{2u}));
    EXPECT_EQ(result.shardsRun, kShards - 1);
    EXPECT_EQ(pool.shardsQuarantined(), 1u);
    EXPECT_EQ(counterValue(metrics.snapshot(),
                           "fleet.shards_quarantined"),
              1u);

    // The partial summary is exactly the healthy shards, bit for bit.
    LifetimeSummary expected;
    for (unsigned shard = 0; shard < kShards; ++shard) {
        if (shard == 2)
            continue;
        const uint64_t first =
            CampaignRunner::shardFirstTrial(kTrials, kShards, shard);
        const uint64_t end = CampaignRunner::shardFirstTrial(
            kTrials, kShards, shard + 1);
        for (const LifetimeMetrics &m : simulator.runTrialRange(
                 first, static_cast<unsigned>(end - first), factory,
                 kSeed, chaosRun()))
            expected.addTrial(m);
    }
    expectIdentical(expected, result.summary);

    // Forensics: the quarantine verdict is on disk in the supervisor
    // log, never silently dropped.
    const std::string supervisor =
        CampaignRunner::supervisorLogPath(base);
    ASSERT_TRUE(fileExists(supervisor));
    std::string forensic;
    ASSERT_TRUE(readFile(supervisor, forensic));
    EXPECT_NE(forensic.find("shard_quarantined"), std::string::npos);
    EXPECT_NE(forensic.find("2 distinct worker attempt"),
              std::string::npos)
        << forensic;

    for (unsigned slot = 0; slot < CampaignRunner::kMaxWorkers;
         ++slot)
        std::remove(
            CampaignRunner::workerLogPath(base, slot).c_str());
    std::remove(supervisor.c_str());
}

TEST_F(ChaosTest, HangingShardIsQuarantinedAfterWatchdogKills)
{
    SignalGuard::reset();
    const LifetimeConfig config = chaosFleetConfig();
    const FleetSimulator simulator(config);
    constexpr unsigned kTrials = 6;
    constexpr unsigned kShards = 3;
    constexpr uint64_t kSeed = 45;

    // Shard 1 hangs in every round: whichever worker claims it sleeps
    // far past the deadline and is SIGKILLed by the watchdog. The stamp
    // of Stalled overwrites the slot's phase, so the kill is charged to
    // shard 1 only if the supervisor kept the lease it read before
    // stamping — after two kills the shard must be quarantined.
    CampaignOptions options;
    options.workers = 2;
    options.shards = kShards;
    options.quarantineAfter = 2;
    options.watchdogMs = 250;
    options.pollMs = 5;
    options.onWorkerPop = [](unsigned, unsigned, uint64_t shard) {
        if (shard == 1)
            ::sleep(600);  // Far past the deadline; SIGKILL ends it.
    };
    CampaignRunner pool(fleetFingerprint(kSeed, kTrials, kShards),
                        options);
    const CampaignResult result = pool.runUnit(
        "fleet", simulator, chaosFactory(config), kTrials, kSeed,
        chaosRun());
    ASSERT_FALSE(result.interrupted);
    EXPECT_EQ(result.quarantinedShards, (std::vector<unsigned>{1u}));
    EXPECT_EQ(result.shardsRun, kShards - 1);
    EXPECT_EQ(pool.shardsQuarantined(), 1u);
    EXPECT_GE(pool.workersStalled(), 2u);
}

TEST_F(ChaosTest, QuarantineRaisesTheDefaultRoundBudgetItself)
{
    SignalGuard::reset();
    const LifetimeConfig config = chaosFleetConfig();
    const FleetSimulator simulator(config);
    constexpr unsigned kTrials = 6;
    constexpr unsigned kShards = 3;
    constexpr uint64_t kSeed = 44;

    // One worker pops in shard order: rounds 1 and 2 each die on shard 1
    // and leave shard 2 unrun, so finishing it after the verdict takes a
    // third round. The default maxRounds (2) would make that fatal
    // unless the runner derives maxRounds >= quarantineAfter + 1 itself.
    CampaignOptions options;
    options.workers = 1;
    options.shards = kShards;
    options.quarantineAfter = 2;
    options.onWorkerPop = [](unsigned, unsigned, uint64_t shard) {
        if (shard == 1)
            std::raise(SIGKILL);
    };
    CampaignRunner pool(fleetFingerprint(kSeed, kTrials, kShards),
                        options);
    const CampaignResult result = pool.runUnit(
        "fleet", simulator, chaosFactory(config), kTrials, kSeed,
        chaosRun());
    ASSERT_FALSE(result.interrupted);
    EXPECT_EQ(result.quarantinedShards, (std::vector<unsigned>{1u}));
    EXPECT_EQ(result.shardsRun, kShards - 1);
    EXPECT_EQ(pool.shardsQuarantined(), 1u);
}

} // namespace
} // namespace relaxfault
