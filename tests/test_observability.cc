/**
 * @file
 * Tests for the live observability plane (DESIGN.md §15): the
 * shared-memory stats plane, the OpenMetrics exporter, the SIGPROF
 * sampling profiler, the heartbeat staleness monitor, and the
 * bench-diff comparison engine.
 *
 * The load-bearing contracts:
 *
 *  - Observation-only: enabling the stats publisher and the profiler
 *    leaves every simulation result bit-identical, at 1 and 4 threads
 *    (exact double equality — the ISSUE's acceptance bar).
 *  - A slot sample is always readable and consistent where it must be
 *    (valid phase, monotone and never ahead of started completions),
 *    including under a concurrent writer and across a real fork.
 *  - The plane's claim cursor hands every shard of a pending list to
 *    exactly one claimer across forked workers and threads, and a
 *    cursor past the list ends every claim loop.
 *  - `HeartbeatMonitor` staleness is wraparound-safe, catches zero-tick
 *    workers, and measures only the parent's own clock.
 *  - `sim.peak_rss_bytes` folds max-within-process / max-across-shards
 *    / sum-across-slots (never additive).
 *  - A synthetic 2x perf regression fails `compareBenchRecords`; the
 *    `minNs` noise floor and informational columns never gate.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/mman.h>

#include <atomic>
#include <cctype>
#include <csignal>
#include <cstdint>
#include <new>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "campaign/campaign.h"
#include "common/clock.h"
#include "common/fs.h"
#include "common/log.h"
#include "common/heartbeat.h"
#include "common/process.h"
#include "repair/relaxfault_repair.h"
#include "sim/lifetime.h"
#include "telemetry/bench_compare.h"
#include "telemetry/json_reader.h"
#include "telemetry/metrics.h"
#include "telemetry/openmetrics.h"
#include "telemetry/profiler.h"
#include "telemetry/stats_plane.h"
#include "tracing/tracer.h"

#include "lifetime_expect.h"

namespace relaxfault {
namespace {

LifetimeConfig
testConfig()
{
    // Small but active: 10x FIT on 128 nodes keeps every metric nonzero
    // while a run stays well under a second.
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

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "relaxfault_obs_" + name + "_" +
           std::to_string(::getpid());
}

// ---------------------------------------------------------------------
// StatsPlane: create / publish / observe.

TEST(StatsPlane, PublishAndReadBack)
{
    const std::string path = tempPath("plane_rw");
    StatsPlane plane = StatsPlane::create(path, 2, "test_campaign");
    EXPECT_EQ(plane.slots(), 2u);
    EXPECT_EQ(plane.campaign(), "test_campaign");
    EXPECT_EQ(plane.ownerPid(), static_cast<uint64_t>(::getpid()));
    EXPECT_GT(plane.startEpochMs(), 0u);
    EXPECT_EQ(plane.quarantinedShards(), 0u);

    StatsPublisher pub = plane.publisher(0);
    ASSERT_TRUE(pub.enabled());
    pub.announce(StatsPhase::Running);
    pub.beginShard(3);
    for (int i = 0; i < 5; ++i) {
        pub.trialStarted();
        pub.trialFinished();
    }
    StatsSlotSample sample = plane.readSlot(0);
    EXPECT_EQ(sample.pid, static_cast<uint64_t>(::getpid()));
    EXPECT_EQ(sample.phase, StatsPhase::Running);
    EXPECT_EQ(sample.shard, 3u);
    EXPECT_EQ(sample.trialsStarted, 5u);
    EXPECT_EQ(sample.trialsCompleted, 5u);
    EXPECT_GT(sample.heartbeatTick, 0u);

    pub.endShard();
    pub.setPhase(StatsPhase::Done);
    sample = plane.readSlot(0);
    EXPECT_EQ(sample.phase, StatsPhase::Done);
    // Counters survive the phase transitions (monotone, never reset).
    EXPECT_EQ(sample.trialsCompleted, 5u);

    plane.noteQuarantine();
    EXPECT_EQ(plane.quarantinedShards(), 1u);
    plane.markPhase(1, StatsPhase::Crashed);
    sample = plane.readSlot(1);
    EXPECT_EQ(sample.phase, StatsPhase::Crashed);
    std::remove(path.c_str());
}

TEST(StatsPlane, AttachValidatesForeignBytes)
{
    std::string error;
    EXPECT_EQ(StatsPlane::attach(tempPath("plane_missing"), &error),
              nullptr);
    EXPECT_FALSE(error.empty());

    const std::string junk = tempPath("plane_junk");
    ASSERT_TRUE(atomicWriteFile(
        junk, std::string(8192, 'x')));
    error.clear();
    EXPECT_EQ(StatsPlane::attach(junk, &error), nullptr);
    EXPECT_FALSE(error.empty());
    std::remove(junk.c_str());
}

TEST(StatsPlane, ObserverAttachSeesWriterUpdates)
{
    const std::string path = tempPath("plane_attach");
    StatsPlane plane = StatsPlane::create(path, 1, "attach_test");
    StatsPublisher pub = plane.publisher(0);
    pub.announce(StatsPhase::Running);
    pub.trialStarted();
    pub.trialFinished();

    std::string error;
    const std::unique_ptr<StatsPlane> observer =
        StatsPlane::attach(path, &error);
    ASSERT_NE(observer, nullptr) << error;
    EXPECT_EQ(observer->campaign(), "attach_test");
    StatsSlotSample sample = observer->readSlot(0);
    EXPECT_EQ(sample.trialsCompleted, 1u);
    // Writes land through the shared file pages without re-attach.
    pub.trialStarted();
    pub.trialFinished();
    sample = observer->readSlot(0);
    EXPECT_EQ(sample.trialsCompleted, 2u);
    std::remove(path.c_str());
}

TEST(StatsPlane, ConcurrentReaderSeesConsistentSlotWords)
{
    const std::string path = tempPath("plane_torn");
    StatsPlane plane = StatsPlane::create(path, 1, "reader_test");
    StatsPublisher pub = plane.publisher(0);
    pub.announce(StatsPhase::Running);

    // A jthread stops and joins the writer on every exit, so a failed
    // ASSERT reports a failure instead of destroying a joinable thread.
    std::jthread writer([&](std::stop_token stop) {
        uint64_t shard = 0;
        while (!stop.stop_requested()) {
            pub.beginShard(shard++);
            for (int i = 0; i < 16; ++i) {
                pub.trialStarted();
                pub.trialFinished();
            }
            pub.endShard();
        }
    });
    uint64_t last_completed = 0;
    for (int i = 0; i < 20000; ++i) {
        const StatsSlotSample sample = plane.readSlot(0);
        // Phase is always a value the writer actually stores.
        EXPECT_LE(static_cast<unsigned>(sample.phase),
                  static_cast<unsigned>(StatsPhase::Crashed));
        EXPECT_GE(sample.trialsCompleted, last_completed);
        EXPECT_GE(sample.trialsStarted, sample.trialsCompleted);
        last_completed = sample.trialsCompleted;
    }
    std::remove(path.c_str());
}

TEST(StatsPlane, ForkedChildPublishesThroughSharedPages)
{
    const std::string path = tempPath("plane_fork");
    StatsPlane plane = StatsPlane::create(path, 2, "fork_test");
    const pid_t pid = spawnProcess([&plane] {
        StatsPublisher pub = plane.publisher(1);
        pub.announce(StatsPhase::Running);
        pub.beginShard(7);
        for (int i = 0; i < 9; ++i) {
            pub.trialStarted();
            pub.trialFinished();
        }
        pub.setPhase(StatsPhase::Done);
        return 0;
    });
    const ProcessStatus status = waitProcess(pid);
    EXPECT_TRUE(status.ok());
    StatsSlotSample sample = plane.readSlot(1);
    EXPECT_EQ(sample.pid, static_cast<uint64_t>(pid));
    EXPECT_EQ(sample.phase, StatsPhase::Done);
    EXPECT_EQ(sample.shard, 7u);
    EXPECT_EQ(sample.trialsCompleted, 9u);
    std::remove(path.c_str());
}

TEST(StatsPlane, AttachRefusesAVersion2Plane)
{
    const std::string path = tempPath("plane_v2");
    {
        const StatsPlane plane = StatsPlane::create(path, 1, "v2_test");
    }
    // Rewrite the version word, which follows the 8-byte magic, to the
    // layout before the header carried the claim cursor (2) and to the
    // one whose slots carried a sequence word and a rate (3).
    for (const uint32_t version : {2u, 3u}) {
        const int fd = ::open(path.c_str(), O_WRONLY);
        ASSERT_GE(fd, 0);
        EXPECT_EQ(::pwrite(fd, &version, sizeof version, 8),
                  static_cast<ssize_t>(sizeof version));
        ::close(fd);
        std::string error;
        EXPECT_EQ(StatsPlane::attach(path, &error), nullptr);
        EXPECT_NE(error.find("unsupported stats plane version " +
                             std::to_string(version)),
                  std::string::npos)
            << error;
    }
    std::remove(path.c_str());
}

TEST(StatsPlane, ScribbledSlotCountNeverReadsPastTheMapping)
{
    // Anyone with write access to a file-backed plane can rewrite the
    // header's slot count after an observer attached; the observer
    // must keep reading inside its own mapping.
    const std::string path = tempPath("plane_slot_count");
    StatsPlane plane = StatsPlane::create(path, 2, "slot_count");
    std::string error;
    const std::unique_ptr<StatsPlane> observer =
        StatsPlane::attach(path, &error);
    ASSERT_NE(observer, nullptr) << error;
    const int fd = ::open(path.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    // The slot count follows the magic and the version, at byte 12.
    const uint32_t scribbled = 200;
    ASSERT_EQ(::pwrite(fd, &scribbled, sizeof scribbled, 12),
              static_cast<ssize_t>(sizeof scribbled));
    ::close(fd);
    EXPECT_EQ(observer->slots(), 2u);
    for (size_t slot = 0; slot < observer->slots(); ++slot)
        EXPECT_EQ(observer->readSlot(slot).trialsCompleted, 0u);
    std::remove(path.c_str());
}

TEST(StatsPlane, LeaseReadsPhaseShardAndTickOfASlot)
{
    StatsPlane plane = StatsPlane::create("", 2, "lease_test");
    StatsPublisher pub = plane.publisher(1);
    pub.announce(StatsPhase::Idle);
    EXPECT_FALSE(plane.readSlot(1).held());

    pub.beginShard(9);
    StatsSlotSample lease = plane.readSlot(1);
    EXPECT_TRUE(lease.held());
    EXPECT_EQ(lease.phase, StatsPhase::Running);
    EXPECT_EQ(lease.shard, 9u);
    const uint64_t tick = lease.heartbeatTick;
    pub.trialStarted();
    pub.trialFinished();
    EXPECT_GT(plane.readSlot(1).heartbeatTick, tick);
    pub.setPhase(StatsPhase::Committing);
    EXPECT_TRUE(plane.readSlot(1).held());

    // A supervisor stamp replaces the phase but keeps the shard.
    plane.markPhase(1, StatsPhase::Stalled);
    lease = plane.readSlot(1);
    EXPECT_FALSE(lease.held());
    EXPECT_EQ(lease.shard, 9u);
    EXPECT_FALSE(plane.readSlot(0).held());
}

TEST(StatsPlane, CrashVerdictIsReadableOnAKilledWritersSlot)
{
    // A writer SIGKILLed inside a shard leaves its slot mid-update; the
    // supervisor's Crashed stamp must still read back as the verdict,
    // next to the shard and counts the writer had published.
    StatsPlane plane = StatsPlane::create("", 1, "killed_test");
    const pid_t pid = spawnProcess([&plane] {
        StatsPublisher pub = plane.publisher(0);
        pub.announce(StatsPhase::Idle);
        pub.beginShard(5);
        pub.trialStarted();
        pub.trialFinished();
        pub.trialStarted();
        std::raise(SIGKILL);
        return 0;
    });
    const ProcessStatus status = waitProcess(pid);
    EXPECT_TRUE(status.signaled);
    EXPECT_TRUE(plane.readSlot(0).held());
    plane.markPhase(0, StatsPhase::Crashed);
    const StatsSlotSample sample = plane.readSlot(0);
    EXPECT_EQ(sample.phase, StatsPhase::Crashed);
    EXPECT_EQ(sample.shard, 5u);
    EXPECT_EQ(sample.trialsStarted, 2u);
    EXPECT_EQ(sample.trialsCompleted, 1u);
    EXPECT_GT(sample.updateEpochMs, 0u);
}

// ---------------------------------------------------------------------
// Shard claims: the plane's cursor hands out every index exactly once.

TEST(StatsPlaneClaims, ForkedWorkersAndThreadsClaimEveryShardOnce)
{
    constexpr uint64_t kShards = 1000;
    constexpr int kWorkers = 4;
    constexpr int kThreads = 4;
    StatsPlane plane = StatsPlane::create("", 1, "claim_test");
    // One claim counter per shard, in memory the forked claimers share.
    const size_t bytes = kShards * sizeof(std::atomic<uint32_t>);
    void *map = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    ASSERT_NE(map, MAP_FAILED);
    auto *claims = new (map) std::atomic<uint32_t>[kShards]();

    // 0 when the loop ended on an index past the list, as it must.
    const auto claim_all = [&plane, claims]() {
        uint64_t index = 0;
        while (plane.claim(kShards, index))
            claims[index].fetch_add(1, std::memory_order_relaxed);
        return index >= kShards ? 0 : 1;
    };
    plane.resetClaims();
    std::vector<pid_t> pids;
    for (int i = 0; i < kWorkers; ++i)
        pids.push_back(spawnProcess(claim_all));
    {
        std::vector<std::jthread> threads;
        for (int i = 0; i < kThreads; ++i)
            threads.emplace_back([&claim_all] { EXPECT_EQ(claim_all(), 0); });
    }
    for (const pid_t pid : pids) {
        const ProcessStatus status = waitProcess(pid);
        EXPECT_TRUE(status.ok()) << "claimer exit " << status.exitCode;
    }
    for (uint64_t shard = 0; shard < kShards; ++shard)
        ASSERT_EQ(claims[shard].load(), 1u) << "shard " << shard;
    ::munmap(map, bytes);
}

TEST(StatsPlaneClaims, OutOfRangeCursorEndsTheClaimLoop)
{
    // Anyone with write access to a file-backed plane can move the
    // cursor; a value past the list must end the loop, never index
    // past the worker's copy of it.
    const std::string path = tempPath("plane_cursor");
    StatsPlane plane = StatsPlane::create(path, 1, "claim_range");
    const int fd = ::open(path.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    uint64_t index = 0;
    for (const uint64_t cursor :
         {uint64_t{10}, uint64_t{11}, uint64_t{1} << 40, UINT64_MAX - 1}) {
        // The cursor is the header's word after the quarantine count,
        // at byte 48; the write lands in the shared mapping's pages.
        ASSERT_EQ(::pwrite(fd, &cursor, sizeof cursor, 48),
                  static_cast<ssize_t>(sizeof cursor));
        EXPECT_FALSE(plane.claim(10, index));
        EXPECT_EQ(index, cursor);
    }
    ::close(fd);
    std::remove(path.c_str());
    plane.resetClaims();
    for (uint64_t expected = 0; expected < 10; ++expected) {
        ASSERT_TRUE(plane.claim(10, index));
        EXPECT_EQ(index, expected);
    }
    EXPECT_FALSE(plane.claim(10, index));
    EXPECT_FALSE(plane.claim(10, index));
}

// ---------------------------------------------------------------------
// Observation-only: stats + profiler leave results bit-identical.

TEST(ObservationOnly, StatsAndProfilerPreserveBitIdentity)
{
    const LifetimeConfig config = testConfig();
    const LifetimeSimulator simulator(config);
    const auto factory = relaxFactory(config);
    constexpr unsigned kTrials = 8;
    constexpr uint64_t kSeed = 42;

    TrialRunOptions plain;
    plain.parallel.threads = 1;
    const LifetimeSummary baseline =
        simulator.runTrials(kTrials, factory, kSeed, plain);

    const std::string path = tempPath("plane_identity");
    StatsPlane plane = StatsPlane::create(path, 1, "identity");
    StatsPublisher pub = plane.publisher(0);
    pub.announce(StatsPhase::Running);
    profiler::reset();
    profiler::start();
    for (const unsigned threads : {1u, 4u}) {
        MetricRegistry registry;
        TrialRunOptions instrumented;
        instrumented.parallel.threads = threads;
        instrumented.metrics = &registry;
        instrumented.stats = &pub;
        const LifetimeSummary observed =
            simulator.runTrials(kTrials, factory, kSeed, instrumented);
        expectIdentical(baseline, observed);
    }
    profiler::stop();
    StatsSlotSample sample = plane.readSlot(0);
    // Both instrumented runs published: 2 engines x kTrials.
    EXPECT_EQ(sample.trialsCompleted, 2 * kTrials);
    EXPECT_EQ(sample.trialsStarted, 2 * kTrials);
    profiler::reset();
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// OpenMetrics rendering.

/** OpenMetrics metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. */
bool
validMetricName(const std::string &name)
{
    if (name.empty() ||
        (std::isalpha(static_cast<unsigned char>(name[0])) == 0 &&
         name[0] != '_' && name[0] != ':'))
        return false;
    for (const char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c)) == 0 &&
            c != '_' && c != ':')
            return false;
    }
    return true;
}

TEST(OpenMetrics, RenderedTextIsLintClean)
{
    MetricRegistry registry;
    registry.counter("sim.dues").add(5);
    registry.counter("repair.fail-stops").add(0);
    registry.gauge("sim.peak_rss_bytes").set(1 << 20);
    Log2Histogram &hist = registry.histogram("sim.trial_us");
    hist.record(10);
    hist.record(1000);
    hist.record(100000);

    const std::string text = registry.renderOpenMetrics();
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
    EXPECT_NE(text.find("# TYPE relaxfault_sim_dues counter"),
              std::string::npos);
    EXPECT_NE(text.find("relaxfault_sim_dues_total 5"),
              std::string::npos);
    // '-' is not in the OpenMetrics charset; sanitizer maps it to '_'.
    EXPECT_NE(text.find("relaxfault_repair_fail_stops_total"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE relaxfault_sim_peak_rss_bytes gauge"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE relaxfault_sim_trial_us summary"),
              std::string::npos);
    EXPECT_NE(text.find("relaxfault_sim_trial_us_count 3"),
              std::string::npos);
    EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);

    // Every exposition line is a comment, blank, or `name[{labels}] value`
    // with a charset-clean name.
    for (const std::string &line : splitLines(text)) {
        if (line.empty() || line[0] == '#')
            continue;
        const size_t name_end = line.find_first_of("{ ");
        ASSERT_NE(name_end, std::string::npos) << line;
        EXPECT_TRUE(validMetricName(line.substr(0, name_end))) << line;
    }
}

TEST(OpenMetrics, ExporterWritesAtomicSnapshots)
{
    MetricRegistry registry;
    registry.counter("sim.trials").add(3);
    const std::string path = tempPath("metrics.om");
    OpenMetricsExporter exporter(registry, path, /*periodMs=*/0);
    EXPECT_EQ(exporter.snapshotsWritten(), 0u);
    exporter.writeNow();
    EXPECT_EQ(exporter.snapshotsWritten(), 1u);
    std::string text;
    ASSERT_TRUE(readFile(path, text));
    EXPECT_NE(text.find("relaxfault_sim_trials_total 3"),
              std::string::npos);
    EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
    registry.counter("sim.trials").add(1);
    exporter.stop();  // Final snapshot on stop.
    ASSERT_TRUE(readFile(path, text));
    EXPECT_NE(text.find("relaxfault_sim_trials_total 4"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(OpenMetrics, PeriodicExporterPublishesWhileRunning)
{
    MetricRegistry registry;
    registry.counter("sim.trials").add(1);
    const std::string path = tempPath("metrics_periodic.om");
    {
        OpenMetricsExporter exporter(registry, path, /*periodMs=*/5);
        // The background thread writes on its cadence without writeNow.
        for (int i = 0; i < 200 && exporter.snapshotsWritten() == 0; ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        EXPECT_GT(exporter.snapshotsWritten(), 0u);
        exporter.stop();
    }
    std::string text;
    ASSERT_TRUE(readFile(path, text));
    EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Profiler: folded output and determinism of the marker tree.

TEST(Profiler, FoldedStacksNameMarkedPhases)
{
    profiler::reset();
    profiler::start(/*hz=*/997);
    // Burn CPU inside a nested phase stack until samples land. CPU
    // time (ITIMER_PROF) drives the timer, so the loop must compute.
    volatile uint64_t sink = 0;
    {
        const PhaseScope trial(Phase::Trial);
        const PhaseScope sim(Phase::NodeSim);
        for (int spin = 0;
             spin < 2000 && profiler::totalSamples() < 5; ++spin) {
            for (uint64_t i = 0; i < 200000; ++i)
                sink = sink + i * i;
        }
    }
    profiler::stop();
    ASSERT_GT(profiler::totalSamples(), 0u)
        << "no SIGPROF delivered while burning CPU";
    const std::string folded = profiler::folded();
    EXPECT_NE(folded.find("relaxfault;trial;node_sim "),
              std::string::npos)
        << folded;
    for (const std::string &line : splitLines(folded)) {
        if (line.empty())
            continue;
        EXPECT_EQ(line.rfind("relaxfault", 0), 0u) << line;
        const size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_GT(std::stoull(line.substr(space + 1)), 0u) << line;
    }
    const std::string table = profiler::selfTimeTable();
    EXPECT_NE(table.find("node_sim"), std::string::npos);
    profiler::reset();
    EXPECT_EQ(profiler::totalSamples(), 0u);
}

TEST(Profiler, DisabledMarkersAreInert)
{
    profiler::reset();
    ASSERT_FALSE(profiler::enabled());
    {
        const PhaseScope trial(Phase::Trial);
        const PhaseScope repair(Phase::RepairAttempt);
    }
    EXPECT_EQ(profiler::totalSamples(), 0u);
}

// ---------------------------------------------------------------------
// ProgressMeter on an injected clock.

TEST(ProgressMeter, RatePerSecUsesInjectedClock)
{
    FakeClock clock;
    ProgressMeter meter("test", 100, /*enabled=*/false, &clock);
    EXPECT_EQ(meter.ratePerSec(), 0.0);  // t=0: no division by zero.
    meter.tick(10);
    clock.advance(std::chrono::milliseconds(2000));
    EXPECT_DOUBLE_EQ(meter.ratePerSec(), 5.0);
    meter.tick(20);
    clock.advance(std::chrono::milliseconds(2000));
    EXPECT_DOUBLE_EQ(meter.ratePerSec(), 7.5);
}

// ---------------------------------------------------------------------
// HeartbeatMonitor: staleness on the parent's clock.

TEST(HeartbeatMonitor, ZeroTickWorkerGoesStale)
{
    FakeClock clock;
    HeartbeatMonitor monitor(clock, 2, /*deadlineMs=*/100);
    monitor.arm(0);
    EXPECT_FALSE(monitor.stale(0, 0));
    clock.advance(std::chrono::milliseconds(99));
    EXPECT_FALSE(monitor.stale(0, 0));
    clock.advance(std::chrono::milliseconds(1));
    // Never beat once; the window still expires from arm().
    EXPECT_TRUE(monitor.stale(0, 0));
}

TEST(HeartbeatMonitor, ProgressRestartsTheWindow)
{
    FakeClock clock;
    HeartbeatMonitor monitor(clock, 1, 100);
    monitor.arm(0);
    clock.advance(std::chrono::milliseconds(99));
    EXPECT_FALSE(monitor.stale(0, 1));  // Beat moved: window restarts.
    clock.advance(std::chrono::milliseconds(99));
    EXPECT_FALSE(monitor.stale(0, 1));  // 99ms into the NEW window.
    clock.advance(std::chrono::milliseconds(1));
    EXPECT_TRUE(monitor.stale(0, 1));
}

TEST(HeartbeatMonitor, CounterWraparoundCountsAsProgress)
{
    FakeClock clock;
    HeartbeatMonitor monitor(clock, 1, 100);
    monitor.arm(0);
    // Progress detection is equality-based, so a counter sailing past
    // UINT64_MAX and wrapping to small values still registers.
    EXPECT_FALSE(monitor.stale(0, UINT64_MAX - 1));
    clock.advance(std::chrono::milliseconds(90));
    EXPECT_FALSE(monitor.stale(0, UINT64_MAX));
    clock.advance(std::chrono::milliseconds(90));
    EXPECT_FALSE(monitor.stale(0, 0));  // Wrapped.
    clock.advance(std::chrono::milliseconds(90));
    EXPECT_FALSE(monitor.stale(0, 1));
    clock.advance(std::chrono::milliseconds(100));
    EXPECT_TRUE(monitor.stale(0, 1));  // Now genuinely stuck.
}

TEST(HeartbeatMonitor, ZeroDeadlineDisablesTheWatchdog)
{
    FakeClock clock;
    HeartbeatMonitor monitor(clock, 1, 0);
    monitor.arm(0);
    clock.advance(std::chrono::hours(24));
    EXPECT_FALSE(monitor.stale(0, 0));
}

TEST(HeartbeatMonitor, ArmRestartsAfterVerdict)
{
    FakeClock clock;
    HeartbeatMonitor monitor(clock, 1, 100);
    monitor.arm(0);
    EXPECT_FALSE(monitor.stale(0, 5));  // First observation of beat 5.
    clock.advance(std::chrono::milliseconds(100));
    EXPECT_TRUE(monitor.stale(0, 5));   // Stuck at 5 → verdict.
    monitor.arm(0);  // Kill issued; do not re-fire every poll.
    // arm() also forgets the beat, so the respawned worker's first
    // report — even the same counter value — reads as fresh progress.
    EXPECT_FALSE(monitor.stale(0, 5));
    clock.advance(std::chrono::milliseconds(100));
    EXPECT_TRUE(monitor.stale(0, 5));
}

// ---------------------------------------------------------------------
// Worker pool integration: the pool-owned plane reconciles with the
// campaign it observed.

TEST(WorkerPoolStats, PlanePersistsAndReconcilesWithTheRun)
{
    const LifetimeConfig config = testConfig();
    const LifetimeSimulator simulator(config);
    constexpr unsigned kTrials = 6;

    CampaignFingerprint fingerprint;
    fingerprint.campaign = "obs_pool_test";
    fingerprint.seed = 7;
    fingerprint.trials = kTrials;
    fingerprint.shards = 2;
    fingerprint.config = "nodes=128";

    CampaignOptions options;
    options.workers = 2;
    options.shards = 2;
    options.statsPath = tempPath("pool_plane");

    MetricRegistry registry;
    TrialRunOptions run;
    run.parallel.threads = 1;
    run.metrics = &registry;
    LifetimeSummary pooled;
    {
        CampaignRunner pool(fingerprint, options);
        const CampaignResult result =
            pool.runUnit("unit", simulator, relaxFactory(config),
                         kTrials, fingerprint.seed, run);
        ASSERT_FALSE(result.interrupted);
        pooled = result.summary;
        EXPECT_EQ(pool.shardsQuarantined(), 0u);
        // RSS folds: max-across-shards <= sum-over-slots, both real.
        EXPECT_GT(pool.workerPeakRssBytes(), 0);
        EXPECT_GE(pool.workerSumRssBytes(), pool.workerPeakRssBytes());
    }

    // The plane outlives the pool as a file; reconcile it against the
    // run: every trial the campaign reports ran is accounted for by
    // exactly one worker slot.
    std::string error;
    const std::unique_ptr<StatsPlane> plane =
        StatsPlane::attach(options.statsPath, &error);
    ASSERT_NE(plane, nullptr) << error;
    EXPECT_EQ(plane->campaign(), "obs_pool_test");
    EXPECT_EQ(plane->slots(), 2u);
    EXPECT_EQ(plane->quarantinedShards(), 0u);
    uint64_t started = 0, completed = 0;
    for (size_t slot = 0; slot < plane->slots(); ++slot) {
        const StatsSlotSample sample = plane->readSlot(slot);
        started += sample.trialsStarted;
        completed += sample.trialsCompleted;
    }
    EXPECT_EQ(started, kTrials);
    EXPECT_EQ(completed, kTrials);

    // And the pooled run itself is still bit-identical to in-process.
    TrialRunOptions plain;
    plain.parallel.threads = 1;
    expectIdentical(simulator.runTrials(kTrials, relaxFactory(config),
                                        fingerprint.seed, plain),
                    pooled);
    std::remove(options.statsPath.c_str());
}

// ---------------------------------------------------------------------
// Peak-RSS gauge fold semantics (doc contract on kPeakRssGauge).

TEST(PeakRss, GaugeFoldsMaxNotSum)
{
    // takeGauge strips the per-process peak from a snapshot so the
    // additive absorb cannot sum it; the caller folds it with max.
    MetricRegistry worker_a;
    worker_a.gauge(kPeakRssGauge).set(300);
    worker_a.counter("sim.trials").add(2);
    MetricRegistry worker_b;
    worker_b.gauge(kPeakRssGauge).set(500);
    worker_b.counter("sim.trials").add(3);

    MetricsSnapshot snap_a = worker_a.snapshot();
    MetricsSnapshot snap_b = worker_b.snapshot();
    int64_t peak = 0;
    peak = std::max(peak, snap_a.takeGauge(kPeakRssGauge));
    peak = std::max(peak, snap_b.takeGauge(kPeakRssGauge));
    EXPECT_EQ(peak, 500);

    MetricRegistry merged;
    merged.absorb(snap_a);
    merged.absorb(snap_b);
    // Counters added; the stripped gauge never summed to 800.
    EXPECT_EQ(merged.counter("sim.trials").value(), 5u);
    EXPECT_EQ(merged.gauge(kPeakRssGauge).value(), 0);
    merged.gauge(kPeakRssGauge).set(peak);
    EXPECT_EQ(merged.gauge(kPeakRssGauge).value(), 500);
}

// ---------------------------------------------------------------------
// bench_compare: the regression gate's threshold rules.

JsonValue
parseRecord(const std::string &text)
{
    JsonParseResult parsed = parseJson(text);
    EXPECT_TRUE(parsed.ok) << parsed.error;
    return std::move(parsed.value);
}

constexpr const char *kBaseline = R"({
  "bench": "micro", "results": [
    {"name": "hot", "ns_per_op": 10.0, "ops_per_s": 1000.0},
    {"name": "tiny", "ns_per_op": 0.4},
    {"name": "sci", "dues": 8.0}
  ]})";

TEST(BenchCompare, TwoXRegressionFailsTheGate)
{
    const JsonValue baseline = parseRecord(kBaseline);
    const JsonValue candidate = parseRecord(R"({
      "bench": "micro", "results": [
        {"name": "hot", "ns_per_op": 20.0, "ops_per_s": 1000.0},
        {"name": "tiny", "ns_per_op": 0.4},
        {"name": "sci", "dues": 8.0}
      ]})");
    const BenchCompareResult result =
        compareBenchRecords(baseline, candidate, {});
    EXPECT_TRUE(result.regressed);
    ASSERT_EQ(result.regressions().size(), 1u);
    EXPECT_EQ(result.regressions()[0].unit, "hot");
    EXPECT_EQ(result.regressions()[0].key, "ns_per_op");
    EXPECT_DOUBLE_EQ(result.regressions()[0].worseRatio, 2.0);
}

TEST(BenchCompare, WithinThresholdPasses)
{
    const JsonValue baseline = parseRecord(kBaseline);
    const JsonValue candidate = parseRecord(R"({
      "bench": "micro", "results": [
        {"name": "hot", "ns_per_op": 19.9, "ops_per_s": 1000.0},
        {"name": "tiny", "ns_per_op": 0.4},
        {"name": "sci", "dues": 8.0}
      ]})");
    EXPECT_FALSE(
        compareBenchRecords(baseline, candidate, {}).regressed);
}

TEST(BenchCompare, ThroughputDirectionIsInverted)
{
    const JsonValue baseline = parseRecord(kBaseline);
    const JsonValue candidate = parseRecord(R"({
      "bench": "micro", "results": [
        {"name": "hot", "ns_per_op": 10.0, "ops_per_s": 400.0},
        {"name": "tiny", "ns_per_op": 0.4},
        {"name": "sci", "dues": 8.0}
      ]})");
    const BenchCompareResult result =
        compareBenchRecords(baseline, candidate, {});
    EXPECT_TRUE(result.regressed);
    ASSERT_EQ(result.regressions().size(), 1u);
    EXPECT_EQ(result.regressions()[0].key, "ops_per_s");
    EXPECT_DOUBLE_EQ(result.regressions()[0].worseRatio, 2.5);
}

TEST(BenchCompare, MinNsFloorSilencesSubNoisePaths)
{
    const JsonValue baseline = parseRecord(kBaseline);
    // 0.4ns -> 0.9ns is 2.25x — but both sit under a 1ns floor.
    const JsonValue candidate = parseRecord(R"({
      "bench": "micro", "results": [
        {"name": "hot", "ns_per_op": 10.0, "ops_per_s": 1000.0},
        {"name": "tiny", "ns_per_op": 0.9},
        {"name": "sci", "dues": 8.0}
      ]})");
    EXPECT_TRUE(compareBenchRecords(baseline, candidate, {}).regressed);
    BenchCompareOptions floored;
    floored.minNs = 1.0;
    EXPECT_FALSE(
        compareBenchRecords(baseline, candidate, floored).regressed);
}

TEST(BenchCompare, ScientificColumnsNeverGate)
{
    const JsonValue baseline = parseRecord(kBaseline);
    const JsonValue candidate = parseRecord(R"({
      "bench": "micro", "results": [
        {"name": "hot", "ns_per_op": 10.0, "ops_per_s": 1000.0},
        {"name": "tiny", "ns_per_op": 0.4},
        {"name": "sci", "dues": 800.0}
      ]})");
    const BenchCompareResult result =
        compareBenchRecords(baseline, candidate, {});
    EXPECT_FALSE(result.regressed);
    bool saw_dues = false;
    for (const BenchDelta &delta : result.deltas) {
        if (delta.key != "dues")
            continue;
        saw_dues = true;
        EXPECT_EQ(delta.direction, MetricDirection::Informational);
        EXPECT_FALSE(delta.regression);
    }
    EXPECT_TRUE(saw_dues);
}

TEST(BenchCompare, OneSidedRowsBecomeNotesNotFailures)
{
    const JsonValue baseline = parseRecord(kBaseline);
    const JsonValue candidate = parseRecord(R"({
      "bench": "micro", "results": [
        {"name": "hot", "ns_per_op": 10.0, "ops_per_s": 1000.0},
        {"name": "tiny", "ns_per_op": 0.4},
        {"name": "brand_new", "ns_per_op": 99.0}
      ]})");
    const BenchCompareResult result =
        compareBenchRecords(baseline, candidate, {});
    EXPECT_FALSE(result.regressed);
    EXPECT_FALSE(result.notes.empty());
}

TEST(BenchCompare, MarkdownReportCarriesTheVerdict)
{
    const JsonValue baseline = parseRecord(kBaseline);
    const JsonValue candidate = parseRecord(R"({
      "bench": "micro", "results": [
        {"name": "hot", "ns_per_op": 25.0, "ops_per_s": 1000.0},
        {"name": "tiny", "ns_per_op": 0.4},
        {"name": "sci", "dues": 8.0}
      ]})");
    const std::vector<BenchCompareResult> results = {
        compareBenchRecords(baseline, candidate, {})};
    const std::string report = renderBenchDiffMarkdown(results, {});
    EXPECT_NE(report.find("FAIL"), std::string::npos);
    EXPECT_NE(report.find("ns_per_op"), std::string::npos);
    const std::string clean = renderBenchDiffMarkdown(
        {compareBenchRecords(baseline, baseline, {})}, {});
    EXPECT_NE(clean.find("PASS"), std::string::npos);
}

} // namespace
} // namespace relaxfault
