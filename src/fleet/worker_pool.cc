#include "fleet/worker_pool.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <vector>

#include "campaign/checkpoint.h"
#include "common/clock.h"
#include "common/failpoint.h"
#include "common/fs.h"
#include "common/heartbeat.h"
#include "common/log.h"
#include "common/parallel.h"
#include "common/process.h"
#include "common/shm_ring.h"
#include "telemetry/metrics.h"
#include "telemetry/run_record.h"
#include "telemetry/stats_plane.h"
#include "tracing/tracer.h"

namespace relaxfault {

std::string
WorkerCampaignRunner::workerLogPath(const std::string &base,
                                    unsigned slot)
{
    return base + ".worker" + std::to_string(slot);
}

std::string
WorkerCampaignRunner::supervisorLogPath(const std::string &base)
{
    return base + ".supervisor";
}

WorkerCampaignRunner::WorkerCampaignRunner(CampaignFingerprint fingerprint,
                                           WorkerOptions options)
    : fingerprint_(std::move(fingerprint)), options_(std::move(options))
{
    options_.workers =
        std::clamp(options_.workers, 1u, kMaxWorkers);
    if (options_.shards == 0)
        options_.shards = 1;
    if (options_.maxRounds == 0)
        options_.maxRounds = 1;

    if (options_.checkpointPath.empty()) {
        // Private scratch checkpoints: crash-safe within this run (a
        // killed worker's committed shards still merge), but gone with
        // the runner — cross-run resume needs --checkpoint.
        char tmpl[] = "/tmp/relaxfault_fleet.XXXXXX";
        if (::mkdtemp(tmpl) == nullptr)
            fatal("fleet: cannot create temporary checkpoint dir");
        tempDir_ = tmpl;
        basePath_ = tempDir_ + "/ckpt";
    } else {
        basePath_ = options_.checkpointPath;
    }

    if (options_.pollMs == 0)
        options_.pollMs = 1;

    // Created before any fork, so every worker inherits the MAP_SHARED
    // pages and publishes straight into its slot.
    if (!options_.statsPath.empty())
        statsPlane_ = std::make_unique<StatsPlane>(StatsPlane::create(
            options_.statsPath, options_.workers,
            fingerprint_.campaign));

    if (!options_.resume) {
        // A stale worker log would resurrect shards of a previous run;
        // a stale supervisor log would mislead quarantine forensics.
        for (unsigned slot = 0; slot < kMaxWorkers; ++slot) {
            const std::string path = workerLogPath(basePath_, slot);
            if (fileExists(path))
                std::remove(path.c_str());
        }
        const std::string supervisor = supervisorLogPath(basePath_);
        if (fileExists(supervisor))
            std::remove(supervisor.c_str());
    }
}

WorkerCampaignRunner::~WorkerCampaignRunner()
{
    if (tempDir_.empty())
        return;
    for (unsigned slot = 0; slot < kMaxWorkers; ++slot)
        std::remove(workerLogPath(basePath_, slot).c_str());
    std::remove(supervisorLogPath(basePath_).c_str());
    ::rmdir(tempDir_.c_str());
}

int
WorkerCampaignRunner::workerMain(ShmRing &ring, SharedHeartbeats &beats,
                                 const ShardBody &body, unsigned slot,
                                 unsigned shards, unsigned round) const
{
    // The forked child inherited the parent's forwarding registry;
    // drop it so a worker never forwards signals to its siblings (the
    // parent already routes to every live worker).
    SignalGuard::clearChildren();

    const std::string path = workerLogPath(basePath_, slot);
    CheckpointLog log(path, fingerprint_, /*resume=*/fileExists(path));

    // The worker's live-stats slot (inherited MAP_SHARED pages).
    // Observation only: everything below publishes into the plane and
    // reads nothing back from it.
    StatsPublisher stats;
    if (statsPlane_ != nullptr) {
        stats = statsPlane_->publisher(slot);
        stats.announce(StatsPhase::Idle);
    }

    unsigned popped = 0;
    uint64_t shard = 0;
    while (!SignalGuard::stopRequested() && ring.tryPop(shard)) {
        ++popped;
        // Publish the lease BEFORE any injectable step, so the parent
        // can attribute whatever happens next to this shard.
        beats.startShard(slot, shard);
        stats.beginShard(shard);
        // `fleet.pop` site: a delay here holds the lease without
        // progress (a hang the watchdog must catch); an abort dies
        // holding it (a crash the quarantine policy must attribute).
        failpoint::eval(FailpointSite::FleetPop);
        if (options_.onWorkerPop)
            options_.onWorkerPop(slot, round, shard);
        if (slot == 0 && options_.killBeforeCommit != 0 &&
            popped >= options_.killBeforeCommit) {
            // Crash-recovery worst case: die holding the shard lease,
            // before any work or commit. The shard id is gone from the
            // ring; only a later round (or resume) can recover it.
            std::raise(SIGKILL);
        }
        const ShardRecord record = body(static_cast<unsigned>(shard),
                                        shards,
                                        stats.enabled() ? &stats : nullptr);
        stats.setPhase(StatsPhase::Committing);
        log.commit(record);
        beats.finishShard(slot);
        stats.endShard();
    }
    stats.setPhase(StatsPhase::Done);
    return 0;
}

CampaignResult
WorkerCampaignRunner::runUnitImpl(const std::string &unit,
                                  unsigned trials,
                                  MetricRegistry *metrics,
                                  const ShardBody &body)
{
    const unsigned shards =
        std::max(1u, std::min(options_.shards, trials));

    CampaignResult result;
    std::map<unsigned, ShardRecord> committed;
    const auto collect = [&]() {
        for (unsigned slot = 0; slot < kMaxWorkers; ++slot) {
            const std::string path = workerLogPath(basePath_, slot);
            if (!fileExists(path))
                continue;
            // Loading validates the header against this campaign's
            // fingerprint — the cross-process guard: a worker log from
            // a different experiment is fatal, never silently merged.
            const CheckpointLog log(path, fingerprint_,
                                    /*resume=*/true);
            for (unsigned shard = 0; shard < shards; ++shard) {
                if (committed.count(shard) != 0)
                    continue;
                const ShardRecord *record = log.find(unit, shard);
                if (record == nullptr)
                    continue;
                committed.emplace(shard, *record);
                // Slot-attributed RSS: each slot's contribution to the
                // pool footprint is its max over committed shards (the
                // gauge is already a per-process peak), and slots sum.
                int64_t &slot_rss = slotPeakRss_[slot];
                slot_rss = std::max(
                    slot_rss,
                    record->metrics.gaugeValue(kPeakRssGauge));
            }
        }
    };
    if (options_.resume)
        collect();
    result.shardsResumed = static_cast<unsigned>(committed.size());

    Clock &clock =
        options_.clock != nullptr ? *options_.clock : Clock::steady();

    // Per-shard crashed-attempt counts (watchdog kills included) and
    // the quarantine verdicts derived from them. Both live across
    // rounds: quarantine is about a shard crashing *distinct* attempts.
    std::map<unsigned, unsigned> crashCounts;
    std::set<unsigned> quarantined;

    unsigned round = 0;
    while (committed.size() + quarantined.size() < shards &&
           !SignalGuard::stopRequested()) {
        ++round;
        if (round > options_.maxRounds) {
            fatal("fleet: unit '" + unit + "' still missing " +
                  std::to_string(shards - committed.size() -
                                 quarantined.size()) +
                  " shard(s) after " + std::to_string(options_.maxRounds) +
                  " worker round(s); inspect " + basePath_ +
                  ".worker* and resume");
        }

        std::vector<unsigned> pending;
        for (unsigned shard = 0; shard < shards; ++shard) {
            if (committed.count(shard) == 0 &&
                quarantined.count(shard) == 0)
                pending.push_back(shard);
        }

        // Fresh ring per round: capacity >= pending, so every push
        // succeeds and workers drain it to empty.
        ShmRing ring = ShmRing::create(pending.size());
        for (const unsigned shard : pending) {
            if (!ring.tryPush(shard))
                panic("fleet: shard ring refused a descriptor below "
                      "capacity");
        }

        const unsigned live = static_cast<unsigned>(
            std::min<size_t>(options_.workers, pending.size()));
        SharedHeartbeats beats = SharedHeartbeats::create(live);

        struct Supervised
        {
            pid_t pid = -1;
            bool running = true;
        };
        std::vector<Supervised> supervised(live);
        HeartbeatMonitor monitor(clock, live, options_.watchdogMs);
        for (unsigned slot = 0; slot < live; ++slot) {
            beats.reset(slot);
            supervised[slot].pid = spawnProcess(
                [this, &ring, &beats, &body, slot, shards, round]() {
                    return workerMain(ring, beats, body, slot, shards,
                                      round);
                });
            monitor.arm(slot);
            SignalGuard::adoptChild(supervised[slot].pid);
        }

        // Supervision loop: non-blocking reaps plus a beat-counter
        // watchdog, so a hung (not dead) worker can never stall the
        // campaign forever — the old blocking waitpid could.
        unsigned failures = 0;
        unsigned running = live;
        while (running > 0) {
            for (unsigned slot = 0; slot < live; ++slot) {
                Supervised &sup = supervised[slot];
                if (!sup.running)
                    continue;
                if (const auto status = pollProcess(sup.pid)) {
                    sup.running = false;
                    --running;
                    SignalGuard::releaseChild(sup.pid);
                    if (status->ok())
                        continue;
                    ++failures;
                    // Supervision verdict for observers: the worker is
                    // gone, so its slot would otherwise freeze showing
                    // a stale Running phase.
                    if (statsPlane_ != nullptr)
                        statsPlane_->markPhase(slot, StatsPhase::Crashed);
                    std::string cause;
                    if (status->signaled)
                        cause = "killed by signal " +
                                std::to_string(status->termSignal);
                    else
                        cause = "exited with status " +
                                std::to_string(status->exitCode);
                    if (beats.working(slot)) {
                        // Died holding a lease: charge the in-flight
                        // shard — the forensic input of quarantine.
                        const unsigned shard =
                            static_cast<unsigned>(beats.shard(slot));
                        ++crashCounts[shard];
                        warn("fleet: worker " + std::to_string(slot) +
                             " " + cause + " while running shard " +
                             std::to_string(shard) + " (attempt " +
                             std::to_string(crashCounts[shard]) + ")");
                    } else {
                        warn("fleet: worker " + std::to_string(slot) +
                             " " + cause);
                    }
                    continue;
                }
                if (!monitor.stale(slot, beats.beats(slot)))
                    continue;
                // Stalled: no beat within the deadline. SIGKILL and let
                // the normal reap path attribute the in-flight shard.
                warn("fleet: worker " + std::to_string(slot) +
                     " (pid " + std::to_string(sup.pid) +
                     ") missed the " +
                     std::to_string(options_.watchdogMs) +
                     " ms heartbeat deadline; killing it");
                ++workersStalled_;
                if (metrics != nullptr)
                    metrics->counter("fleet.workers_stalled").add(1);
                if (statsPlane_ != nullptr)
                    statsPlane_->markPhase(slot, StatsPhase::Stalled);
                killProcess(sup.pid, SIGKILL);
                // Restart the staleness window so the kill is not
                // re-issued every poll until the reap lands.
                monitor.arm(slot);
            }
            if (running > 0)
                clock.sleepFor(
                    std::chrono::milliseconds(options_.pollMs));
        }

        collect();

        // Quarantine verdicts: an uncommitted shard that has now been
        // in flight on `quarantineAfter` crashed attempts is excluded
        // from further rounds and recorded forensically — one poison
        // shard must not kill a campaign with healthy shards behind it.
        if (options_.quarantineAfter != 0) {
            for (const auto &[shard, crashes] : crashCounts) {
                if (crashes < options_.quarantineAfter ||
                    committed.count(shard) != 0 ||
                    quarantined.count(shard) != 0)
                    continue;
                quarantined.insert(shard);
                ++shardsQuarantined_;
                if (metrics != nullptr)
                    metrics->counter("fleet.shards_quarantined").add(1);
                if (statsPlane_ != nullptr)
                    statsPlane_->noteQuarantine();
                CheckpointLog supervisor(supervisorLogPath(basePath_),
                                         fingerprint_,
                                         /*resume=*/fileExists(
                                             supervisorLogPath(basePath_)));
                supervisor.noteQuarantine(
                    unit, shard, crashes,
                    "crashed " + std::to_string(crashes) +
                        " distinct worker attempt(s)");
                warn("fleet: unit '" + unit + "' shard " +
                     std::to_string(shard) + " quarantined after " +
                     std::to_string(crashes) +
                     " crashed attempt(s); see " +
                     supervisorLogPath(basePath_));
            }
        }

        if (failures != 0 &&
            committed.size() + quarantined.size() < shards &&
            !SignalGuard::stopRequested()) {
            warn("fleet: round " + std::to_string(round) + " left " +
                 std::to_string(shards - committed.size() -
                                quarantined.size()) +
                 " shard(s) uncommitted; spawning a fresh round");
        }
    }

    if (committed.size() + quarantined.size() < shards) {
        result.interrupted = true;
        inform("fleet: stop requested; unit '" + unit + "' at " +
               std::to_string(committed.size()) + "/" +
               std::to_string(shards) + " shards" +
               (tempDir_.empty() ? " (resume with --resume)" : ""));
        return result;
    }

    // Deterministic merge: global shard order, independent of which
    // worker (or round, or prior run) committed each record. The peak
    // RSS gauge merges with max semantics, so it is stripped from the
    // snapshot before the additive absorb. Quarantined shards have no
    // record — they are reported, never silently dropped.
    const PhaseScope merge_scope(Phase::Merge);
    if (statsPlane_ != nullptr)
        statsPlane_->markPhase(0, StatsPhase::Merging);
    for (unsigned shard = 0; shard < shards; ++shard) {
        if (quarantined.count(shard) != 0) {
            result.quarantinedShards.push_back(shard);
            continue;
        }
        MetricsSnapshot snapshot = committed.at(shard).metrics;
        for (const LifetimeMetrics &m : committed.at(shard).trials)
            result.summary.addTrial(m);
        workerPeakRss_ =
            std::max(workerPeakRss_, snapshot.takeGauge(kPeakRssGauge));
        if (metrics != nullptr)
            metrics->absorb(snapshot);
    }
    result.shardsRun = shards - result.shardsResumed -
                       static_cast<unsigned>(quarantined.size());
    if (statsPlane_ != nullptr)
        statsPlane_->markPhase(0, StatsPhase::Done);
    if (!result.quarantinedShards.empty())
        warn("fleet: unit '" + unit + "' merged WITHOUT " +
             std::to_string(result.quarantinedShards.size()) +
             " quarantined shard(s); the summary is partial");
    return result;
}

int64_t
WorkerCampaignRunner::workerSumRssBytes() const
{
    int64_t sum = 0;
    for (const auto &[slot, rss] : slotPeakRss_)
        sum += rss;
    return sum;
}

CampaignResult
WorkerCampaignRunner::runUnit(const std::string &unit,
                              const LifetimeSimulator &simulator,
                              const LifetimeSimulator::MechanismFactory &factory,
                              unsigned trials, uint64_t seed,
                              const TrialRunOptions &run_options)
{
    if (run_options.tracer != nullptr)
        fatal("fleet: worker mode does not support tracing");

    const ShardBody body = [&](unsigned shard, unsigned shards,
                               StatsPublisher *stats) {
        const uint64_t first =
            CampaignRunner::shardFirstTrial(trials, shards, shard);
        const uint64_t end =
            CampaignRunner::shardFirstTrial(trials, shards, shard + 1);

        ShardRecord record;
        record.unit = unit;
        record.shard = shard;
        record.firstTrial = first;
        record.threads = resolveThreads(run_options.parallel);
        record.gitRev = runGitRev();

        MetricRegistry shard_metrics;
        TrialRunOptions shard_options = run_options;
        shard_options.progress = false;
        shard_options.metrics =
            run_options.metrics != nullptr ? &shard_metrics : nullptr;
        shard_options.stats = stats;

        Clock &clock = Clock::steady();
        const Clock::TimePoint start = clock.now();
        record.trials = simulator.runTrialRange(
            first, static_cast<unsigned>(end - first), factory, seed,
            shard_options);
        record.durationMs = clock.elapsedMs(start);
        record.timestampMs = runTimestampMs();
        if (shard_options.metrics != nullptr)
            record.metrics = shard_metrics.snapshot();
        record.metrics.setGauge(kPeakRssGauge, peakRssBytes());
        return record;
    };
    return runUnitImpl(unit, trials, run_options.metrics, body);
}

} // namespace relaxfault
