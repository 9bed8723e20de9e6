// The worker executor of CampaignRunner: shard claims, forked workers,
// their watchdog, quarantine, rounds and the merge. The stats plane is
// the only memory the parent shares with its workers.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <optional>
#include <set>
#include <vector>

#include "campaign/campaign.h"
#include "common/failpoint.h"
#include "common/fs.h"
#include "common/heartbeat.h"
#include "common/log.h"
#include "common/process.h"
#include "telemetry/metrics.h"
#include "tracing/tracer.h"

namespace relaxfault {

int
CampaignRunner::workerMain(const UnitRun &run,
                           const std::vector<unsigned> &pending,
                           unsigned slot, unsigned round) const
{
    // The forked child inherited the parent's forwarding registry;
    // drop it so a worker never forwards signals to its siblings (the
    // parent already routes to every live worker).
    SignalGuard::clearChildren();

    const std::string path = workerLogPath(basePath_, slot);
    CheckpointLog log(path, fingerprint_, /*resume=*/fileExists(path));

    // The worker's slot of the inherited MAP_SHARED plane: its lease,
    // phase and heartbeat are what the supervisor watches.
    StatsPublisher stats = statsPlane_->publisher(slot);
    stats.announce(StatsPhase::Idle);

    unsigned claimed = 0;
    uint64_t index = 0;
    // `pending` is this process's own copy of the round's list; the
    // plane only hands out indices into it.
    while (!SignalGuard::stopRequested() &&
           statsPlane_->claim(pending.size(), index)) {
        ++claimed;
        const unsigned shard = pending[index];
        // Publish the lease BEFORE any injectable step, so the parent
        // can attribute whatever happens next to this shard.
        stats.beginShard(shard);
        // `fleet.pop` site: a delay here holds the lease without
        // progress (a hang the watchdog must catch); an abort dies
        // holding it (a crash the quarantine policy must attribute).
        failpoint::eval(FailpointSite::FleetPop);
        if (options_.onWorkerPop)
            options_.onWorkerPop(slot, round, shard);
        if (slot == 0 && options_.killBeforeCommit != 0 &&
            claimed >= options_.killBeforeCommit) {
            // Crash-recovery worst case: die holding the shard lease,
            // before any work or commit. No later claim in this round
            // returns the shard; only a later round (or resume) can.
            std::raise(SIGKILL);
        }
        // An exception ends this worker (spawnProcess exits 125); the
        // lease is lost and the next round re-runs the shard.
        ShardRecord record =
            runShardAttempt(run, shard, /*attempt=*/1, &stats);
        record.metrics.setGauge(kPeakRssGauge, peakRssBytes());
        stats.setPhase(StatsPhase::Committing);
        log.commit(record);
        stats.endShard();
    }
    stats.setPhase(StatsPhase::Done);
    return 0;
}

CampaignResult
CampaignRunner::runPool(const UnitRun &run)
{
    const unsigned shards = run.shards;
    MetricRegistry *const metrics = run.options.metrics;

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
                const ShardRecord *record = log.find(run.unit, shard);
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
    std::set<unsigned> resumed;
    for (const auto &[shard, record] : committed)
        resumed.insert(shard);

    // Per-shard crashed-attempt counts (watchdog kills included) and
    // the quarantine verdicts derived from them. Both live across
    // rounds: quarantine is about a shard crashing *distinct* attempts.
    std::map<unsigned, unsigned> crashCounts;
    std::set<unsigned> quarantined;
    const auto missing = [&]() {
        return shards - committed.size() - quarantined.size();
    };

    unsigned round = 0;
    while (missing() > 0 && !SignalGuard::stopRequested()) {
        ++round;
        if (round > options_.maxRounds) {
            fatal("fleet: unit '" + run.unit + "' still missing " +
                  std::to_string(missing()) + " shard(s) after " +
                  std::to_string(options_.maxRounds) +
                  " worker round(s); " +
                  (tempDir_.empty()
                       ? "inspect " + basePath_ + ".worker* and resume"
                       : std::string("pass a checkpoint path to keep the "
                                     "worker logs and resume")));
        }

        // Built before the fork, so every worker has its own copy; a
        // claim only needs the plane's cursor, rewound while no worker
        // is alive.
        std::vector<unsigned> pending;
        for (unsigned shard = 0; shard < shards; ++shard) {
            if (committed.count(shard) == 0 &&
                quarantined.count(shard) == 0)
                pending.push_back(shard);
        }
        StatsPlane &plane = *statsPlane_;
        plane.resetClaims();

        const unsigned live = static_cast<unsigned>(
            std::min<size_t>(options_.workers, pending.size()));
        std::vector<pid_t> pids(live, -1);  // -1 once reaped.
        // The slot as the watchdog read it before stamping it Stalled:
        // the stamp overwrites the phase the crash attribution reads.
        std::vector<std::optional<StatsSlotSample>> stalled(live);
        HeartbeatMonitor monitor(clock(), live, options_.watchdogMs);
        for (unsigned slot = 0; slot < live; ++slot) {
            pids[slot] = spawnProcess([this, &run, &pending, slot,
                                       round]() {
                return workerMain(run, pending, slot, round);
            });
            monitor.arm(slot);
            SignalGuard::adoptChild(pids[slot]);
        }

        // Supervision loop: non-blocking reaps plus a heartbeat-tick
        // watchdog, so a hung (not dead) worker can never stall the
        // campaign forever.
        unsigned failures = 0;
        unsigned running = live;
        while (running > 0) {
            for (unsigned slot = 0; slot < live; ++slot) {
                const pid_t pid = pids[slot];
                if (pid < 0)
                    continue;
                if (const auto status = pollProcess(pid)) {
                    pids[slot] = -1;
                    --running;
                    SignalGuard::releaseChild(pid);
                    if (status->ok())
                        continue;
                    ++failures;
                    const StatsSlotSample lease =
                        stalled[slot].value_or(plane.readSlot(slot));
                    // Supervision verdict for observers: the worker is
                    // gone, so its slot would otherwise freeze showing
                    // a stale Running phase.
                    plane.markPhase(slot, StatsPhase::Crashed);
                    const std::string cause =
                        status->signaled
                            ? "killed by signal " +
                                  std::to_string(status->termSignal)
                            : "exited with status " +
                                  std::to_string(status->exitCode);
                    std::string note;
                    if (lease.held()) {
                        // Died holding a lease: charge the in-flight
                        // shard — the forensic input of quarantine.
                        const auto shard =
                            static_cast<unsigned>(lease.shard);
                        ++crashCounts[shard];
                        note = " while running shard " +
                               std::to_string(shard) + " (attempt " +
                               std::to_string(crashCounts[shard]) + ")";
                    }
                    warn("fleet: worker " + std::to_string(slot) + " " +
                         cause + note);
                    continue;
                }
                const StatsSlotSample lease = plane.readSlot(slot);
                if (!monitor.stale(slot, lease.heartbeatTick))
                    continue;
                // Stalled: no finished trial within the deadline.
                // SIGKILL and let the normal reap path attribute the
                // in-flight shard.
                warn("fleet: worker " + std::to_string(slot) +
                     " (pid " + std::to_string(pid) + ") missed the " +
                     std::to_string(options_.watchdogMs) +
                     " ms heartbeat deadline; killing it");
                ++workersStalled_;
                if (metrics != nullptr)
                    metrics->counter("fleet.workers_stalled").add(1);
                stalled[slot] = lease;
                plane.markPhase(slot, StatsPhase::Stalled);
                killProcess(pid, SIGKILL);
                // Restart the staleness window so the kill is not
                // re-issued every poll until the reap lands.
                monitor.arm(slot);
            }
            if (running > 0)
                clock().sleepFor(
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
                statsPlane_->noteQuarantine();
                const std::string forensic = supervisorLogPath(basePath_);
                CheckpointLog supervisor(forensic, fingerprint_,
                                         /*resume=*/fileExists(forensic));
                supervisor.noteQuarantine(
                    run.unit, shard, crashes,
                    "crashed " + std::to_string(crashes) +
                        " distinct worker attempt(s)");
                warn("fleet: unit '" + run.unit + "' shard " +
                     std::to_string(shard) + " quarantined after " +
                     std::to_string(crashes) +
                     " crashed attempt(s); see " + forensic);
            }
        }

        if (failures != 0 && missing() > 0 &&
            !SignalGuard::stopRequested()) {
            warn("fleet: round " + std::to_string(round) + " left " +
                 std::to_string(missing()) +
                 " shard(s) uncommitted; spawning a fresh round");
        }
    }

    CampaignResult result;
    if (missing() > 0) {
        result.interrupted = true;
        inform("fleet: stop requested; unit '" + run.unit + "' at " +
               std::to_string(committed.size()) + "/" +
               std::to_string(shards) + " shards" +
               (tempDir_.empty() ? " (resume with --resume)" : ""));
        return result;
    }

    // Deterministic merge: global shard order, independent of which
    // worker (or round, or prior run) committed each record.
    // Quarantined shards have no record — they are reported, never
    // silently dropped.
    const PhaseScope merge_scope(Phase::Merge);
    statsPlane_->markPhase(0, StatsPhase::Merging);
    for (unsigned shard = 0; shard < shards; ++shard) {
        if (quarantined.count(shard) != 0)
            result.quarantinedShards.push_back(shard);
        else
            fold(run, std::move(committed.at(shard)),
                 resumed.count(shard) != 0, result);
    }
    statsPlane_->markPhase(0, StatsPhase::Done);
    if (!result.quarantinedShards.empty())
        warn("fleet: unit '" + run.unit + "' merged WITHOUT " +
             std::to_string(result.quarantinedShards.size()) +
             " quarantined shard(s); the summary is partial");
    return result;
}

} // namespace relaxfault
