/**
 * @file
 * Multi-process campaign execution: forked workers over a lock-free
 * shard queue.
 *
 * The parent enqueues every uncommitted shard id of a unit into a
 * `ShmRing` (created before the fork, so all processes share it), forks
 * `--workers` children with `spawnProcess`, and waits. Each worker pops
 * shard descriptors, runs them through the supplied shard body, and
 * commits every finished shard durably to its OWN checkpoint file
 * (`<base>.worker<slot>`, ordinary `relaxfault.ckpt.v2` logs) — no
 * cross-process write contention, and the atomic-commit crash contract
 * is exactly the single-process one, per worker.
 *
 * The parent then merges: it scans all worker logs, folds the committed
 * shard records back together in global shard order, and absorbs their
 * telemetry. Because shard results depend only on (seed, trial index) —
 * never on which process ran them — the merged summary and counters are
 * bit-identical to a single-process run at ANY worker count, and every
 * worker log doubles as a resume point: a worker killed mid-shard loses
 * only its in-flight lease; the next round (or a `--resume` rerun)
 * re-enqueues exactly the missing shards.
 *
 * Signals: the parent's `SignalGuard` forwards SIGINT/SIGTERM to every
 * live worker from inside the handler, so each worker flushes its
 * in-flight shard and commits before exiting; the parent reports
 * `interrupted()` just like the single-process campaign runner.
 */

#ifndef RELAXFAULT_FLEET_WORKER_POOL_H
#define RELAXFAULT_FLEET_WORKER_POOL_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "campaign/campaign.h"
#include "common/signal_guard.h"
#include "fleet/fleet_sim.h"

namespace relaxfault {

class SharedHeartbeats;
class ShmRing;
class StatsPlane;
class StatsPublisher;

/**
 * Gauge stamped by every worker (and by `BenchReport`) with the
 * process's peak RSS in bytes.
 *
 * Fold semantics (tested in `tests/test_observability.cc`): the gauge
 * is a per-process *peak*, so it must never be summed by the additive
 * snapshot absorb. The pool strips it from every absorbed snapshot
 * (`MetricsSnapshot::takeGauge`) and folds it two ways:
 *  - max across all merged shards → `workerPeakRssBytes()` — the
 *    largest single process (`peak_rss_bytes` in bench JSON);
 *  - max per worker slot, then sum across slots →
 *    `workerSumRssBytes()` — the pool's aggregate footprint
 *    (`sum_rss_bytes` in fleet bench JSON).
 */
inline constexpr const char *kPeakRssGauge = "sim.peak_rss_bytes";

/** Execution policy of a worker pool (never affects its results). */
struct WorkerOptions
{
    /** Worker processes (clamped to [1, kMaxWorkers]). */
    unsigned workers = 2;

    /**
     * Base checkpoint path; worker `k` commits to `<base>.worker<k>`.
     * Empty uses a private temporary directory (removed on destruction)
     * — crash-safe within the run, but not resumable across runs.
     */
    std::string checkpointPath;

    /** Load existing worker logs and skip their committed shards. */
    bool resume = false;

    /** Trial shards per unit (clamped to the trial count, min 1). */
    unsigned shards = 1;

    /**
     * Worker generations per unit: a crashed worker loses its in-flight
     * shard lease, and the next round re-enqueues exactly the missing
     * shards with fresh workers. Exhausting the rounds with shards
     * still missing is fatal (min 1).
     */
    unsigned maxRounds = 2;

    /**
     * Test hook: worker slot 0 raises SIGKILL immediately after taking
     * its Nth shard lease, BEFORE running or committing it — the
     * crash-recovery worst case (a lost lease). 0 disables.
     */
    unsigned killBeforeCommit = 0;

    /**
     * Heartbeat watchdog deadline in milliseconds: a worker whose
     * shared-memory beat counter has not advanced for this long (on the
     * parent's clock) is SIGKILLed and its in-flight shard lease
     * reclaimed by the next round. Workers beat when they take and when
     * they commit a shard, so the deadline must exceed the worst-case
     * wall time of ONE shard — size shards accordingly. 0 disables (the
     * parent still polls, so dead workers are reaped promptly either
     * way).
     */
    uint64_t watchdogMs = 0;

    /** Supervision poll period in milliseconds (min 1). */
    uint64_t pollMs = 20;

    /**
     * Quarantine a shard after it was in flight on this many crashed or
     * watchdog-killed worker attempts: the shard is excluded from
     * further rounds, recorded as a forensic `shard_quarantined` line
     * in `<base>.supervisor`, and reported in
     * `CampaignResult::quarantinedShards` instead of failing the whole
     * campaign. 0 disables (a poison shard then exhausts maxRounds and
     * is fatal, the pre-quarantine behavior).
     */
    unsigned quarantineAfter = 0;

    /**
     * Live-stats plane path (`--stats-plane`): non-empty makes the
     * pool create a `StatsPlane` there before the first fork, with one
     * slot per worker. Workers publish shard/phase/rate/heartbeat into
     * their slot; the parent stamps supervision verdicts (Stalled,
     * Crashed) and quarantine counts; observers (`tools/fleet_top`)
     * attach read-only at any time. Empty disables (the default — zero
     * overhead).
     */
    std::string statsPath;

    /**
     * Parent-side time source for watchdog staleness and poll sleeps.
     * Null uses the real `Clock::steady()`. (Workers never share it —
     * staleness is measured on beat *counters*, so no clock ever
     * crosses the process boundary.)
     */
    Clock *clock = nullptr;

    /**
     * Test hook: runs inside the worker right after it takes a shard
     * lease, with (slot, round, shard). A hook that blocks simulates a
     * hung — not dead — worker; keying on (slot, round) lets a test
     * stall exactly one attempt and let the retry succeed. Null
     * disables.
     */
    std::function<void(unsigned slot, unsigned round, uint64_t shard)>
        onWorkerPop;
};

/**
 * Campaign runner that distributes a unit's shards over forked worker
 * processes. Mirrors `CampaignRunner`'s contract: telemetry lands in
 * the caller's registry exactly as a straight run would put it there,
 * and the summary is bit-identical to the single-process path.
 */
class WorkerCampaignRunner
{
  public:
    WorkerCampaignRunner(CampaignFingerprint fingerprint,
                         WorkerOptions options);
    ~WorkerCampaignRunner();

    WorkerCampaignRunner(const WorkerCampaignRunner &) = delete;
    WorkerCampaignRunner &operator=(const WorkerCampaignRunner &) = delete;

    /**
     * Run a unit across the worker pool, on either engine (a
     * `FleetSimulator` is a `LifetimeSimulator`).
     */
    CampaignResult runUnit(const std::string &unit,
                           const LifetimeSimulator &simulator,
                           const LifetimeSimulator::MechanismFactory &factory,
                           unsigned trials, uint64_t seed,
                           const TrialRunOptions &run_options = {});

    /**
     * Forwards to `runUnit`. Kept only because the benchmark program
     * (perfbench/) calls it; it goes with the next benchmark change.
     */
    CampaignResult runUnitFleet(const std::string &unit,
                                const FleetSimulator &simulator,
                                const FleetSimulator::MechanismFactory &factory,
                                unsigned trials, uint64_t seed,
                                const FleetTrialOptions &run_options = {})
    {
        return runUnit(unit, simulator, factory, trials, seed, run_options);
    }

    /** True once a stop signal halted the pool. */
    bool interrupted() const { return SignalGuard::stopRequested(); }

    /** Exit status for an interrupted run (128 + signal). */
    int exitStatus() const { return 128 + SignalGuard::stopSignal(); }

    /** Max peak RSS any merged worker shard reported, in bytes. */
    int64_t workerPeakRssBytes() const { return workerPeakRss_; }

    /**
     * Sum over worker slots of each slot's own peak RSS, in bytes —
     * the pool's aggregate footprint, complementing the per-process
     * max of `workerPeakRssBytes()`. Each slot contributes its max
     * over the shards it committed (fold documented on
     * `kPeakRssGauge`: max within a process, sum across processes).
     */
    int64_t workerSumRssBytes() const;

    /** Workers the watchdog SIGKILLed over this runner's lifetime. */
    uint64_t workersStalled() const { return workersStalled_; }

    /** Shards quarantined over this runner's lifetime. */
    uint64_t shardsQuarantined() const { return shardsQuarantined_; }

    /** Base path worker logs derive from (temp-dir path when private). */
    const std::string &checkpointBasePath() const { return basePath_; }

    /** Worker slot @p slot's checkpoint file under @p base. */
    static std::string workerLogPath(const std::string &base,
                                     unsigned slot);

    /**
     * The parent-owned forensic log under @p base (`shard_quarantined`
     * lines land here, never in worker logs, so the merge scan and the
     * quarantine forensics cannot collide).
     */
    static std::string supervisorLogPath(const std::string &base);

    /** Pool size cap (== the signal-forwarding registry capacity). */
    static constexpr unsigned kMaxWorkers =
        SignalGuard::kMaxForwardedChildren;

  private:
    /**
     * Runs one shard start-to-finish; executed inside a worker.
     * @p stats is the worker's live-stats slot (null when no plane).
     */
    using ShardBody = std::function<ShardRecord(
        unsigned shard, unsigned shards, StatsPublisher *stats)>;

    CampaignResult runUnitImpl(const std::string &unit, unsigned trials,
                               MetricRegistry *metrics,
                               const ShardBody &body);

    /** Worker child main loop: pop, run, commit; 0 on clean exit. */
    int workerMain(ShmRing &ring, SharedHeartbeats &beats,
                   const ShardBody &body, unsigned slot, unsigned shards,
                   unsigned round) const;

    CampaignFingerprint fingerprint_;
    WorkerOptions options_;
    SignalGuard guard_;
    std::string basePath_;
    std::string tempDir_;   ///< Non-empty: remove on destruction.
    std::unique_ptr<StatsPlane> statsPlane_;  ///< Null when disabled.
    int64_t workerPeakRss_ = 0;
    std::map<unsigned, int64_t> slotPeakRss_;  ///< Slot -> its peak RSS.
    uint64_t workersStalled_ = 0;
    uint64_t shardsQuarantined_ = 0;
};

} // namespace relaxfault

#endif // RELAXFAULT_FLEET_WORKER_POOL_H
