/**
 * @file
 * Sharded, crash-recoverable lifetime Monte Carlo campaigns, run
 * in-process or over forked worker processes.
 *
 * A campaign splits one `runTrials`-style experiment into deterministic
 * trial shards (shard k covers trials [k*N/S, (k+1)*N/S) of the global
 * trial index space) and commits each finished shard durably through a
 * `CheckpointLog`. Because trial t always draws from
 * `Rng::forkAt(seed, t)` and per-trial metrics are folded in global
 * trial order, the final `LifetimeSummary` — and the merged telemetry
 * counters — are bit-identical to an uninterrupted `runTrials` at ANY
 * shard, thread and worker count, whether the run completed straight
 * through or was killed and resumed arbitrarily many times.
 *
 * One runner, two executors. `CampaignOptions::workers == 0` runs the
 * shards one after another in this process. `workers > 0` lists the
 * uncommitted shard ids, forks that many workers and supervises them
 * through the stats plane, the one memory region they share: each
 * claims list indices from the plane's cursor, runs those shards and
 * commits to its OWN log `<checkpoint>.worker<k>`; the parent then
 * scans the worker logs and folds the records in global shard order.
 * Both modes run a shard through the same attempt function and fold its
 * record through the same fold, so telemetry, traces and the stats
 * plane look alike whichever executor ran the shard.
 *
 * Crash model:
 *  - SIGKILL / power cut: the checkpoint holds every shard committed
 *    before the cut; `--resume` re-runs only the rest.
 *  - SIGINT / SIGTERM: a `SignalGuard` flag is polled between shards
 *    (and forwarded to live workers); the in-flight shard finishes and
 *    commits, then the runner stops with `interrupted()` set so the
 *    caller can exit 128+signal.
 *  - In-process shard failure (exception): retried up to 3 attempts
 *    with exponential backoff (50 ms, then 100 ms), each failure logged
 *    as a `shard_failed` forensic line; exhausting them is fatal.
 *  - Worker failure (exception, crash, watchdog kill): the worker's
 *    in-flight shard lease is lost and the next round lists it again,
 *    up to `maxRounds`; a shard that crashes `quarantineAfter` attempts
 *    is quarantined instead of failing the campaign.
 */

#ifndef RELAXFAULT_CAMPAIGN_CAMPAIGN_H
#define RELAXFAULT_CAMPAIGN_CAMPAIGN_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "campaign/checkpoint.h"
#include "common/clock.h"
#include "common/signal_guard.h"
#include "sim/lifetime.h"
#include "telemetry/stats_plane.h"

namespace relaxfault {

/**
 * Gauge every worker stamps into its shard records (and `BenchReport`
 * into its report) with the process's peak RSS in bytes.
 *
 * Fold semantics (tested in `tests/test_observability.cc`): the gauge
 * is a per-process *peak*, so it must never be summed by the additive
 * snapshot absorb. The fold strips it from every record
 * (`MetricsSnapshot::takeGauge`) and keeps two figures:
 *  - max across all folded shards → `workerPeakRssBytes()` — the
 *    largest single process (`peak_rss_bytes` in bench JSON);
 *  - max per worker slot, then sum across slots →
 *    `workerSumRssBytes()` — the pool's aggregate footprint
 *    (`sum_rss_bytes` in fleet bench JSON).
 */
inline constexpr const char *kPeakRssGauge = "sim.peak_rss_bytes";

/** Execution policy of a campaign (never affects its results). */
struct CampaignOptions
{
    /**
     * Checkpoint file. In-process, the campaign's log; empty runs
     * without persistence. With workers, the base path: worker `k`
     * commits to `<base>.worker<k>`, and empty uses a private temporary
     * directory (removed on destruction, or at exit by the process
     * that made it) — crash-safe within the run, but not resumable
     * across runs.
     */
    std::string checkpointPath;

    /** Load existing checkpoints and skip their committed shards. */
    bool resume = false;

    /** Trial shards per unit (clamped to the trial count, min 1). */
    unsigned shards = 1;

    /** Worker processes; 0 runs in-process (clamped to kMaxWorkers). */
    unsigned workers = 0;

    /**
     * Base path for per-shard trace files (only meaningful when the
     * unit's `TrialRunOptions.tracer` is set). Each committed shard's
     * events are published atomically to
     * `<tracePath>.<unit>.shard<k>.json` before the checkpoint commit,
     * so after a crash the trace files on disk always describe
     * completed shards the checkpoint knows about. In-process, empty
     * keeps traces in memory only; workers then ship their events
     * through transient files beside the checkpoint base. Either way
     * the events reach the caller's tracer.
     */
    std::string tracePath;

    /**
     * Live-stats plane path (`--stats-plane`): non-empty backs the
     * `StatsPlane` with a file there, one slot per worker (one slot
     * in-process), that observers (`tools/fleet_top`) attach to
     * read-only at any time. Shards publish shard/phase/rate/heartbeat
     * into their slot; the supervisor stamps verdicts (Stalled,
     * Crashed) and quarantine counts. With workers the plane always
     * exists (empty maps it anonymously), because it carries the shard
     * claims and leases; in-process, empty disables it.
     */
    std::string statsPath;

    /**
     * Time source for shard timing, retry backoff and the supervisor's
     * watchdog staleness and poll sleeps. Null uses `Clock::steady()`;
     * tests inject a `FakeClock` so those paths run deterministically
     * and without real sleeps. (No clock crosses a fork: staleness is
     * measured on beat *counters*.)
     */
    Clock *clock = nullptr;

    /**
     * Worker generations per unit: a crashed worker loses its in-flight
     * shard lease, and the next round re-enqueues exactly the missing
     * shards with fresh workers. Exhausting the rounds with shards
     * still missing is fatal. Raised to at least `quarantineAfter + 1`
     * (min 1).
     */
    unsigned maxRounds = 2;

    /**
     * Heartbeat watchdog deadline in milliseconds: a worker whose
     * stats-plane heartbeat tick has not advanced for this long is
     * SIGKILLed and its in-flight shard lease reclaimed by the next
     * round. Workers beat when they take a shard, at every finished
     * trial and when they commit, so the deadline must exceed the
     * worst-case wall time of ONE trial. 0 disables (dead workers are
     * still reaped promptly).
     */
    uint64_t watchdogMs = 0;

    /** Supervision poll period in milliseconds (min 1). */
    uint64_t pollMs = 20;

    /**
     * Quarantine a shard after it was in flight on this many crashed or
     * watchdog-killed worker attempts: it is excluded from further
     * rounds, recorded as a forensic `shard_quarantined` line in
     * `<base>.supervisor`, and reported in
     * `CampaignResult::quarantinedShards` instead of failing the whole
     * campaign. 0 disables (a poison shard then exhausts maxRounds).
     */
    unsigned quarantineAfter = 0;

    /**
     * Test hook: raise SIGKILL immediately after this many in-process
     * shard commits (counted across units). 0 disables. Used by the
     * kill-resume tests to die at a precisely known durable state.
     */
    unsigned killAfterCommits = 0;

    /**
     * Test hook: worker slot 0 raises SIGKILL immediately after taking
     * its Nth shard lease, BEFORE running or committing it — the
     * crash-recovery worst case (a lost lease). 0 disables.
     */
    unsigned killBeforeCommit = 0;

    /**
     * Test hook: invoked before every shard attempt with
     * (unit, shard, attempt). May throw to exercise the retry path, or
     * call `SignalGuard::requestStop()` to exercise the in-flight
     * flush. Null disables.
     */
    std::function<void(const std::string &, unsigned, unsigned)>
        onShardStart;

    /**
     * Test hook: runs inside a worker right after it takes a shard
     * lease, with (slot, round, shard). A hook that blocks simulates a
     * hung — not dead — worker; keying on (slot, round) lets a test
     * stall exactly one attempt. Null disables.
     */
    std::function<void(unsigned slot, unsigned round, uint64_t shard)>
        onWorkerPop;
};

/** Outcome of one campaign unit. */
struct CampaignResult
{
    LifetimeSummary summary;

    /**
     * Stopped before all shards ran (SIGINT/SIGTERM); summary is
     * partial and must not be reported. A signal that lands during the
     * final shard leaves the unit complete — interrupted stays false
     * and only `CampaignRunner::interrupted()` reflects the stop.
     */
    bool interrupted = false;

    unsigned shardsRun = 0;       ///< Executed this invocation.
    unsigned shardsResumed = 0;   ///< Skipped; loaded from checkpoint.

    /**
     * Shards the worker supervisor quarantined after repeated crashed
     * attempts (always empty in-process). A non-empty list means
     * `summary` is missing those shards' trials and must be reported
     * as partial, never as the campaign's result.
     */
    std::vector<unsigned> quarantinedShards;
};

/**
 * Runs campaign units (e.g. one repair mechanism each) shard by shard
 * against checkpoints, in-process or over forked workers. Construct
 * once per process run; the constructor opens/validates the checkpoint,
 * creates the stats plane and installs the signal guard for the
 * runner's lifetime.
 */
class CampaignRunner
{
  public:
    CampaignRunner(CampaignFingerprint fingerprint,
                   CampaignOptions options);
    ~CampaignRunner();

    CampaignRunner(const CampaignRunner &) = delete;
    CampaignRunner &operator=(const CampaignRunner &) = delete;

    /**
     * Run @p trials lifetimes of @p unit (either engine: a
     * `FleetSimulator` is a `LifetimeSimulator`). Committed shards from
     * a resumed checkpoint are folded in without re-execution; the rest
     * run via `runTrialRange` and commit. Telemetry lands in
     * @p run_options.metrics and trace events in @p run_options.tracer
     * exactly as a straight `runTrials` call would put them there (per
     * shard they are captured privately, recorded, and absorbed).
     */
    CampaignResult runUnit(const std::string &unit,
                           const LifetimeSimulator &simulator,
                           const LifetimeSimulator::MechanismFactory &factory,
                           unsigned trials, uint64_t seed,
                           const TrialRunOptions &run_options = {});

    /** Forwards to `runUnit`; defined in fleet/worker_pool.h. */
    inline CampaignResult runUnitFleet(const std::string &unit,
                                const LifetimeSimulator &simulator,
                                const LifetimeSimulator::MechanismFactory &factory,
                                unsigned trials, uint64_t seed,
                                const TrialRunOptions &run_options = {});

    /** True once a stop signal halted the campaign. */
    bool interrupted() const { return SignalGuard::stopRequested(); }

    /** Exit status for an interrupted run (128 + signal). */
    int exitStatus() const { return 128 + SignalGuard::stopSignal(); }

    /** The in-process checkpoint (not persistent with workers). */
    CheckpointLog &log() { return log_; }
    const CampaignFingerprint &fingerprint() const { return fingerprint_; }

    /** Worker processes per unit; 0 = in-process. */
    unsigned workers() const { return options_.workers; }

    /** Max peak RSS any folded worker shard reported, in bytes. */
    int64_t workerPeakRssBytes() const { return workerPeakRss_; }

    /**
     * Sum over worker slots of each slot's own peak RSS, in bytes —
     * the pool's aggregate footprint (fold documented on
     * `kPeakRssGauge`: max within a process, sum across processes).
     */
    int64_t workerSumRssBytes() const;

    /** Workers the watchdog SIGKILLed over this runner's lifetime. */
    uint64_t workersStalled() const { return workersStalled_; }

    /** Shards quarantined over this runner's lifetime. */
    uint64_t shardsQuarantined() const { return shardsQuarantined_; }

    /** Base path worker logs derive from (temp-dir path when private). */
    const std::string &checkpointBasePath() const { return basePath_; }

    /** Shard k's first trial for @p trials over @p shards. */
    static uint64_t shardFirstTrial(uint64_t trials, unsigned shards,
                                    unsigned shard);

    /** Worker slot @p slot's checkpoint file under @p base. */
    static std::string workerLogPath(const std::string &base,
                                     unsigned slot);

    /**
     * The supervisor's forensic log under @p base (`shard_quarantined`
     * lines land here, never in worker logs, so the merge scan and the
     * quarantine forensics cannot collide).
     */
    static std::string supervisorLogPath(const std::string &base);

    /** Pool size cap (== the signal-forwarding registry capacity). */
    static constexpr unsigned kMaxWorkers =
        SignalGuard::kMaxForwardedChildren;

  private:
    /** One `runUnit` call's arguments. */
    struct UnitRun
    {
        const std::string &unit;
        const LifetimeSimulator &simulator;
        const LifetimeSimulator::MechanismFactory &factory;
        unsigned trials;
        uint64_t seed;
        unsigned shards;
        const TrialRunOptions &options;
    };

    /**
     * One attempt at one shard, in either mode: stamps the record, runs
     * the trials into a private registry and tracer, publishes the
     * shard's trace file and (in-process) absorbs its events. Throws
     * whatever the trials throw. @p stats overrides the options' slot.
     */
    ShardRecord runShardAttempt(const UnitRun &run, unsigned shard,
                                unsigned attempt,
                                StatsPublisher *stats) const;

    /**
     * Fold one committed (or, with @p resumed, checkpoint-loaded)
     * record into @p result and the caller's registry and tracer.
     */
    void fold(const UnitRun &run, ShardRecord record, bool resumed,
              CampaignResult &result);

    /** The options' clock, or `Clock::steady()`. */
    Clock &clock() const
    {
        return options_.clock != nullptr ? *options_.clock : Clock::steady();
    }

    /** `<traceBase>.<unit>.shard<k>.json`. */
    std::string shardTracePath(const std::string &unit,
                               unsigned shard) const;

    CampaignResult runInProcess(const UnitRun &run);

    /** The worker supervisor (supervisor.cc). */
    CampaignResult runPool(const UnitRun &run);

    /**
     * Worker child main loop: claim an index of @p pending, run that
     * shard, commit; 0 on clean exit.
     */
    int workerMain(const UnitRun &run, const std::vector<unsigned> &pending,
                   unsigned slot, unsigned round) const;

    CampaignFingerprint fingerprint_;
    CampaignOptions options_;
    SignalGuard guard_;
    CheckpointLog log_;      ///< In-process log; inert with workers.
    std::string basePath_;   ///< Worker log base.
    std::string tempDir_;    ///< Non-empty: remove on destruction.
    std::string traceBase_;  ///< Shard trace file base; empty = none.
    /** Null only in-process without a stats path. */
    std::unique_ptr<StatsPlane> statsPlane_;
    StatsPublisher publisher_;  ///< In-process slot 0.
    unsigned commits_ = 0;   ///< In-process durable commits (hook).
    int64_t workerPeakRss_ = 0;
    std::map<unsigned, int64_t> slotPeakRss_;  ///< Slot -> its peak RSS.
    uint64_t workersStalled_ = 0;
    uint64_t shardsQuarantined_ = 0;
};

} // namespace relaxfault

#endif // RELAXFAULT_CAMPAIGN_CAMPAIGN_H
