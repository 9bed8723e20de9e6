#include "campaign/campaign.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <system_error>
#include <utility>
#include <vector>

#include "common/fs.h"
#include "common/log.h"
#include "telemetry/metrics.h"
#include "telemetry/run_record.h"
#include "tracing/trace_export.h"
#include "tracing/tracer.h"

namespace relaxfault {
namespace {

/** In-process attempts per shard before giving up (fatal). */
constexpr unsigned kMaxShardAttempts = 3;

/** In-process backoff before retry r is `kRetryBackoffMs << (r-1)`. */
constexpr unsigned kRetryBackoffMs = 50;

/** Clamp every count to its documented range. */
CampaignOptions
normalized(CampaignOptions options)
{
    options.shards = std::max(1u, options.shards);
    options.workers = std::min(options.workers, CampaignRunner::kMaxWorkers);
    // A quarantine policy needs enough rounds to observe the crashes it
    // counts: one round per allowed attempt, plus one to finish the
    // healthy shards after the verdict.
    options.maxRounds = std::max({1u, options.maxRounds,
                                  options.quarantineAfter + 1});
    options.pollMs = std::max<uint64_t>(1, options.pollMs);
    return options;
}

/**
 * Private checkpoint dirs of live runners, each with the pid that made
 * it. `fatal()` leaves through `std::exit`, which skips the runners'
 * destructors, so an exit handler removes the dirs instead — only in
 * the process that made them, because a worker's own `fatal()` runs the
 * same handler while its parent still needs the dir. Never freed, so no
 * static destructor runs before the handler.
 */
std::vector<std::pair<pid_t, std::string>> &
privateDirs()
{
    static auto *dirs = new std::vector<std::pair<pid_t, std::string>>;
    return *dirs;
}

void
removeOwnPrivateDirs()
{
    std::error_code ignored;
    for (const auto &[owner, dir] : privateDirs()) {
        if (owner == ::getpid())
            std::filesystem::remove_all(dir, ignored);
    }
}

} // namespace

uint64_t
CampaignRunner::shardFirstTrial(uint64_t trials, unsigned shards,
                                unsigned shard)
{
    return trials * shard / shards;
}

std::string
CampaignRunner::workerLogPath(const std::string &base, unsigned slot)
{
    return base + ".worker" + std::to_string(slot);
}

std::string
CampaignRunner::supervisorLogPath(const std::string &base)
{
    return base + ".supervisor";
}

CampaignRunner::CampaignRunner(CampaignFingerprint fingerprint,
                               CampaignOptions options)
    : fingerprint_(std::move(fingerprint)),
      options_(normalized(std::move(options))),
      log_(options_.workers == 0 ? options_.checkpointPath : std::string(),
           fingerprint_, options_.resume),
      traceBase_(options_.tracePath)
{
    log_.setClock(options_.clock);

    if (options_.workers > 0) {
        if (options_.checkpointPath.empty()) {
            // Private scratch checkpoints: crash-safe within this run (a
            // killed worker's committed shards still merge), but gone
            // with the runner — cross-run resume needs a checkpoint.
            char tmpl[] = "/tmp/relaxfault_fleet.XXXXXX";
            if (::mkdtemp(tmpl) == nullptr)
                fatal("fleet: cannot create temporary checkpoint dir");
            tempDir_ = tmpl;
            static const int exit_handler =
                std::atexit(removeOwnPrivateDirs);
            (void)exit_handler;
            privateDirs().emplace_back(::getpid(), tempDir_);
            basePath_ = tempDir_ + "/ckpt";
        } else {
            basePath_ = options_.checkpointPath;
        }
        // Workers cannot hand events back in memory: without a trace
        // path they ship them through transient files.
        if (traceBase_.empty())
            traceBase_ = basePath_ + ".trace";
        if (!options_.resume) {
            // A stale worker log would resurrect shards of a previous
            // run; a stale supervisor log would mislead quarantine
            // forensics.
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

    // Created before any fork, so every worker inherits the MAP_SHARED
    // pages, claims shards from the plane and publishes straight into
    // its slot: worker mode always needs it, anonymous unless a path
    // is given. In-process, slot 0 is announced at once so an observer
    // attaching mid-run sees a live row.
    if (options_.workers > 0 || !options_.statsPath.empty()) {
        statsPlane_ = std::make_unique<StatsPlane>(StatsPlane::create(
            options_.statsPath, std::max(1u, options_.workers),
            fingerprint_.campaign));
        if (options_.workers == 0) {
            publisher_ = statsPlane_->publisher(0);
            publisher_.announce(StatsPhase::Running);
        }
    }
}

CampaignRunner::~CampaignRunner()
{
    if (publisher_.enabled())
        publisher_.setPhase(StatsPhase::Done);
    if (!tempDir_.empty()) {
        // Worker logs, the supervisor log and any trace files an
        // interrupted unit never merged.
        std::error_code ignored;
        std::filesystem::remove_all(tempDir_, ignored);
        std::erase(privateDirs(), std::pair(::getpid(), tempDir_));
    }
}

int64_t
CampaignRunner::workerSumRssBytes() const
{
    int64_t sum = 0;
    for (const auto &[slot, rss] : slotPeakRss_)
        sum += rss;
    return sum;
}

std::string
CampaignRunner::shardTracePath(const std::string &unit,
                               unsigned shard) const
{
    return traceBase_ + "." + traceSafeFileToken(unit) + ".shard" +
           std::to_string(shard) + ".json";
}

ShardRecord
CampaignRunner::runShardAttempt(const UnitRun &run, unsigned shard,
                                unsigned attempt,
                                StatsPublisher *stats) const
{
    if (options_.onShardStart)
        options_.onShardStart(run.unit, shard, attempt);

    const uint64_t first = shardFirstTrial(run.trials, run.shards, shard);
    const uint64_t end = shardFirstTrial(run.trials, run.shards, shard + 1);

    ShardRecord record;
    record.unit = run.unit;
    record.shard = shard;
    record.firstTrial = first;
    record.attempt = attempt;
    record.threads = resolveThreads(run.options.parallel);
    record.gitRev = runGitRev();

    // A private registry and tracer per attempt, so a failed attempt
    // leaves no half-counted telemetry or partial events behind, and
    // the record and the shard trace file carry exactly this shard.
    MetricRegistry shard_metrics;
    TrialRunOptions shard_options = run.options;
    shard_options.metrics =
        run.options.metrics != nullptr ? &shard_metrics : nullptr;
    shard_options.progressLabel = run.unit + " shard " +
                                  std::to_string(shard + 1) + "/" +
                                  std::to_string(run.shards);
    if (stats != nullptr)
        shard_options.stats = stats;
    std::unique_ptr<Tracer> shard_tracer;
    if (run.options.tracer != nullptr) {
        shard_tracer =
            std::make_unique<Tracer>(run.options.tracer->config());
        const std::vector<std::string> labels =
            run.options.tracer->unitLabels();
        shard_options.tracer = shard_tracer.get();
        shard_options.traceUnit = shard_tracer->registerUnit(
            run.options.traceUnit < labels.size()
                ? labels[run.options.traceUnit]
                : run.unit);
    }

    const Clock::TimePoint start = clock().now();
    {
        // Shard heartbeats: a live-status record at start and a commit
        // record with the wall duration, so trace forensics can see
        // which shard was in flight when a campaign died.
        const TraceShardLease hb_lease(shard_tracer.get());
        TraceSink heartbeat(shard_tracer.get(), hb_lease.shard(),
                            shard_options.traceUnit);
        heartbeat.emitControl(TraceKind::Heartbeat, kHeartbeatStart,
                              first, end - first, shard, 0);
        record.trials = run.simulator.runTrialRange(
            first, static_cast<unsigned>(end - first), run.factory,
            run.seed, shard_options);
        record.durationMs = clock().elapsedMs(start);
        heartbeat.emitControl(TraceKind::Heartbeat, kHeartbeatCommit,
                              first, end - first, shard,
                              record.durationMs);
    }
    record.timestampMs = runTimestampMs();
    if (shard_options.metrics != nullptr)
        record.metrics = shard_metrics.snapshot();
    if (shard_tracer != nullptr) {
        // Publish this shard's trace atomically BEFORE the checkpoint
        // commit: on-disk traces only ever describe shards the
        // checkpoint will know about.
        if (!traceBase_.empty()) {
            const std::string path = shardTracePath(run.unit, shard);
            if (!writeTraceFile(*shard_tracer, path))
                warn("campaign: failed to write shard trace " + path);
        }
        // A worker's events reach the parent through that file.
        if (options_.workers == 0)
            run.options.tracer->absorb(*shard_tracer);
    }
    return record;
}

void
CampaignRunner::fold(const UnitRun &run, ShardRecord record, bool resumed,
                     CampaignResult &result)
{
    for (const LifetimeMetrics &m : record.trials)
        result.summary.addTrial(m);
    // A per-process peak: max-folded here, never summed by the absorb.
    workerPeakRss_ = std::max(workerPeakRss_,
                              record.metrics.takeGauge(kPeakRssGauge));
    if (run.options.metrics != nullptr)
        run.options.metrics->absorb(record.metrics);
    Tracer *const tracer = run.options.tracer;
    if (!resumed) {
        ++result.shardsRun;
        if (tracer == nullptr || options_.workers == 0)
            return;
        const std::string path = shardTracePath(run.unit, record.shard);
        LoadedTrace loaded;
        std::string error;
        if (!loadChromeTraceFile(path, loaded, &error)) {
            warn("campaign: cannot load shard trace " + path + ": " +
                 error);
            return;
        }
        tracer->absorb(loaded.units, std::move(loaded.events),
                       loaded.droppedEvents);
        if (options_.tracePath.empty())
            std::remove(path.c_str());
        return;
    }
    ++result.shardsResumed;
    if (tracer != nullptr) {
        // The skipped shard's events live in its trace file from the
        // original run; record the resume itself so the aggregate
        // timeline shows the gap's provenance.
        const TraceShardLease lease(tracer);
        TraceSink sink(tracer, lease.shard(), run.options.traceUnit);
        sink.emitControl(TraceKind::Heartbeat, kHeartbeatResumed,
                         record.firstTrial, record.trials.size(),
                         record.shard, record.durationMs);
    }
}

CampaignResult
CampaignRunner::runUnit(const std::string &unit,
                        const LifetimeSimulator &simulator,
                        const LifetimeSimulator::MechanismFactory &factory,
                        unsigned trials, uint64_t seed,
                        const TrialRunOptions &run_options)
{
    const unsigned shards =
        std::max(1u, std::min(options_.shards, trials));
    if (options_.workers == 0)
        return runInProcess(
            {unit, simulator, factory, trials, seed, shards, run_options});
    // Progress lines from N workers would interleave unreadably.
    TrialRunOptions worker_options = run_options;
    worker_options.progress = false;
    return runPool(
        {unit, simulator, factory, trials, seed, shards, worker_options});
}

CampaignResult
CampaignRunner::runInProcess(const UnitRun &run)
{
    // Publish-retry telemetry (`fs.retries`) lands in the caller's
    // registry, never the per-shard private registries: retry counts
    // are environmental noise and must stay out of the bit-identical
    // shard records.
    log_.setMetrics(run.options.metrics);

    CampaignResult result;
    for (unsigned shard = 0; shard < run.shards; ++shard) {
        // Poll between shards only: a signal mid-shard lets the shard
        // finish and commit (the "flush") before we stop.
        if (SignalGuard::stopRequested()) {
            result.interrupted = true;
            inform("campaign: stop requested; unit '" + run.unit +
                   "' at " + std::to_string(shard) + "/" +
                   std::to_string(run.shards) + " shards" +
                   (log_.persistent() ? " (resume with --resume)" : ""));
            return result;
        }
        if (const ShardRecord *committed = log_.find(run.unit, shard)) {
            fold(run, *committed, /*resumed=*/true, result);
            continue;
        }

        publisher_.beginShard(shard);
        ShardRecord record;
        for (unsigned attempt = 1;; ++attempt) {
            try {
                record = runShardAttempt(
                    run, shard, attempt,
                    publisher_.enabled() ? &publisher_ : nullptr);
                break;
            } catch (const std::exception &error) {
                const std::string what = "campaign: unit '" + run.unit +
                                         "' shard " +
                                         std::to_string(shard);
                log_.noteFailure(run.unit, shard, attempt, error.what());
                if (attempt >= kMaxShardAttempts)
                    fatal(what + " failed " + std::to_string(attempt) +
                          " time(s): " + error.what());
                warn(what + " attempt " + std::to_string(attempt) +
                     " failed (" + error.what() + "); retrying");
                clock().sleepFor(std::chrono::milliseconds(
                    uint64_t{kRetryBackoffMs} << (attempt - 1)));
            }
        }
        publisher_.setPhase(StatsPhase::Committing);
        log_.commit(record);
        ++commits_;
        publisher_.endShard();
        fold(run, std::move(record), /*resumed=*/false, result);

        if (options_.killAfterCommits != 0 &&
            commits_ >= options_.killAfterCommits) {
            // Kill-resume test hook: die hard at a known durable state.
            std::raise(SIGKILL);
        }
    }
    // A signal that landed during the final shard leaves this unit
    // complete (interrupted stays false); the caller still sees the
    // stop via `interrupted()` before starting another unit.
    return result;
}

} // namespace relaxfault
