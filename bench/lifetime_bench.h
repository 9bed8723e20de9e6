/**
 * @file
 * The harness of the lifetime Monte Carlo benches: Figs. 9, 12, 13, 14
 * and `fleet_scale`.
 *
 * `LifetimeBench` parses their flag set, owns the JSON report, the
 * causal trace, the campaign fingerprint, the one `CampaignRunner` and
 * the profiler/exporter plumbing, and runs the exit sequence. No other
 * bench registers these flags, so the strict `CliOptions` parser
 * rejects them there as unknown options.
 *
 * Flags of every lifetime bench, on either engine:
 *  - `--trials`, `--seed`, `--nodes`, `--threads=N` (0 = auto),
 *    `--progress`, `--json[=PATH]`;
 *  - `--checkpoint=PATH`, `--resume`, `--shards=N` run each unit shard
 *    by shard against a checkpoint; results are bit-identical to an
 *    unsharded run;
 *  - `--workers=N` (N > 0) runs each unit's shards on N forked worker
 *    processes instead of in-process, also bit-identical; worker `k`
 *    commits to `<checkpoint>.worker<k>`. `--watchdog-ms` and
 *    `--quarantine-after` configure their supervisor;
 *  - `--audit`, `--audit-every=N` check the repair invariants;
 *  - `--trace[=PATH]`, `--trace-filter=KINDS` record the causal trace,
 *    with or without workers: every shard also publishes
 *    `<PATH>.<unit>.shard<k>.json`;
 *  - `--metrics-out=PATH[:PERIOD_MS]` publishes the metric registry as
 *    an OpenMetrics file, once at exit or every PERIOD_MS (it enables
 *    the registry with or without `--json`);
 *  - `--profile[=PATH]` arms the SIGPROF sampling profiler (in-process
 *    only); at exit the folded stacks go to PATH (or stderr), the
 *    self-time table to stderr;
 *  - `--stats-plane=PATH` backs the shared-memory stats plane with a
 *    file that `tools/fleet_top` attaches to: one slot per worker, or
 *    one slot in-process (worker mode maps it anonymously without the
 *    flag).
 * The classic engine (Figs. 9-14) adds `--mapping`; Figs. 12-14 add
 * `--degrade`.
 *
 * `--nodes`, `--degrade` and `--mapping` change results and enter the
 * campaign fingerprint. Auditing, tracing and the three
 * observability flags are observation-only: they consume no RNG and
 * leave results bit-identical.
 *
 * Every incompatible combination is fatal before any runner, temporary
 * directory or stats plane exists, so a rejected command line leaves
 * nothing behind.
 */

#ifndef RELAXFAULT_BENCH_LIFETIME_BENCH_H
#define RELAXFAULT_BENCH_LIFETIME_BENCH_H

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "campaign/campaign.h"
#include "common/fs.h"
#include "common/table.h"
#include "fleet/fleet_sim.h"
#include "telemetry/openmetrics.h"
#include "telemetry/profiler.h"
#include "tracing/trace_export.h"
#include "tracing/tracer.h"

namespace relaxfault::bench {

/**
 * A bench's causal-trace artifact, built from `--trace[=PATH]` and
 * `--trace-filter=KINDS`. `tracer` is null when tracing is off — wire
 * `get()` straight into `TrialRunOptions.tracer` and the disabled path
 * costs one branch per would-be event.
 */
struct BenchTrace
{
    std::unique_ptr<Tracer> tracer;  ///< Null = tracing off.
    std::string path;                ///< Aggregate trace output file.

    Tracer *get() const { return tracer.get(); }

    /**
     * Publish the aggregate trace document (no-op when off). Callers
     * skip this on an interrupted run, mirroring BenchReport::write —
     * the per-shard campaign flushes are the partial-run artifact.
     */
    void write() const
    {
        if (tracer == nullptr)
            return;
        if (!writeTraceFile(*tracer, path))
            fatal("cannot write --trace output file " + path);
        inform("wrote " + path + " (" +
               std::to_string(tracer->recorded()) + " events, " +
               std::to_string(tracer->dropped()) + " dropped)");
    }
};

/**
 * Parse the tracing flags. Bare `--trace` defaults the output to
 * `TRACE_<bench>.json`; `--trace-filter` without `--trace` is fatal
 * (a filter with nothing to filter is a typo'd run), as is an unknown
 * kind name in the filter spec.
 */
inline BenchTrace
traceFlag(const CliOptions &options, const std::string &bench_name)
{
    BenchTrace trace;
    if (!options.has("trace")) {
        if (options.has("trace-filter"))
            fatal("--trace-filter requires --trace (nothing to filter)");
        return trace;
    }
    trace.path = options.getString("trace", "");
    if (trace.path.empty())
        trace.path = "TRACE_" + bench_name + ".json";
    const std::string spec = options.getString("trace-filter", "all");
    const auto filter = parseTraceFilter(spec);
    if (!filter.has_value())
        fatal("--trace-filter=" + spec +
              " has an unknown event kind (expected a comma-separated "
              "subset of fault,repair,scrub,budget,degrade,verdict,"
              "replace,span,heartbeat, or \"all\")");
    TracerConfig config;
    config.filter = *filter;
    trace.tracer = std::make_unique<Tracer>(config);
    return trace;
}

/** Which simulation engine a lifetime bench drives. */
enum class LifetimeEngine
{
    Classic,  ///< `LifetimeSimulator`: Figs. 9-14.
    Fleet,    ///< `FleetSimulator`: `fleet_scale`.
};

/** What sets one lifetime bench apart: its name, defaults and knobs. */
struct LifetimeBenchSpec
{
    const char *name;                  ///< Campaign identity, log prefix.
    const char *report = nullptr;      ///< JSON bench name (null = name).
    unsigned trials = 0;               ///< `--trials` default.
    uint64_t seed = 0;                 ///< `--seed` default.
    unsigned nodes = 16384;            ///< `--nodes` default.
    LifetimeEngine engine = LifetimeEngine::Classic;
    bool degrade = false;              ///< Accepts `--degrade`.
};

inline constexpr LifetimeBenchSpec kFig09Bench{
    .name = "fig09_fault_model_sensitivity", .trials = 15, .seed = 909};
inline constexpr LifetimeBenchSpec kFig12Bench{
    .name = "fig12_due_rates", .trials = 25, .seed = 1206,
    .degrade = true};
inline constexpr LifetimeBenchSpec kFig13Bench{
    .name = "fig13_sdc_rates", .trials = 25, .seed = 1307,
    .degrade = true};
inline constexpr LifetimeBenchSpec kFig14Bench{
    .name = "fig14_dimm_replacements", .trials = 15, .seed = 1408,
    .degrade = true};
inline constexpr LifetimeBenchSpec kFleetScaleBench{
    .name = "fleet_scale", .report = "fleet", .trials = 8, .seed = 1206,
    .nodes = 1000000, .engine = LifetimeEngine::Fleet};

/**
 * Exit status of a run that completed but quarantined shards: the
 * reported numbers are partial, so the bench must not exit 0.
 */
inline constexpr int kQuarantineExitStatus = 75;  // EX_TEMPFAIL.

/**
 * One lifetime bench run (see file comment). Construct first thing in
 * `main`, run the units through `runUnit`, and return `finish()`.
 */
class LifetimeBench
{
  public:
    LifetimeBench(int argc, char **argv, const LifetimeBenchSpec &spec)
        : spec_(spec), options_(argc, argv, knownFlags(spec)),
          report_(options_, spec.report != nullptr ? spec.report
                                                   : spec.name)
    {
        const bool fleet = spec.engine == LifetimeEngine::Fleet;
        trials_ = static_cast<unsigned>(
            options_.getPositiveInt("trials", spec.trials));
        seed_ = static_cast<uint64_t>(
            options_.getInt("seed", static_cast<int64_t>(spec.seed)));
        config_.nodesPerSystem = static_cast<unsigned>(
            options_.getPositiveInt("nodes", spec.nodes));
        workers_ = static_cast<unsigned>(
            options_.getNonNegativeInt("workers", 0));
        if (spec.degrade) {
            const std::string name = options_.getString("degrade", "due");
            const auto policy = parseDegradationPolicy(name);
            if (!policy.has_value())
                fatal("--degrade=" + name + " is not a policy (expected "
                                            "retire | due | failstop)");
            config_.degradation = *policy;
        }
        if (!fleet)
            config_.mapping = mappingFlag(options_);
        run_.audit.enabled = options_.has("audit");
        run_.audit.everyFaults = static_cast<unsigned>(
            options_.getPositiveInt("audit-every", 1));
        trace_ = traceFlag(options_, spec.name);
        run_.tracer = trace_.get();
        run_.parallel.threads = static_cast<unsigned>(
            options_.getNonNegativeInt("threads", 0));
        run_.progress = options_.has("progress");
        // N workers x auto threads would oversubscribe the machine N
        // times over; the fleet bench splits the cores across the pool.
        if (fleet && workers_ > 0 && run_.parallel.threads == 0)
            run_.parallel.threads = std::max(
                1u, std::thread::hardware_concurrency() / workers_);

        CampaignOptions campaign;
        campaign.checkpointPath = options_.getString("checkpoint", "");
        campaign.resume = options_.has("resume");
        campaign.shards =
            static_cast<unsigned>(options_.getPositiveInt("shards", 1));
        campaign.workers = workers_;
        campaign.tracePath = trace_.path;
        campaign.statsPath = options_.getString("stats-plane", "");
        campaign.watchdogMs = static_cast<uint64_t>(
            options_.getNonNegativeInt("watchdog-ms", 0));
        campaign.quarantineAfter = static_cast<unsigned>(
            options_.getNonNegativeInt("quarantine-after", 0));
        // A lone shard would starve all but one fleet worker; results
        // are shard-split invariant, so default to one per worker.
        if (fleet && workers_ > 1 && !options_.has("shards"))
            campaign.shards = workers_;
        parseMetricsOut();
        validate(campaign);

        // The degradation policy and address mapping change results, so
        // they are part of the campaign identity.
        RunRecord &record = report_.record();
        record.setSeed(seed_).setTrials(trials_).setThreads(
            run_.parallel.threads);
        record.setConfig("nodes", static_cast<int64_t>(nodes()));
        std::string identity = "nodes=" + std::to_string(nodes());
        if (spec.degrade) {
            const std::string name =
                degradationPolicyName(config_.degradation);
            record.setConfig("degrade", name);
            identity += ",degrade=" + name;
        }
        if (fleet) {
            record.setConfig("workers", static_cast<int64_t>(workers_));
            // The fleet engine lost its eager mode; the suffix stays so
            // checkpoints written while it had one still resume.
            identity += ",mode=lazy";
        } else {
            record.setConfig("mapping", config_.mapping);
            identity += ",mapping=" + config_.mapping;
        }
        fingerprint_.campaign = spec.name;
        fingerprint_.seed = seed_;
        fingerprint_.trials = trials_;
        fingerprint_.shards = campaign.shards;
        fingerprint_.config = identity;

        runner_ = std::make_unique<CampaignRunner>(fingerprint_, campaign);
        startObservability();
    }

    ~LifetimeBench() { finishObservability(); }

    LifetimeBench(const LifetimeBench &) = delete;
    LifetimeBench &operator=(const LifetimeBench &) = delete;

    unsigned trials() const { return trials_; }
    unsigned nodes() const { return config_.nodesPerSystem; }
    unsigned workers() const { return workers_; }
    BenchReport &report() { return report_; }
    const CampaignFingerprint &fingerprint() const { return fingerprint_; }

    /** The campaign runner: in-process, or over `workers()` workers. */
    const CampaignRunner &runner() const { return *runner_; }

    /** Base simulation config: `--nodes`, `--degrade`, `--mapping`. */
    const LifetimeConfig &config() const { return config_; }

    /**
     * Run `trials()` lifetimes of @p unit on @p simulator (either
     * engine) through the campaign runner. The caller checks
     * `interrupted` and, when set, returns `finish()`.
     */
    CampaignResult
    runUnit(const std::string &unit, const LifetimeSimulator &simulator,
            const LifetimeSimulator::MechanismFactory &factory,
            const std::string &progress_label = "trials")
    {
        TrialRunOptions run = run_;
        run.progressLabel = progress_label;
        run.metrics = report_.metrics();
        if (run.tracer != nullptr)
            run.traceUnit = run.tracer->registerUnit(unit);
        return runner_->runUnit(unit, simulator, factory, trials_, seed_,
                                run);
    }

    /**
     * The exit sequence; returns the process exit status. A stop signal
     * returns 128 + signal without writing any artifact. Otherwise the
     * report and trace are written and the observability artifacts
     * flushed; a run that quarantined shards returns
     * `kQuarantineExitStatus`.
     */
    int finish()
    {
        if (SignalGuard::stopRequested())
            return 128 + SignalGuard::stopSignal();
        // Fold the workers' peak RSS into the report's gauge (max; the
        // report then maxes in the parent's own peak).
        if (report_.metrics() != nullptr) {
            Gauge &gauge = report_.metrics()->gauge(kPeakRssGauge);
            gauge.set(
                std::max(gauge.value(), runner_->workerPeakRssBytes()));
        }
        report_.write();
        trace_.write();
        finishObservability();
        if (runner_->shardsQuarantined() == 0)
            return 0;
        warn(std::string(spec_.name) + ": " +
             std::to_string(runner_->shardsQuarantined()) +
             " shard(s) quarantined — reported results are PARTIAL (see " +
             CampaignRunner::supervisorLogPath(
                 runner_->checkpointBasePath()) +
             "); exiting " + std::to_string(kQuarantineExitStatus));
        return kQuarantineExitStatus;
    }

  private:
    static std::vector<std::string>
    knownFlags(const LifetimeBenchSpec &spec)
    {
        std::vector<std::string> known = {
            "trials", "seed", "nodes", "threads", "progress", "json",
            "checkpoint", "resume", "shards", "workers", "watchdog-ms",
            "quarantine-after", "audit", "audit-every", "trace",
            "trace-filter", "metrics-out", "profile", "stats-plane"};
        if (spec.engine == LifetimeEngine::Classic)
            known.push_back("mapping");
        if (spec.degrade)
            known.push_back("degrade");
        return known;
    }

    /** `--metrics-out=PATH[:PERIOD_MS]` into metricsPath_/metricsPeriodMs_. */
    void parseMetricsOut()
    {
        if (!options_.has("metrics-out"))
            return;
        metricsPath_ = options_.getString("metrics-out", "");
        // The suffix is a period only when it is all digits, so plain
        // paths containing ':' keep working.
        const size_t colon = metricsPath_.rfind(':');
        if (colon == std::string::npos || colon + 1 == metricsPath_.size())
            return;
        const std::string tail = metricsPath_.substr(colon + 1);
        for (const char c : tail)
            if (!std::isdigit(static_cast<unsigned char>(c)))
                return;
        metricsPeriodMs_ = std::strtoull(tail.c_str(), nullptr, 10);
        metricsPath_.resize(colon);
    }

    /** Reject every incompatible flag combination, before side effects. */
    void validate(const CampaignOptions &campaign) const
    {
        const std::string bench = spec_.name;
        if (campaign.resume && campaign.checkpointPath.empty())
            fatal("--resume requires --checkpoint=PATH");
        if (workers_ == 0) {
            // A silently ignored watchdog is a run the operator wrongly
            // believes is hang-proof.
            if (options_.has("watchdog-ms") ||
                options_.has("quarantine-after"))
                fatal(bench + ": --watchdog-ms/--quarantine-after "
                              "require --workers=N (they configure the "
                              "fleet supervisor)");
        } else if (options_.has("profile")) {
            fatal(bench + ": --profile does not support --workers "
                          "(the CPU-time sampling timer is not "
                          "inherited across fork; profile the "
                          "in-process path)");
        }
        if (options_.has("metrics-out") && metricsPath_.empty())
            fatal(bench + ": --metrics-out requires =PATH[:PERIOD_MS]");
        if (options_.has("stats-plane") && campaign.statsPath.empty())
            fatal(bench + ": --stats-plane requires =PATH");
    }

    void startObservability()
    {
        if (!metricsPath_.empty()) {
            report_.enableMetrics();
            exporter_ = std::make_unique<OpenMetricsExporter>(
                *report_.metrics(), metricsPath_, metricsPeriodMs_);
        }
        if (options_.has("profile")) {
            profilePath_ = options_.getString("profile", "");
            profiler::start();
            profiling_ = true;
        }
    }

    /** Stop sampling/exporting and write final artifacts (idempotent). */
    void finishObservability()
    {
        if (observabilityFinished_)
            return;
        observabilityFinished_ = true;
        if (profiling_) {
            profiler::stop();
            const std::string folded = profiler::folded();
            if (!profilePath_.empty()) {
                if (const IoResult io = atomicWriteFile(profilePath_,
                                                        folded);
                    !io)
                    fatal("cannot write --profile file: " +
                          io.describe(profilePath_));
                inform("wrote " + profilePath_ + " (" +
                       std::to_string(profiler::totalSamples()) +
                       " samples)");
            } else {
                std::cerr << folded;
            }
            std::cerr << profiler::selfTimeTable();
        }
        if (exporter_ != nullptr)
            exporter_->stop();
    }

    LifetimeBenchSpec spec_;
    CliOptions options_;
    unsigned trials_ = 0;
    uint64_t seed_ = 0;
    unsigned workers_ = 0;
    LifetimeConfig config_;
    TrialRunOptions run_;  ///< Shared per-unit options.
    BenchTrace trace_;
    BenchReport report_;
    CampaignFingerprint fingerprint_;
    std::unique_ptr<CampaignRunner> runner_;

    std::string metricsPath_;
    uint64_t metricsPeriodMs_ = 0;
    std::string profilePath_;
    std::unique_ptr<OpenMetricsExporter> exporter_;
    bool profiling_ = false;
    bool observabilityFinished_ = false;
};

/** One mechanism row of the Figs. 12-14 repair matrix. */
struct RepairMatrixRow
{
    std::string label;
    MechanismSpec spec;
};

/**
 * The matrix rows in table order: no-repair, PPR, and 1-/4-way
 * FreeFault and RelaxFault. Each runs as the unit `panel/label`.
 */
inline std::vector<RepairMatrixRow>
repairMatrixRows()
{
    return {
        {"no-repair", MechanismSpec::none()},
        {"PPR", MechanismSpec::ppr()},
        {"FreeFault-1way", MechanismSpec::freeFault(1)},
        {"RelaxFault-1way", MechanismSpec::relaxFault(1)},
        {"FreeFault-4way", MechanismSpec::freeFault(4)},
        {"RelaxFault-4way", MechanismSpec::relaxFault(4)},
    };
}

/** One point of a Fig. 9 sweep. */
struct Fig09Point
{
    std::string panel;  ///< "factor-sweep" (9a/b) or "fraction-sweep" (9c/d).
    unsigned index;     ///< Position within its panel.
    double factor;      ///< FIT acceleration factor; <= 1 disables it.
    double fraction;    ///< Accelerated fraction of nodes and DIMMs.
    /**
     * The campaign unit that runs this point's config: `panel/index` of
     * the first point with the same config. Both panels start at the
     * uniform model and both hold (100x, 0.1%), so two of the twelve
     * points reuse a factor-sweep unit.
     */
    std::string unit;

    /** @p config with this point's fault-model acceleration. */
    LifetimeConfig apply(LifetimeConfig config) const
    {
        if (factor <= 1.0) {
            config.faultModel.accelerationEnabled = false;
        } else {
            config.faultModel.accelerationFactor = factor;
            config.faultModel.acceleratedNodeFraction = fraction;
            config.faultModel.acceleratedDimmFraction = fraction;
        }
        return config;
    }
};

/** Fig. 9's points in table order, each with the unit that runs it. */
inline std::vector<Fig09Point>
fig09Points()
{
    const struct
    {
        const char *panel;
        std::vector<std::pair<double, double>> points;
    } sweeps[] = {
        {"factor-sweep",
         {{1.0, 0.001}, {50.0, 0.001}, {100.0, 0.001}, {150.0, 0.001},
          {200.0, 0.001}}},
        {"fraction-sweep",
         {{1.0, 0.0}, {100.0, 0.0001}, {100.0, 0.001}, {100.0, 0.002},
          {100.0, 0.003}, {100.0, 0.004}, {100.0, 0.005}}},
    };
    std::vector<Fig09Point> points;
    for (const auto &sweep : sweeps) {
        unsigned index = 0;
        for (const auto &[factor, fraction] : sweep.points) {
            Fig09Point point{sweep.panel, index, factor, fraction,
                             sweep.panel + ("/" + std::to_string(index))};
            ++index;
            // Without acceleration the fraction is moot.
            const auto same_config = [&point](const Fig09Point &other) {
                return point.factor <= 1.0
                    ? other.factor <= 1.0
                    : other.factor == point.factor &&
                          other.fraction == point.fraction;
            };
            const auto first = std::find_if(points.begin(), points.end(),
                                            same_config);
            if (first != points.end())
                point.unit = first->unit;
            points.push_back(std::move(point));
        }
    }
    return points;
}

/**
 * Run the repair-mechanism matrix of Figs. 12-14 (no-repair, PPR, and
 * 1-/4-way FreeFault and RelaxFault) on @p config and print `metric`
 * with its 95% CI and its reduction against no repair. Each mechanism
 * is the unit `panel/mechanism`, a stable set of checkpoint shards and
 * trace unit labels, and adds one JSON row. Returns false if a stop
 * signal interrupted the matrix; the table is then not printed and the
 * bench should return `bench.finish()`.
 */
inline bool
runRepairMatrix(LifetimeBench &bench, const LifetimeConfig &config,
                RunningStat LifetimeSummary::*metric,
                const std::string &metric_name,
                const std::string &panel)
{
    const DramGeometry geometry = config.faultModel.geometry;
    const DramAddressMap address_map =
        makeAddressMap(config.mapping, geometry);
    const LifetimeSimulator simulator(config);

    TextTable table;
    table.setHeader({"mechanism", metric_name, "95%CI", "vs-no-repair"});
    double baseline = 0.0;
    for (const RepairMatrixRow &row : repairMatrixRows()) {
        const bool none = row.spec.kind == MechanismSpec::Kind::None;
        const CampaignResult result = bench.runUnit(
            panel + "/" + row.label, simulator,
            none ? LifetimeSimulator::MechanismFactory{}
                 : makeFactory(row.spec, geometry, address_map),
            row.label + " trials");
        if (result.interrupted)
            return false;
        const RunningStat &stat = result.summary.*metric;
        if (none)
            baseline = stat.mean();
        const double reduction = baseline > 0.0
            ? 100.0 * (1.0 - stat.mean() / baseline) : 0.0;
        table.addRow({row.label, TextTable::num(stat.mean(), 3),
                      "+/-" + TextTable::num(stat.ci95(), 3),
                      none ? std::string("-")
                           : "-" + TextTable::num(reduction, 1) + "%"});
        ResultRow &json_row = bench.report().addRow();
        json_row.set("panel", panel)
            .set("mechanism", row.label)
            .set("metric", metric_name)
            .set("mean", stat.mean())
            .set("ci95", stat.ci95())
            .set("reduction_vs_no_repair_pct", none ? 0.0 : reduction);
        // A quarantined unit's numbers miss those shards' trials; stamp
        // the row so no one diffs it against a clean run.
        if (!result.quarantinedShards.empty())
            json_row.set("quarantined_shards",
                         static_cast<uint64_t>(
                             result.quarantinedShards.size()));
    }
    table.print(std::cout);
    return true;
}

} // namespace relaxfault::bench

#endif // RELAXFAULT_BENCH_LIFETIME_BENCH_H
