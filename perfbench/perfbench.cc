/**
 * @file
 * Program of the lifetime-campaign benchmark. `run.py` builds it, turns a
 * workload name and seed into a configuration, and runs it; this program
 * only receives that configuration.
 *
 * One *round* runs every mechanism row of the workload over the trial
 * batch of `--seed` (a *unit*; cheap rows run several units). Rounds
 * repeat the same work until `--seconds` is used up, and each row is
 * timed by its fastest unit: interference from other tenants of the host
 * only ever slows a unit down, and comes in bursts of seconds, so the
 * best unit is the steady figure where the median still moves with the
 * neighbours' load. Each row's summary is digested and compared with the
 * committed reference for the seed, so every round is also a correctness
 * check.
 *
 * Three engines, one per workload family:
 *  - classic:  bare `LifetimeSimulator::runTrials`;
 *  - campaign: `CampaignRunner::runUnit` with a checkpoint under
 *              `--state-dir`, fresh for every unit;
 *  - fleet:    `WorkerCampaignRunner::runUnitFleet` over forked workers.
 *
 * `--trace=1` is the separate per-layer run. It re-implements the trial
 * loops with public calls only (`Rng::forkAt`, `sampleNode` /
 * `sampleNodeInto`, `simulateNode`) and wraps every mechanism in a timing
 * decorator, so the layers are timed from outside the library. The
 * traced copy must reproduce the untraced summaries bit for bit; so must
 * the campaign unit (against bare `runTrials`) and the worker pool
 * (against the in-process fleet copy). A mismatch counts as a failed
 * unit, never a warning.
 *
 * Output: one JSON object on stdout. Progress and errors go to stderr.
 */

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "campaign/campaign.h"
#include "common/cli.h"
#include "common/log.h"
#include "common/process.h"
#include "dram/address_map.h"
#include "fleet/fleet_sim.h"
#include "fleet/worker_pool.h"
#include "sim/lifetime.h"

using namespace relaxfault;
using bench::MechanismSpec;

namespace {

using MechanismFactory = LifetimeSimulator::MechanismFactory;
using Family = MechanismSpec::Kind;

/** Set-ups per run; the reported set-up time is their median. */
constexpr unsigned kSetupReps = 15;

/** Forked workers of the fleet engine, one thread each. */
constexpr unsigned kWorkers = 2;

/**
 * Untraced rounds run a row's unit again until the row has used this
 * much time in the round, so cheap rows get enough samples for their
 * best to miss the host's noisy spells.
 */
constexpr int64_t kMinRowNs = 500'000'000;

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
toSeconds(int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    return values.size() % 2 == 1
        ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/** Nearest-rank quantile of @p samples (sorted in place); 0 if empty. */
double
quantile(std::vector<uint32_t> &samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const auto rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    return samples[std::clamp<size_t>(rank, 1, samples.size()) - 1];
}

uint32_t
clampNs(int64_t ns)
{
    return static_cast<uint32_t>(std::clamp<int64_t>(ns, 0, UINT32_MAX));
}

// ---------------------------------------------------------------------
// Mechanism rows: the figure benches' matrix (bench/lifetime_tables.h).

constexpr Family kRepairFamilies[] = {Family::Ppr, Family::FreeFault,
                                      Family::RelaxFault};

const char *
familyKey(Family family)
{
    switch (family) {
      case Family::None: return "no-repair";
      case Family::Ppr: return "ppr";
      case Family::FreeFault: return "freefault";
      case Family::RelaxFault: return "relaxfault";
    }
    return "?";
}

struct RowSpec
{
    std::string label;
    MechanismSpec spec;

    Family family() const { return spec.kind; }
};

RowSpec
parseRow(const std::string &label)
{
    const RowSpec rows[] = {
        {"no-repair", MechanismSpec::none()},
        {"PPR", MechanismSpec::ppr()},
        {"FreeFault-1way", MechanismSpec::freeFault(1)},
        {"RelaxFault-1way", MechanismSpec::relaxFault(1)},
        {"FreeFault-4way", MechanismSpec::freeFault(4)},
        {"RelaxFault-4way", MechanismSpec::relaxFault(4)},
    };
    for (const RowSpec &row : rows) {
        if (row.label == label)
            return row;
    }
    fatal("perfbench: unknown row '" + label + "'");
}

/** No-repair runs without a mechanism, as in the figure benches. */
MechanismFactory
makeFactory(const RowSpec &row, const DramGeometry &geometry,
            const DramAddressMap &map)
{
    if (row.family() == Family::None)
        return {};
    return bench::makeFactory(row.spec, geometry, map);
}

// ---------------------------------------------------------------------
// Result digest: FNV-1a over the bit patterns of every statistic.

void
mix(uint64_t &hash, uint64_t word)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (word >> (8 * byte)) & 0xff;
        hash *= 0x100000001b3ull;
    }
}

void
mix(uint64_t &hash, double value)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    mix(hash, bits);
}

std::string
digest(const LifetimeSummary &s)
{
    const RunningStat *stats[] = {
        &s.faultyNodes, &s.multiDeviceFaultDimms, &s.dues, &s.sdcs,
        &s.replacements, &s.repairedFaults, &s.permanentFaults,
        &s.fullyRepairedNodes, &s.budgetExhausted, &s.degradedToRetirement,
        &s.degradedDues, &s.failStops};
    uint64_t hash = 0xcbf29ce484222325ull;
    for (const RunningStat *stat : stats) {
        mix(hash, static_cast<uint64_t>(stat->count()));
        mix(hash, stat->mean());
        mix(hash, stat->variance());
        mix(hash, stat->sum());
        mix(hash, stat->min());
        mix(hash, stat->max());
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(hash));
    return hex;
}

// ---------------------------------------------------------------------
// Spans of the traced run: trial -> node -> simulate_node -> repair
// call, all carrying their trial's id. Kept in memory, written at exit.

enum SpanKind : uint8_t { kTrial, kNode, kSimulate, kTryRepair, kReset };

const char *const kSpanNames[] = {"trial", "node", "simulate_node",
                                  "try_repair", "reset"};

struct Span
{
    uint64_t id;
    uint64_t parent;  ///< 0 for a trial (the root).
    uint32_t trial;
    SpanKind kind;
    int64_t start;
    int64_t end;
};

class SpanLog
{
  public:
    /** Recording switch; ids are handed out either way. */
    bool recording = false;

    uint64_t nextId() { return ++lastId_; }

    void add(const Span &span)
    {
        if (recording)
            spans_.push_back(span);
    }

    /** Spans whose parent is missing, or not enclosing, or another trial. */
    uint64_t malformed() const
    {
        std::unordered_map<uint64_t, const Span *> by_id;
        by_id.reserve(spans_.size());
        for (const Span &span : spans_)
            by_id.emplace(span.id, &span);
        uint64_t bad = 0;
        for (const Span &span : spans_) {
            if (span.end < span.start) {
                ++bad;
                continue;
            }
            if (span.kind == kTrial) {
                bad += span.parent != 0;
                continue;
            }
            const auto it = by_id.find(span.parent);
            if (it == by_id.end() || it->second->trial != span.trial ||
                span.start < it->second->start ||
                span.end > it->second->end)
                ++bad;
        }
        return bad;
    }

    size_t size() const { return spans_.size(); }

    /** CSV, after a `# workload=... seed=...` line naming the run. */
    void write(const std::string &path, const std::string &run) const
    {
        std::ofstream out(path);
        if (!out)
            fatal("perfbench: cannot write spans to " + path);
        out << "# " << run << "\nid,parent,trial,kind,start_ns,end_ns\n";
        for (const Span &span : spans_) {
            out << span.id << ',' << span.parent << ',' << span.trial << ','
                << kSpanNames[span.kind] << ',' << span.start << ','
                << span.end << '\n';
        }
    }

  private:
    uint64_t lastId_ = 0;
    std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// Per-layer accounting of the traced run.

struct Timer
{
    uint64_t calls = 0;
    int64_t ns = 0;

    void add(int64_t elapsed)
    {
        ++calls;
        ns += elapsed;
    }
};

struct RepairStats
{
    Timer tryRepair;
    Timer reset;
    uint64_t ok = 0;
    uint64_t rebuilds = 0;
    std::vector<uint32_t> tryNs;
};

/** One traced round's layer counters and busy times. */
struct Layers
{
    Timer sampleNode;
    uint64_t sampledFaults = 0;
    std::vector<uint32_t> sampleNs;

    Timer sampleInto;
    uint64_t skippedNodes = 0;

    Timer simulate;
    RepairStats repair[3];  ///< Indexed like kRepairFamilies.

    int64_t tracedNs = 0;    ///< Wall time of the traced copies.
    int64_t untracedNs = 0;  ///< The same trials, untraced, 1 thread.
    int64_t freeFaultTracedNs = 0;

    Timer runUnit;
    int64_t campaignReplicaNs = 0;
    uint64_t shardsCommitted = 0;
    uint64_t checkpointBytes = 0;

    Timer runUnitFleet;
    int64_t fleetReplicaNs = 0;
    uint64_t shardsRun = 0;
    int64_t workerPeakRss = 0;

    int64_t repairNs() const
    {
        int64_t ns = 0;
        for (const RepairStats &r : repair)
            ns += r.tryRepair.ns + r.reset.ns;
        return ns;
    }
};

RepairStats *
repairStatsFor(Layers &layers, Family family)
{
    for (size_t i = 0; i < 3; ++i) {
        if (kRepairFamilies[i] == family)
            return &layers.repair[i];
    }
    return nullptr;
}

/**
 * Forwarding mechanism that times `tryRepair` and `reset` and records a
 * span per call. A call for a fault this node already committed is a
 * rebuild (the simulator re-issues covered faults after replacing a
 * DIMM); `beginNode` clears that memory.
 */
class TimedMechanism final : public RepairMechanism
{
  public:
    TimedMechanism(std::unique_ptr<RepairMechanism> inner,
                   RepairStats &stats, SpanLog &spans,
                   const uint64_t &parent, const uint32_t &trial)
        : inner_(std::move(inner)), stats_(stats), spans_(spans),
          parent_(parent), trial_(trial)
    {
    }

    void beginNode() { committed_.clear(); }

    std::string name() const override { return inner_->name(); }

    bool tryRepair(const FaultRecord &fault) override
    {
        const bool rebuild =
            std::find(committed_.begin(), committed_.end(), &fault) !=
            committed_.end();
        const uint64_t id = spans_.nextId();
        const int64_t start = nowNs();
        const bool ok = inner_->tryRepair(fault);
        const int64_t end = nowNs();
        stats_.tryRepair.add(end - start);
        stats_.tryNs.push_back(clampNs(end - start));
        stats_.rebuilds += rebuild;
        if (ok) {
            ++stats_.ok;
            if (!rebuild)
                committed_.push_back(&fault);
        }
        spans_.add({id, parent_, trial_, kTryRepair, start, end});
        return ok;
    }

    uint64_t usedLines() const override { return inner_->usedLines(); }

    unsigned maxWaysUsed() const override { return inner_->maxWaysUsed(); }

    void reset() override
    {
        const uint64_t id = spans_.nextId();
        const int64_t start = nowNs();
        inner_->reset();
        const int64_t end = nowNs();
        stats_.reset.add(end - start);
        spans_.add({id, parent_, trial_, kReset, start, end});
    }

    void publishTelemetry(MetricRegistry &registry) const override
    {
        inner_->publishTelemetry(registry);
    }

  private:
    std::unique_ptr<RepairMechanism> inner_;
    RepairStats &stats_;
    SpanLog &spans_;
    const uint64_t &parent_;
    const uint32_t &trial_;
    std::vector<const FaultRecord *> committed_;
};

/** Per-trial state shared by both traced loops. */
struct TracedTrial
{
    SpanLog &spans;
    uint32_t trial;
    uint64_t trialSpan;
    uint64_t simulateSpan = 0;  ///< Parent of the repair calls.
    std::unique_ptr<TimedMechanism> mechanism;

    TracedTrial(SpanLog &log, uint32_t trial_id, const MechanismFactory &f,
                RepairStats *stats)
        : spans(log), trial(trial_id), trialSpan(log.nextId())
    {
        if (f)
            mechanism = std::make_unique<TimedMechanism>(
                f(), *stats, spans, simulateSpan, trial);
    }

    /** simulateNode, timed, with node/simulate spans for faulty nodes. */
    void simulate(const LifetimeSimulator &sim, const NodeSample &node,
                  LifetimeMetrics &metrics, Rng &rng, Layers &layers,
                  int64_t node_start)
    {
        const uint64_t node_span = spans.nextId();
        simulateSpan = spans.nextId();
        if (mechanism != nullptr)
            mechanism->beginNode();
        const int64_t start = nowNs();
        sim.simulateNode(node, mechanism.get(), nullptr, metrics, rng,
                         nullptr, nullptr, nullptr);
        const int64_t end = nowNs();
        layers.simulate.add(end - start);
        if (!node.faults.empty()) {
            spans.add({simulateSpan, node_span, trial, kSimulate, start,
                       end});
            spans.add({node_span, trialSpan, trial, kNode, node_start, end});
        }
    }

    void finish(int64_t start)
    {
        spans.add({trialSpan, 0, trial, kTrial, start, nowNs()});
    }
};

/**
 * `LifetimeSimulator::runTrials` on one thread, rebuilt from public
 * calls: trial t draws from forkAt(seed, t), and each node is sampled
 * then simulated off that one stream.
 */
LifetimeSummary
tracedClassic(const LifetimeSimulator &sim, const MechanismFactory &factory,
              RepairStats *stats, unsigned trials, uint64_t seed,
              Layers &layers, SpanLog &spans, uint32_t &trial_ids)
{
    LifetimeSummary summary;
    const NodeFaultSampler sampler(sim.config().faultModel);
    for (unsigned t = 0; t < trials; ++t) {
        const int64_t trial_start = nowNs();
        TracedTrial trial(spans, trial_ids++, factory, stats);
        Rng rng = Rng::forkAt(seed, t);
        LifetimeMetrics metrics;
        for (unsigned n = 0; n < sim.config().nodesPerSystem; ++n) {
            const int64_t start = nowNs();
            const NodeSample node = sampler.sampleNode(rng);
            const int64_t sampled = nowNs();
            layers.sampleNode.add(sampled - start);
            layers.sampleNs.push_back(clampNs(sampled - start));
            layers.sampledFaults += node.faults.size();
            trial.simulate(sim, node, metrics, rng, layers, start);
        }
        trial.finish(trial_start);
        summary.addTrial(metrics);
    }
    return summary;
}

/**
 * The lazy loop of `FleetSimulator::runSystemTrial`: node n of trial t
 * draws from forkAt(seed, t * nodes + n); nodes without arrivals are
 * skipped. Sampler calls are aggregated, not spanned.
 */
LifetimeSummary
tracedFleet(const FleetSimulator &fleet, const LifetimeSimulator &sim,
            const MechanismFactory &factory, RepairStats *stats,
            unsigned trials, uint64_t seed, Layers &layers, SpanLog &spans,
            uint32_t &trial_ids)
{
    LifetimeSummary summary;
    NodeSample pooled;
    for (unsigned t = 0; t < trials; ++t) {
        const int64_t trial_start = nowNs();
        TracedTrial trial(spans, trial_ids++, factory, stats);
        LifetimeMetrics metrics;
        for (uint64_t n = 0; n < fleet.config().nodesPerSystem; ++n) {
            Rng rng = Rng::forkAt(seed, fleet.nodeStreamIndex(t, n));
            const int64_t start = nowNs();
            const unsigned arrivals =
                fleet.sampler().sampleNodeInto(pooled, rng);
            layers.sampleInto.add(nowNs() - start);
            if (arrivals == 0) {
                ++layers.skippedNodes;
                continue;
            }
            trial.simulate(sim, pooled, metrics, rng, layers, start);
        }
        trial.finish(trial_start);
        summary.addTrial(metrics);
    }
    return summary;
}

// ---------------------------------------------------------------------
// Configuration and set-up.

enum class Engine : uint8_t { Classic, Campaign, Fleet };

struct Config
{
    std::string workload;
    Engine engine = Engine::Classic;
    double fit = 1.0;
    ReplacePolicy policy = ReplacePolicy::AfterDue;
    unsigned nodes = 16384;
    unsigned trials = 1;
    uint64_t seed = 0;
    std::vector<RowSpec> rows;
    unsigned threads = 1;
    unsigned shards = 1;
    double seconds = 10;
    bool trace = false;
    bool references = false;
    std::string stateDir;
    /** Reference digest per row. */
    std::vector<std::string> expect;
    std::string spansPath;
};

std::vector<std::string>
split(const std::string &text, char separator = ',')
{
    std::vector<std::string> out;
    std::stringstream in(text);
    std::string item;
    while (std::getline(in, item, separator))
        out.push_back(item);
    return out;
}

Config
parseConfig(const CliOptions &options)
{
    Config cfg;
    cfg.workload = options.getString("workload", "");
    const std::string engine = options.getString("engine", "classic");
    if (engine == "classic")
        cfg.engine = Engine::Classic;
    else if (engine == "campaign")
        cfg.engine = Engine::Campaign;
    else if (engine == "fleet")
        cfg.engine = Engine::Fleet;
    else
        fatal("perfbench: --engine=" + engine +
              " (expected classic | campaign | fleet)");
    cfg.fit = options.getDouble("fit", 1.0);
    const std::string policy = options.getString("policy", "A");
    if (policy != "A" && policy != "B")
        fatal("perfbench: --policy=" + policy + " (expected A | B)");
    cfg.policy = policy == "A" ? ReplacePolicy::AfterDue
                               : ReplacePolicy::OnFrequentErrors;
    cfg.nodes = static_cast<unsigned>(options.getPositiveInt("nodes", 16384));
    cfg.trials = static_cast<unsigned>(options.getPositiveInt("trials", 1));
    if (!options.has("seed"))
        fatal("perfbench: --seed is required");
    cfg.seed = static_cast<uint64_t>(options.getNonNegativeInt("seed", 0));
    for (const std::string &label : split(options.getString("rows", "")))
        cfg.rows.push_back(parseRow(label));
    if (cfg.rows.empty())
        fatal("perfbench: --rows is empty");
    cfg.threads = static_cast<unsigned>(options.getPositiveInt("threads", 1));
    cfg.shards = static_cast<unsigned>(options.getPositiveInt("shards", 1));
    cfg.seconds = options.getDouble("seconds", 10.0);
    cfg.trace = options.getInt("trace", 0) != 0;
    cfg.references = options.has("references");
    cfg.stateDir = options.getString("state-dir", "");
    if (cfg.stateDir.empty())
        fatal("perfbench: --state-dir is required");
    // Every measured unit is checked: a run without references is refused
    // rather than passed unchecked.
    if (!cfg.references) {
        cfg.expect = split(options.getString("expect", ""));
        if (cfg.expect.size() != cfg.rows.size())
            fatal("perfbench: --expect needs one digest per row");
    }
    cfg.spansPath = options.getString("spans", "");
    return cfg;
}

/** Everything built before the first trial. */
struct Setup
{
    LifetimeConfig config;
    std::unique_ptr<LifetimeSimulator> sim;
    std::unique_ptr<FleetSimulator> fleet;
    std::vector<MechanismFactory> factories;
    std::unique_ptr<CampaignRunner> campaign;
    std::unique_ptr<WorkerCampaignRunner> pool;
};

CampaignFingerprint
fingerprint(const Config &cfg)
{
    std::ostringstream config;
    config << "nodes=" << cfg.nodes << ",fit=" << cfg.fit
           << ",policy=" << (cfg.policy == ReplacePolicy::AfterDue ? "A" : "B");
    return {"perfbench/" + cfg.workload, cfg.seed, cfg.trials, cfg.shards,
            config.str()};
}

/**
 * Open a fresh checkpoint (campaign) or worker pool (fleet). Every unit
 * runs on a fresh one, so each row is timed alike whatever ran before.
 */
void
openRunner(const Config &cfg, Setup &setup)
{
    setup.campaign.reset();
    setup.pool.reset();
    if (cfg.engine == Engine::Campaign) {
        CampaignOptions options;
        options.checkpointPath = cfg.stateDir + "/campaign.ckpt";
        std::remove(options.checkpointPath.c_str());
        options.shards = cfg.shards;
        setup.campaign =
            std::make_unique<CampaignRunner>(fingerprint(cfg), options);
    } else if (cfg.engine == Engine::Fleet) {
        WorkerOptions options;
        options.workers = kWorkers;
        options.checkpointPath = cfg.stateDir + "/fleet.ckpt";
        options.shards = cfg.shards;
        // The parent notices a finished unit up to one poll period late.
        // The default 20 ms period is lost in a real campaign's hours but
        // would quantise the benchmark's sub-second units into 20 ms steps.
        options.pollMs = 1;
        setup.pool = std::make_unique<WorkerCampaignRunner>(
            fingerprint(cfg), options);
    }
}

Setup
buildSetup(const Config &cfg)
{
    Setup setup;
    setup.config.faultModel.fitScale = cfg.fit;
    setup.config.nodesPerSystem = cfg.nodes;
    setup.config.policy = cfg.policy;
    const DramGeometry &geometry = setup.config.faultModel.geometry;
    const DramAddressMap map =
        makeAddressMap(setup.config.mapping, geometry);
    setup.sim = std::make_unique<LifetimeSimulator>(setup.config);
    if (cfg.engine == Engine::Fleet)
        setup.fleet = std::make_unique<FleetSimulator>(setup.config);
    for (const RowSpec &row : cfg.rows)
        setup.factories.push_back(makeFactory(row, geometry, map));
    openRunner(cfg, setup);
    return setup;
}

// ---------------------------------------------------------------------
// Running units.

/**
 * Correctness bookkeeping. A unit is one row run once (with its
 * cross-checks in the traced run); it fails if any of its checks does.
 */
struct Checks
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, uint64_t> failures;  ///< By check name.

    void unit(const std::vector<std::string> &failed_checks)
    {
        ++attempted;
        if (failed_checks.empty())
            return;
        ++failed;
        for (const std::string &check : failed_checks) {
            ++failures[check];
            warn("perfbench: check failed: " + check);
        }
    }
};

/** Append @p check to @p failed unless @p ok. */
void
expect(std::vector<std::string> &failed, bool ok, const std::string &check)
{
    if (!ok)
        failed.push_back(check);
}

struct UnitResult
{
    LifetimeSummary summary;
    int64_t ns = 0;
    uint64_t shards = 0;         ///< Committed (campaign) or run (fleet).
    uint64_t checkpointBytes = 0;
    int64_t workerPeakRss = 0;   ///< Fleet: the largest worker's peak.
    int64_t workerSumRss = 0;    ///< Fleet: sum of the worker slots' peaks.
};

std::string
unitName(const Config &cfg, const RowSpec &row)
{
    return cfg.workload + "/" + row.label;
}

/**
 * Run row @p r once through the workload's engine, timed, then open a
 * fresh runner for the next unit.
 */
UnitResult
runUnit(const Config &cfg, Setup &setup, size_t r)
{
    const uint64_t seed = cfg.seed;
    const RowSpec &row = cfg.rows[r];
    const MechanismFactory &factory = setup.factories[r];
    UnitResult out;
    const int64_t start = nowNs();
    switch (cfg.engine) {
      case Engine::Classic: {
        TrialRunOptions options;
        options.parallel.threads = cfg.threads;
        out.summary =
            setup.sim->runTrials(cfg.trials, factory, seed, options);
        break;
      }
      case Engine::Campaign: {
        TrialRunOptions options;
        options.parallel.threads = cfg.threads;
        const CampaignResult result = setup.campaign->runUnit(
            unitName(cfg, row), *setup.sim, factory, cfg.trials, seed,
            options);
        if (result.interrupted)
            fatal("perfbench: interrupted");
        out.summary = result.summary;
        out.shards = setup.campaign->log().committedShards();
        struct stat st = {};
        if (::stat(setup.campaign->log().path().c_str(), &st) == 0)
            out.checkpointBytes = static_cast<uint64_t>(st.st_size);
        break;
      }
      case Engine::Fleet: {
        FleetTrialOptions options;
        options.parallel.threads = 1;
        const CampaignResult result = setup.pool->runUnitFleet(
            unitName(cfg, row), *setup.fleet, factory, cfg.trials, seed,
            options);
        if (result.interrupted || !result.quarantinedShards.empty())
            fatal("perfbench: worker pool did not finish unit " +
                  unitName(cfg, row));
        out.summary = result.summary;
        out.shards = result.shardsRun;
        out.workerPeakRss = setup.pool->workerPeakRssBytes();
        out.workerSumRss = setup.pool->workerSumRssBytes();
        break;
      }
    }
    out.ns = nowNs() - start;
    openRunner(cfg, setup);
    return out;
}

/** Bare in-process replica of row @p r, timed. */
UnitResult
runReplica(const Config &cfg, const Setup &setup, size_t r, unsigned threads)
{
    const uint64_t seed = cfg.seed;
    UnitResult out;
    const int64_t start = nowNs();
    if (cfg.engine == Engine::Fleet) {
        FleetTrialOptions options;
        options.parallel.threads = threads;
        out.summary = setup.fleet->runTrials(cfg.trials, setup.factories[r],
                                             seed, options);
    } else {
        TrialRunOptions options;
        options.parallel.threads = threads;
        out.summary = setup.sim->runTrials(cfg.trials, setup.factories[r],
                                           seed, options);
    }
    out.ns = nowNs() - start;
    return out;
}

/** Row @p r's summary against its committed digest. */
bool
matchesReference(const Config &cfg, size_t r, const LifetimeSummary &summary)
{
    return digest(summary) == cfg.expect[r];
}

struct RowMeans
{
    double dues = 0;
    double sdcs = 0;
    double replacements = 0;
};

RowMeans
means(const LifetimeSummary &summary)
{
    return {summary.dues.mean(), summary.sdcs.mean(),
            summary.replacements.mean()};
}

/**
 * One traced round: untraced replica, traced copy, engine unit. Every
 * round runs the same trials, so their counts repeat exactly.
 */
void
tracedRound(const Config &cfg, Setup &setup, Layers &layers, SpanLog &spans,
            uint32_t &trial_ids, Checks &checks,
            std::vector<RowMeans> &row_means)
{
    const uint64_t seed = cfg.seed;
    const LifetimeSimulator &sim = *setup.sim;
    for (size_t r = 0; r < cfg.rows.size(); ++r) {
        const RowSpec &row = cfg.rows[r];
        RepairStats *stats = repairStatsFor(layers, row.family());

        std::vector<std::string> failed;
        const UnitResult untraced = runReplica(cfg, setup, r, 1);
        layers.untracedNs += untraced.ns;
        expect(failed, matchesReference(cfg, r, untraced.summary),
               "reference digest " + row.label);
        row_means[r] = means(untraced.summary);

        const int64_t start = nowNs();
        const LifetimeSummary traced = cfg.engine == Engine::Fleet
            ? tracedFleet(*setup.fleet, sim, setup.factories[r], stats,
                          cfg.trials, seed, layers, spans, trial_ids)
            : tracedClassic(sim, setup.factories[r], stats, cfg.trials,
                            seed, layers, spans, trial_ids);
        const int64_t traced_ns = nowNs() - start;
        layers.tracedNs += traced_ns;
        if (row.family() == Family::FreeFault)
            layers.freeFaultTracedNs += traced_ns;
        expect(failed, digest(traced) == digest(untraced.summary),
               "traced copy == untraced " + row.label);

        if (cfg.engine == Engine::Campaign) {
            const UnitResult replica =
                cfg.threads == 1 ? untraced
                                 : runReplica(cfg, setup, r, cfg.threads);
            layers.campaignReplicaNs += replica.ns;
            const UnitResult unit = runUnit(cfg, setup, r);
            layers.runUnit.add(unit.ns);
            layers.shardsCommitted += unit.shards;
            layers.checkpointBytes += unit.checkpointBytes;
            expect(failed, digest(unit.summary) == digest(replica.summary),
                   "campaign unit == runTrials " + row.label);
        } else if (cfg.engine == Engine::Fleet) {
            // The pool's own cost: its unit time less an in-process
            // replica at the pool's parallelism.
            layers.fleetReplicaNs +=
                runReplica(cfg, setup, r, kWorkers).ns;
            const UnitResult unit = runUnit(cfg, setup, r);
            layers.runUnitFleet.add(unit.ns);
            layers.shardsRun += unit.shards;
            layers.workerPeakRss =
                std::max(layers.workerPeakRss, unit.workerPeakRss);
            expect(failed, digest(unit.summary) == digest(traced),
                   "worker pool == in-process fleet copy " + row.label);
        }
        checks.unit(failed);
    }
}

// ---------------------------------------------------------------------
// JSON output (flat objects of numbers and strings only).

class JsonOut
{
  public:
    void number(const std::string &key, double value)
    {
        char text[64];
        std::snprintf(text, sizeof text, "%.17g",
                      std::isfinite(value) ? value : 0.0);
        raw(key, text);
    }

    void text(const std::string &key, const std::string &value)
    {
        raw(key, "\"" + value + "\"");
    }

    void raw(const std::string &key, const std::string &json)
    {
        body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":") + json;
    }

    std::string str() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** The per-layer metrics of the traced run (medians over rounds). */
void
layerMetrics(const Config &cfg, std::vector<Layers> &rounds, JsonOut &out)
{
    std::vector<uint32_t> sample_ns;
    std::vector<uint32_t> try_ns[3];
    for (Layers &l : rounds) {
        sample_ns.insert(sample_ns.end(), l.sampleNs.begin(),
                         l.sampleNs.end());
        for (size_t i = 0; i < 3; ++i)
            try_ns[i].insert(try_ns[i].end(), l.repair[i].tryNs.begin(),
                             l.repair[i].tryNs.end());
    }
    const auto med = [&](auto field) {
        std::vector<double> values;
        for (const Layers &l : rounds)
            values.push_back(field(l));
        return median(values);
    };
    // Counts repeat exactly every round; times are per-round medians.
    const Layers &first = rounds.front();

    out.number("faults.sample_node.calls", first.sampleNode.calls);
    out.number("faults.sample_node.busy_s",
               med([](const Layers &l) { return toSeconds(l.sampleNode.ns); }));
    out.number("faults.sample_node.ns_p50", quantile(sample_ns, 0.50));
    out.number("faults.sample_node.ns_p99", quantile(sample_ns, 0.99));
    out.number("faults.faults_per_node",
               ratio(first.sampledFaults, first.sampleNode.calls));

    out.number("fleet.sample_node_into.calls", first.sampleInto.calls);
    out.number("fleet.sample_node_into.busy_s",
               med([](const Layers &l) { return toSeconds(l.sampleInto.ns); }));
    out.number("fleet.skip_ratio",
               ratio(first.skippedNodes, first.sampleInto.calls));

    out.number("sim.simulate_node.calls", first.simulate.calls);
    out.number("sim.simulate_node.busy_s",
               med([](const Layers &l) { return toSeconds(l.simulate.ns); }));
    out.number("sim.simulate_node.self_s", med([](const Layers &l) {
                   return toSeconds(l.simulate.ns - l.repairNs());
               }));

    for (size_t i = 0; i < 3; ++i) {
        const std::string p =
            std::string("repair.") + familyKey(kRepairFamilies[i]) + ".";
        const RepairStats &r = first.repair[i];
        out.number(p + "try_repair.calls", r.tryRepair.calls);
        out.number(p + "try_repair.busy_s", med([i](const Layers &l) {
                       return toSeconds(l.repair[i].tryRepair.ns);
                   }));
        out.number(p + "try_repair.ns_p50", quantile(try_ns[i], 0.50));
        out.number(p + "try_repair.ns_p99", quantile(try_ns[i], 0.99));
        out.number(p + "ok_ratio", ratio(r.ok, r.tryRepair.calls));
        out.number(p + "reset.calls", r.reset.calls);
        out.number(p + "reset.busy_s", med([i](const Layers &l) {
                       return toSeconds(l.repair[i].reset.ns);
                   }));
        out.number(p + "rebuild.calls", r.rebuilds);
    }
    const size_t ff = 1;  // kRepairFamilies[1] == FreeFault
    out.number("repair.freefault.host_share", med([ff](const Layers &l) {
                   return ratio(l.repair[ff].tryRepair.ns +
                                    l.repair[ff].reset.ns,
                                l.freeFaultTracedNs);
               }));

    out.number("campaign.run_unit.busy_s",
               med([](const Layers &l) { return toSeconds(l.runUnit.ns); }));
    out.number("campaign.overhead_s", med([](const Layers &l) {
                   return l.runUnit.calls == 0
                       ? 0.0
                       : toSeconds(l.runUnit.ns - l.campaignReplicaNs);
               }));
    out.number("campaign.shards_committed", first.shardsCommitted);
    out.number("campaign.checkpoint_bytes", first.checkpointBytes);

    out.number("fleet.run_unit_fleet.busy_s", med([](const Layers &l) {
                   return toSeconds(l.runUnitFleet.ns);
               }));
    out.number("fleet.pool_overhead_s", med([](const Layers &l) {
                   return l.runUnitFleet.calls == 0
                       ? 0.0
                       : toSeconds(l.runUnitFleet.ns - l.fleetReplicaNs);
               }));
    out.number("fleet.shards_run", first.shardsRun);
    out.number("fleet.worker_peak_rss_bytes",
               static_cast<double>(first.workerPeakRss));

    out.number("trace.overhead_frac", med([](const Layers &l) {
                   return ratio(l.tracedNs - l.untracedNs, l.untracedNs);
               }));
    out.number("trace.unattributed_s", med([](const Layers &l) {
                   const int64_t self = l.sampleNode.ns + l.sampleInto.ns +
                                        l.simulate.ns;  // includes repair
                   return toSeconds(l.tracedNs - self);
               }));
}

/**
 * Median time from forking this binary to the child's main(), which
 * sends back the steady-clock time it was entered at: the process-start
 * part of set-up (loader, libraries, static initialisers). The program
 * spawns itself, while still small, so the caller's state stays out.
 */
double
execSeconds()
{
    std::vector<double> samples;
    for (unsigned rep = 0; rep < kSetupReps; ++rep) {
        int fds[2];
        if (::pipe(fds) != 0)
            fatal("perfbench: pipe() failed");
        const int64_t spawned = nowNs();
        const pid_t pid = spawnProcess([&fds]() {
            ::dup2(fds[1], STDOUT_FILENO);
            ::close(fds[0]);
            ::close(fds[1]);
            ::execl("/proc/self/exe", "perfbench", "--probe",
                    static_cast<char *>(nullptr));
            return 127;
        });
        ::close(fds[1]);
        int64_t entered = 0;
        const bool got = ::read(fds[0], &entered, sizeof entered) ==
                         static_cast<ssize_t>(sizeof entered);
        ::close(fds[0]);
        const ProcessStatus status = waitProcess(pid);
        if (!got || status.signaled || status.exitCode != 0)
            fatal("perfbench: exec probe failed");
        samples.push_back(toSeconds(entered - spawned));
    }
    return median(samples);
}

int
runBenchmark(const Config &cfg)
{
    // Set-up is a millisecond or less, too short to time once: process
    // start and the set-up body are each repeated and their medians
    // summed; the last repetition's objects run the trials.
    const double exec_s = execSeconds();
    std::vector<double> setup_s;
    Setup setup;
    for (unsigned rep = 0; rep < kSetupReps; ++rep) {
        setup = Setup{};
        const int64_t start = nowNs();
        setup = buildSetup(cfg);
        setup_s.push_back(toSeconds(nowNs() - start));
    }

    if (cfg.references) {
        JsonOut out;
        std::string digests;
        for (size_t r = 0; r < cfg.rows.size(); ++r) {
            const UnitResult replica = runReplica(cfg, setup, r, cfg.threads);
            digests += (r == 0 ? "\"" : ",\"") + digest(replica.summary) +
                       "\"";
        }
        out.raw("digests", "[" + digests + "]");
        std::cout << out.str() << std::endl;
        return 0;
    }

    const size_t rows = cfg.rows.size();
    Checks checks;
    std::vector<RowMeans> row_means(rows);
    std::vector<double> best_ns(rows, 0.0);  ///< Fastest unit per row.
    std::vector<Layers> traced_rounds;
    SpanLog spans;
    uint32_t trial_ids = 0;

    const int64_t begin = nowNs();
    const auto deadline =
        begin + static_cast<int64_t>(cfg.seconds * 1e9);
    int64_t last_round = 0;
    unsigned rounds = 0;
    int64_t worker_peak = 0;
    int64_t worker_sum = 0;
    while (rounds == 0 || nowNs() + last_round <= deadline) {
        const int64_t round_start = nowNs();
        if (cfg.trace) {
            spans.recording = rounds == 0;
            traced_rounds.emplace_back();
            tracedRound(cfg, setup, traced_rounds.back(), spans, trial_ids,
                        checks, row_means);
        } else {
            for (size_t r = 0; r < rows; ++r) {
                int64_t spent = 0;
                do {
                    const UnitResult unit = runUnit(cfg, setup, r);
                    const double ns = static_cast<double>(unit.ns);
                    best_ns[r] = best_ns[r] == 0.0 ? ns
                                                   : std::min(best_ns[r], ns);
                    spent += unit.ns;
                    worker_peak = std::max(worker_peak, unit.workerPeakRss);
                    worker_sum = std::max(worker_sum, unit.workerSumRss);
                    if (rounds == 0)
                        row_means[r] = means(unit.summary);
                    std::vector<std::string> failed;
                    expect(failed, matchesReference(cfg, r, unit.summary),
                           "reference digest " + cfg.rows[r].label);
                    checks.unit(failed);
                } while (spent < kMinRowNs);
            }
        }
        ++rounds;
        last_round = nowNs() - round_start;
    }

    JsonOut metrics;
    if (cfg.trace) {
        layerMetrics(cfg, traced_rounds, metrics);
        if (!cfg.spansPath.empty())
            spans.write(cfg.spansPath, "workload=" + cfg.workload +
                                           " seed=" +
                                           std::to_string(cfg.seed));
    } else {
        // Throughputs: the trials of the rows concerned over the sum of
        // their fastest unit times.
        const auto rate = [&](auto selected) {
            double ns = 0;
            unsigned units = 0;
            for (size_t r = 0; r < rows; ++r) {
                if (!selected(cfg.rows[r]))
                    continue;
                ns += best_ns[r];
                ++units;
            }
            return units == 0 ? 0.0 : units * cfg.trials / (ns * 1e-9);
        };
        metrics.number("trials_per_sec", rate([](const RowSpec &) {
                           return true;
                       }));
        for (const Family family : {Family::None, Family::Ppr,
                                    Family::FreeFault, Family::RelaxFault}) {
            const double value = rate([family](const RowSpec &row) {
                return row.family() == family;
            });
            if (value > 0.0)
                metrics.number(std::string(familyKey(family)) +
                                   ".trials_per_sec",
                               value);
        }
    }

    const int64_t parent = peakRssBytes();

    std::string row_list;
    for (size_t r = 0; r < rows; ++r) {
        JsonOut row;
        row.text("label", cfg.rows[r].label);
        row.text("family", familyKey(cfg.rows[r].family()));
        row.number("dues", row_means[r].dues);
        row.number("sdcs", row_means[r].sdcs);
        row.number("replacements", row_means[r].replacements);
        if (!cfg.trace)
            row.number("trials_per_sec", cfg.trials / (best_ns[r] * 1e-9));
        row_list += (r == 0 ? "" : ",") + row.str();
    }
    std::string failures;
    for (const auto &[name, count] : checks.failures) {
        JsonOut f;
        f.text("check", name);
        f.number("count", static_cast<double>(count));
        failures += (failures.empty() ? "" : ",") + f.str();
    }

    JsonOut out;
    out.raw("metrics", metrics.str());
    out.raw("rows", "[" + row_list + "]");
    out.raw("failures", "[" + failures + "]");
    out.number("attempted", static_cast<double>(checks.attempted));
    out.number("failed", static_cast<double>(checks.failed));
    out.number("rounds", rounds);
    out.number("trials_per_unit", cfg.trials);
    out.number("setup_s", exec_s + median(setup_s));
    out.number("parent_peak_rss_bytes", static_cast<double>(parent));
    out.number("worker_peak_rss_bytes", static_cast<double>(worker_peak));
    out.number("worker_sum_rss_bytes", static_cast<double>(worker_sum));
    out.number("spans", static_cast<double>(spans.size()));
    out.number("malformed_spans", static_cast<double>(spans.malformed()));
    std::cout << out.str() << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Child of execSeconds(): write the entry time to stdout and exit.
    const int64_t entered = nowNs();
    const CliOptions options(
        argc, argv,
        {"probe", "workload", "engine", "fit", "policy", "nodes", "trials",
         "seed", "rows", "threads", "shards", "seconds", "trace",
         "references", "state-dir", "expect", "spans"});
    if (options.has("probe"))
        return ::write(STDOUT_FILENO, &entered, sizeof entered) ==
                       static_cast<ssize_t>(sizeof entered)
            ? 0 : 1;
    return runBenchmark(parseConfig(options));
}
