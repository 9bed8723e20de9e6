/**
 * @file
 * Chaos soak: fig12-shaped worker-pool campaigns run under failpoint
 * schedules covering every injection site (`fs.open`, `fs.write`,
 * `fs.fsync`, `fs.rename`, `fs.close`, `ckpt.publish`, `shm.pop`,
 * `fleet.pop`), at {1,4} threads x {1,2} workers.
 *
 * The robustness contract under test: every scenario must either
 *
 *   - complete with a summary digest BIT-IDENTICAL to the fault-free
 *     in-process baseline, or
 *   - fail loudly, with a site-naming diagnostic on stderr and a
 *     nonzero exit status.
 *
 * Never hang (a per-scenario wall-clock deadline enforces this), never
 * corrupt (exit 0 with a digest that differs from the baseline), never
 * fail silently (nonzero exit without a diagnostic). Each scenario runs
 * in a forked child so an injected `abort`/fatal kills only that
 * scenario; the parent supervises with `pollProcess` + SIGKILL exactly
 * like the fleet watchdog it exercises.
 *
 *   chaos_soak                        # full matrix, all scenarios
 *   chaos_soak --quick                # one combo per scenario (CI smoke)
 *   chaos_soak --seed=7 --json        # reseed the randomized mix
 *   chaos_soak --scenario=poison-shard
 *
 * Exits 0 only if every scenario's outcome matches its expectation.
 */

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "common/clock.h"
#include "common/failpoint.h"
#include "common/fs.h"
#include "common/process.h"
#include "common/table.h"
#include "lifetime_bench.h"

using namespace relaxfault;
using namespace relaxfault::bench;

namespace {

/** One (threads, workers) cell of the soak matrix. */
struct Combo
{
    unsigned threads;
    unsigned workers;
};

constexpr Combo kCombos[] = {{1, 1}, {1, 2}, {4, 1}, {4, 2}};

/** What a scenario is allowed to do and still pass. */
enum class Expected
{
    Identical,  ///< Must complete, digest == fault-free baseline.
    Loud,       ///< Must exit nonzero with a diagnostic on stderr.
    Either,     ///< Identical or Loud both pass (randomized schedules).
};

/** What the scenario actually did. */
enum class Outcome
{
    Identical,  ///< Exit 0, digest == baseline.
    Loud,       ///< Nonzero exit, diagnostic found.
    Corrupt,    ///< Exit 0 but digest differs from baseline.
    Silent,     ///< Nonzero exit (or missing digest) with no diagnostic.
    Hang,       ///< Blew the wall-clock deadline; SIGKILLed.
};

const char *
outcomeName(Outcome outcome)
{
    switch (outcome) {
      case Outcome::Identical: return "identical";
      case Outcome::Loud: return "loud";
      case Outcome::Corrupt: return "CORRUPT";
      case Outcome::Silent: return "SILENT";
      case Outcome::Hang: return "HANG";
    }
    return "?";
}

const char *
expectedName(Expected expected)
{
    switch (expected) {
      case Expected::Identical: return "identical";
      case Expected::Loud: return "loud";
      case Expected::Either: return "either";
    }
    return "?";
}

struct Scenario
{
    std::string name;
    std::string spec;            ///< RELAXFAULT_FAILPOINTS syntax.
    Expected expected;
    unsigned quarantineAfter;    ///< Crashed attempts before quarantine.
    uint64_t watchdogMs;         ///< Heartbeat deadline inside the child.
};

/**
 * The shipped schedule set. One scenario per injection site plus the
 * recovery-path compounds; `random-mix` reseeds from `--seed` so CI
 * explores a fresh probabilistic schedule every run (Either: it may
 * recover bit-identically or die loudly, but never hang or corrupt).
 */
std::vector<Scenario>
makeScenarios(uint64_t seed)
{
    const std::string s = std::to_string(seed);
    return {
        {"fault-free", "", Expected::Identical, 4, 2000},
        {"open-eacces", "fs.open:error=EACCES@nth=3",
         Expected::Identical, 4, 2000},
        {"write-enospc", "fs.write:error=ENOSPC@nth=1",
         Expected::Identical, 4, 2000},
        {"write-short", "fs.write:short@every=3",
         Expected::Either, 4, 2000},
        {"fsync-eio", "fs.fsync:error=EIO@nth=2",
         Expected::Identical, 4, 2000},
        {"close-eio", "fs.close:error=EIO@nth=2",
         Expected::Identical, 4, 2000},
        {"torn-rename", "fs.rename:torn@nth=1",
         Expected::Identical, 4, 2000},
        {"publish-flaky", "ckpt.publish:error=ENOSPC@every=2",
         Expected::Identical, 4, 2000},
        {"publish-dead", "ckpt.publish:error=ENOSPC@always",
         Expected::Loud, 4, 2000},
        {"pop-delay", "shm.pop:delay=2@every=7",
         Expected::Identical, 4, 2000},
        {"worker-crash", "fleet.pop:abort@nth=2",
         Expected::Identical, 6, 2000},
        {"worker-hang", "fleet.pop:delay=60000@nth=2",
         Expected::Identical, 6, 800},
        {"poison-shard", "fleet.pop:abort@always",
         Expected::Loud, 2, 2000},
        {"random-mix",
         "fs.write:error=ENOSPC@p=0.1/" + s +
             ",ckpt.publish:error=EIO@p=0.2/" + s +
             ",shm.pop:delay=1@p=0.05/" + s,
         Expected::Either, 4, 2000},
    };
}

/** Fig12-shaped (1x of it): 10x FIT, ReplA, repair matrix subset. */
LifetimeConfig
soakConfig(unsigned nodes)
{
    LifetimeConfig config;
    config.nodesPerSystem = nodes;
    config.faultModel.fitScale = 10.0;
    config.policy = ReplacePolicy::AfterDue;
    return config;
}

std::vector<std::pair<std::string, MechanismSpec>>
soakUnits()
{
    return {{"none", MechanismSpec::none()},
            {"relax4", MechanismSpec::relaxFault(4)}};
}

/**
 * Bit-exact serialization of a unit's summary: every moment of every
 * RunningStat at full double precision. String equality of two digests
 * is the soak's "bit-identical" check.
 */
std::string
digestSummary(const std::string &unit, const LifetimeSummary &s)
{
    const RunningStat *stats[] = {
        &s.faultyNodes, &s.multiDeviceFaultDimms, &s.dues, &s.sdcs,
        &s.replacements, &s.repairedFaults, &s.permanentFaults,
        &s.fullyRepairedNodes, &s.budgetExhausted,
        &s.degradedToRetirement, &s.degradedDues, &s.failStops};
    std::string out = unit + "\n";
    for (const RunningStat *stat : stats) {
        char line[200];
        std::snprintf(line, sizeof(line),
                      "%zu %.17g %.17g %.17g %.17g %.17g\n", stat->count(),
                      stat->sum(), stat->mean(), stat->variance(),
                      stat->min(), stat->max());
        out += line;
    }
    return out;
}

/**
 * Child body: arm the scenario's failpoints, run the campaign through a
 * worker pool, and publish the digest. Runs after fork; exits through
 * `_exit` in spawnProcess. Stdout/stderr are redirected to `<dir>/log`
 * so the parent can scan for diagnostics.
 */
int
runScenarioChild(const Scenario &scenario, const Combo &combo,
                 unsigned trials, unsigned nodes, unsigned shards,
                 uint64_t seed, const std::string &dir)
{
    const int fd = ::open((dir + "/log").c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
    }
    if (!scenario.spec.empty())
        failpoint::applySpecList(scenario.spec);

    const LifetimeConfig config = soakConfig(nodes);
    const LifetimeSimulator simulator(config);

    CampaignFingerprint fingerprint;
    fingerprint.campaign = "chaos_soak";
    fingerprint.seed = seed;
    fingerprint.trials = trials;
    fingerprint.shards = shards;
    fingerprint.config = "nodes=" + std::to_string(nodes) +
                         ",scenario=" + scenario.name;

    CampaignOptions options;
    options.workers = combo.workers;
    options.checkpointPath = dir + "/ckpt";
    options.shards = shards;
    options.maxRounds = 10;
    options.watchdogMs = scenario.watchdogMs;
    options.pollMs = 5;
    options.quarantineAfter = scenario.quarantineAfter;
    CampaignRunner pool(fingerprint, options);

    TrialRunOptions run;
    run.parallel.threads = combo.threads;

    std::string digest;
    for (const auto &[label, spec] : soakUnits()) {
        const LifetimeSimulator::MechanismFactory factory =
            makeFactory(spec, config.faultModel.geometry);
        const CampaignResult result =
            pool.runUnit(label, simulator, factory, trials, seed, run);
        if (result.interrupted)
            return pool.exitStatus();
        digest += digestSummary(label, result.summary);
    }
    failpoint::disarmAll();

    if (pool.shardsQuarantined() > 0) {
        // Partial numbers must never masquerade as a clean digest.
        warn("chaos_soak[" + scenario.name + "]: " +
             std::to_string(pool.shardsQuarantined()) +
             " shard(s) quarantined — results are PARTIAL (see " +
             CampaignRunner::supervisorLogPath(
                 pool.checkpointBasePath()) + ")");
        return kQuarantineExitStatus;
    }

    // Plain ofstream: the digest is the verdict artifact, not a
    // checkpoint — it must not pass through the (possibly still armed)
    // fs failpoint sites.
    std::ofstream out(dir + "/digest", std::ios::trunc);
    out << digest;
    out.flush();
    return out ? 0 : 70;
}

struct ScenarioResult
{
    Outcome outcome = Outcome::Silent;
    bool pass = false;
    int exitCode = 0;
    int termSignal = 0;
    uint64_t elapsedMs = 0;
    std::string note;
};

/** First log line that diagnoses the failure, or empty. */
std::string
findDiagnostic(const std::string &log)
{
    for (const std::string &line : splitLines(log)) {
        if (line.find("fatal:") != std::string::npos ||
            line.find("quarantined") != std::string::npos ||
            line.find("PARTIAL") != std::string::npos)
            return line;
    }
    return "";
}

/**
 * Fork, supervise against the deadline, and classify. The supervision
 * loop is deliberately the same poll-kill-reap shape as the fleet
 * watchdog: a chaos harness that can itself hang would be no gate.
 */
ScenarioResult
runScenario(const Scenario &scenario, const Combo &combo, unsigned trials,
            unsigned nodes, unsigned shards, uint64_t seed,
            uint64_t timeout_ms, const std::string &baseline,
            const std::string &dir)
{
    ScenarioResult verdict;
    Clock &clock = Clock::steady();
    const Clock::TimePoint start = clock.now();
    const pid_t pid = spawnProcess(
        [&] {
            return runScenarioChild(scenario, combo, trials, nodes,
                                    shards, seed, dir);
        });
    std::optional<ProcessStatus> status;
    while (!(status = pollProcess(pid)).has_value()) {
        if (clock.elapsedMs(start) >= timeout_ms) {
            killProcess(pid, SIGKILL);
            (void)waitProcess(pid);
            verdict.outcome = Outcome::Hang;
            verdict.elapsedMs = clock.elapsedMs(start);
            verdict.note = "deadline " + std::to_string(timeout_ms) +
                           "ms exceeded";
            return verdict;
        }
        clock.sleepFor(std::chrono::milliseconds(10));
    }
    verdict.elapsedMs = clock.elapsedMs(start);
    verdict.exitCode = status->exited ? status->exitCode : 0;
    verdict.termSignal = status->signaled ? status->termSignal : 0;

    std::string log;
    (void)readFile(dir + "/log", log);

    if (status->ok()) {
        std::string digest;
        if (!readFile(dir + "/digest", digest)) {
            verdict.outcome = Outcome::Silent;
            verdict.note = "exit 0 but no digest artifact";
        } else if (digest == baseline) {
            verdict.outcome = Outcome::Identical;
        } else {
            verdict.outcome = Outcome::Corrupt;
            verdict.note = "digest differs from fault-free baseline";
        }
    } else {
        const std::string diagnostic = findDiagnostic(log);
        if (!diagnostic.empty()) {
            verdict.outcome = Outcome::Loud;
            verdict.note = diagnostic.substr(0, 72);
        } else {
            verdict.outcome = Outcome::Silent;
            verdict.note = status->signaled
                               ? "killed by signal " +
                                     std::to_string(status->termSignal) +
                                     " with no diagnostic"
                               : "exit " +
                                     std::to_string(status->exitCode) +
                                     " with no diagnostic";
        }
    }

    switch (scenario.expected) {
      case Expected::Identical:
        verdict.pass = verdict.outcome == Outcome::Identical;
        break;
      case Expected::Loud:
        verdict.pass = verdict.outcome == Outcome::Loud;
        break;
      case Expected::Either:
        verdict.pass = verdict.outcome == Outcome::Identical ||
                       verdict.outcome == Outcome::Loud;
        break;
    }
    return verdict;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions options(argc, argv,
                             {"trials", "seed", "nodes", "shards",
                              "scenario", "quick", "timeout-ms", "json"});
    const auto trials =
        static_cast<unsigned>(options.getPositiveInt("trials", 6));
    const auto seed = static_cast<uint64_t>(options.getInt("seed", 2601));
    const auto nodes =
        static_cast<unsigned>(options.getPositiveInt("nodes", 128));
    const auto shards =
        static_cast<unsigned>(options.getPositiveInt("shards", 4));
    const auto timeout_ms = static_cast<uint64_t>(
        options.getPositiveInt("timeout-ms", 120000));
    const bool quick = options.has("quick");
    const std::string only = options.getString("scenario", "");

    BenchReport report(options, "chaos_soak");
    report.record().setSeed(seed).setTrials(trials).setThreads(0);
    report.record().setConfig("nodes", static_cast<int64_t>(nodes));
    report.record().setConfig("shards", static_cast<int64_t>(shards));
    report.record().setConfig("quick", static_cast<int64_t>(quick));

    // Fault-free baseline, in-process: the reference every worker-pool
    // scenario digest must match bit-for-bit. Single-threaded — the
    // engine's results are thread-count invariant, and the soak matrix
    // re-proves that by diffing {1,4}-thread runs against this digest.
    const LifetimeConfig config = soakConfig(nodes);
    const LifetimeSimulator simulator(config);
    TrialRunOptions baseline_run;
    baseline_run.parallel.threads = 1;
    std::string baseline;
    for (const auto &[label, spec] : soakUnits())
        baseline += digestSummary(
            label, simulator.runTrials(trials,
                                       makeFactory(
                                           spec,
                                           config.faultModel.geometry),
                                       seed, baseline_run));

    std::vector<Scenario> scenarios = makeScenarios(seed);
    if (!only.empty()) {
        std::erase_if(scenarios, [&](const Scenario &s)
                      { return s.name != only; });
        if (scenarios.empty())
            fatal("--scenario=" + only + " is not a chaos scenario");
    }

    std::cout << "Chaos soak: " << scenarios.size() << " scenario(s), "
              << trials << " trials x " << shards << " shards, " << nodes
              << " nodes, seed " << seed
              << (quick ? ", quick (one combo/scenario)" : "") << "\n\n";

    TextTable table;
    table.setHeader({"scenario", "spec", "thr", "wrk", "expected",
                     "outcome", "ms", "verdict"});
    unsigned failures = 0;
    unsigned index = 0;
    for (const Scenario &scenario : scenarios) {
        const unsigned combo_count =
            quick ? 1u : static_cast<unsigned>(std::size(kCombos));
        for (unsigned c = 0; c < combo_count; ++c) {
            // Quick mode rotates through the matrix so CI still touches
            // every (threads, workers) cell across the scenario list.
            const Combo combo =
                quick ? kCombos[index % std::size(kCombos)] : kCombos[c];
            char tmpl[] = "/tmp/relaxfault-chaos-XXXXXX";
            if (::mkdtemp(tmpl) == nullptr)
                fatal("chaos_soak: mkdtemp failed");
            const std::string dir = tmpl;
            const ScenarioResult verdict =
                runScenario(scenario, combo, trials, nodes, shards, seed,
                            timeout_ms, baseline, dir);
            std::error_code ec;
            std::filesystem::remove_all(dir, ec);
            if (!verdict.pass) {
                ++failures;
                warn("chaos_soak FAIL: " + scenario.name + " @" +
                     std::to_string(combo.threads) + "t/" +
                     std::to_string(combo.workers) + "w -> " +
                     outcomeName(verdict.outcome) +
                     (verdict.note.empty() ? "" : " (" + verdict.note +
                                                      ")"));
            }
            table.addRow({scenario.name,
                          scenario.spec.empty() ? "-"
                                                : scenario.spec.substr(
                                                      0, 34),
                          std::to_string(combo.threads),
                          std::to_string(combo.workers),
                          expectedName(scenario.expected),
                          outcomeName(verdict.outcome),
                          std::to_string(verdict.elapsedMs),
                          verdict.pass ? "pass" : "FAIL"});
            report.addRow()
                .set("scenario", scenario.name)
                .set("spec", scenario.spec)
                .set("threads", combo.threads)
                .set("workers", combo.workers)
                .set("expected", expectedName(scenario.expected))
                .set("outcome", outcomeName(verdict.outcome))
                .set("pass", static_cast<uint64_t>(verdict.pass))
                .set("exit_code", verdict.exitCode)
                .set("term_signal", verdict.termSignal)
                .set("elapsed_ms", verdict.elapsedMs)
                .set("note", verdict.note);
            ++index;
        }
    }
    table.print(std::cout);

    if (failures > 0) {
        std::cout << "\n" << failures
                  << " scenario run(s) FAILED the chaos contract "
                     "(hang/corrupt/silent)\n";
    } else {
        std::cout << "\nall scenario runs honored the chaos contract "
                     "(bit-identical or loud)\n";
    }
    report.write();
    return failures == 0 ? 0 : 1;
}
