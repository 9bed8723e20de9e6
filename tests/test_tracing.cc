/**
 * @file
 * Causal-tracing tests: the tracer is invisible (a traced lifetime run
 * is bit-identical to an untraced one at any thread count, and the
 * disabled path costs under a nanosecond per would-be event), the event
 * stream is deterministic and causally well-formed (every repair
 * decision chains under a fault arrival), the Chrome-trace export
 * round-trips bit-exactly — including 10k+-event documents, with torn
 * tails rejected — and the campaign runner's per-shard flushes agree
 * with the absorbed aggregate across crash/resume.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "campaign/campaign.h"
#include "lifetime_bench.h"
#include "repair/relaxfault_repair.h"
#include "sim/lifetime.h"
#include "telemetry/json_reader.h"
#include "telemetry/json_writer.h"
#include "telemetry/metrics.h"
#include "telemetry/profiler.h"
#include "tracing/trace_event.h"
#include "tracing/trace_export.h"
#include "tracing/tracer.h"

namespace relaxfault {
namespace {

LifetimeConfig
smallConfig()
{
    LifetimeConfig config;
    config.nodesPerSystem = 64;
    config.faultModel.fitScale = 20.0;
    return config;
}

LifetimeSimulator::MechanismFactory
tightBudgetFactory()
{
    // A deliberately small budget so repairs fail and degradations /
    // verdicts appear in the trace.
    return []() -> std::unique_ptr<RepairMechanism> {
        return std::make_unique<RelaxFaultRepair>(
            DramGeometry{}, CacheGeometry{8 * 1024 * 1024, 16, 64},
            RepairBudget{1, 64});
    };
}

/** All-fields view for exact event comparison. */
auto
eventTuple(const TraceEvent &e)
{
    return std::tuple(e.id, e.parent, e.trial, e.node, e.unit, e.kind,
                      e.sub, e.timeHours, e.a, e.b, e.c);
}

std::vector<TraceEvent>
withoutKind(const std::vector<TraceEvent> &events, TraceKind kind)
{
    std::vector<TraceEvent> kept;
    for (const TraceEvent &e : events) {
        if (e.kind != kind)
            kept.push_back(e);
    }
    return kept;
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "relaxfault_tracing_" + name + "_" +
           std::to_string(::getpid());
}

// ---------------------------------------------------------------------
// The tracer is invisible: traced == untraced, bit for bit.

TEST(TracingIdentity, TracedRunIsBitIdenticalToUntraced)
{
    const LifetimeSimulator simulator(smallConfig());
    const auto factory = tightBudgetFactory();
    constexpr unsigned kTrials = 6;
    constexpr uint64_t kSeed = 2024;

    TrialRunOptions off;
    off.parallel.threads = 1;
    const LifetimeSummary baseline =
        simulator.runTrials(kTrials, factory, kSeed, off);

    for (const unsigned threads : {1u, 4u}) {
        Tracer tracer;
        TrialRunOptions on;
        on.parallel.threads = threads;
        on.tracer = &tracer;
        on.traceUnit = tracer.registerUnit("identity");
        const LifetimeSummary traced =
            simulator.runTrials(kTrials, factory, kSeed, on);

        // Every statistic identical — the tracer consumed no RNG and
        // touched no simulation state.
        EXPECT_EQ(traced.dues.mean(), baseline.dues.mean());
        EXPECT_EQ(traced.dues.variance(), baseline.dues.variance());
        EXPECT_EQ(traced.sdcs.mean(), baseline.sdcs.mean());
        EXPECT_EQ(traced.replacements.sum(), baseline.replacements.sum());
        EXPECT_EQ(traced.repairedFaults.sum(),
                  baseline.repairedFaults.sum());
        EXPECT_EQ(traced.permanentFaults.sum(),
                  baseline.permanentFaults.sum());
        EXPECT_EQ(traced.fullyRepairedNodes.sum(),
                  baseline.fullyRepairedNodes.sum());
        EXPECT_EQ(traced.faultyNodes.sum(), baseline.faultyNodes.sum());
        EXPECT_GT(tracer.recorded(), 0u);
    }
}

TEST(TracingIdentity, EventStreamIdenticalAcrossThreadCounts)
{
    const LifetimeSimulator simulator(smallConfig());
    const auto factory = tightBudgetFactory();
    // Spans carry wall-clock durations, the one nondeterministic
    // payload; filter them so the full streams must match exactly.
    TracerConfig config;
    config.filter = kTraceAllKinds & ~traceKindBit(TraceKind::Span);

    std::vector<std::vector<TraceEvent>> streams;
    for (const unsigned threads : {1u, 4u}) {
        Tracer tracer(config);
        TrialRunOptions run;
        run.parallel.threads = threads;
        run.tracer = &tracer;
        run.traceUnit = tracer.registerUnit("determinism");
        simulator.runTrials(6, factory, 77, run);
        streams.push_back(tracer.collect());
    }
    ASSERT_EQ(streams[0].size(), streams[1].size());
    ASSERT_GT(streams[0].size(), 0u);
    for (size_t i = 0; i < streams[0].size(); ++i)
        EXPECT_EQ(eventTuple(streams[0][i]), eventTuple(streams[1][i]))
            << "event " << i;
}

// ---------------------------------------------------------------------
// Causal structure: decisions chain under arrivals.

TEST(TracingCausality, ChainsRunFaultToDecisionToOutcome)
{
    const LifetimeSimulator simulator(smallConfig());
    const auto factory = tightBudgetFactory();
    Tracer tracer;
    TrialRunOptions run;
    run.parallel.threads = 2;
    run.tracer = &tracer;
    run.traceUnit = tracer.registerUnit("causality");
    const LifetimeSummary summary =
        simulator.runTrials(8, factory, 4242, run);

    const std::vector<TraceEvent> events = tracer.collect();
    std::map<std::pair<uint64_t, uint64_t>, const TraceEvent *> by_id;
    for (const TraceEvent &e : events)
        by_id[{e.trial, e.id}] = &e;

    const auto kindOf = [&](const TraceEvent &e,
                            uint64_t parent) -> const TraceEvent * {
        const auto it = by_id.find({e.trial, parent});
        return it == by_id.end() ? nullptr : it->second;
    };

    uint64_t arrivals = 0, decisions = 0, degrades = 0, verdicts = 0;
    for (const TraceEvent &e : events) {
        // Parents precede their children within a trial's sequence.
        if (e.parent != 0) {
            const TraceEvent *parent = kindOf(e, e.parent);
            ASSERT_NE(parent, nullptr)
                << "dangling parent for id " << e.id;
            EXPECT_LT(parent->id, e.id);
        }
        switch (e.kind) {
          case TraceKind::FaultArrival:
            ++arrivals;
            break;
          case TraceKind::RepairDecision: {
            ++decisions;
            // Every decision chains under the arrival it answers.
            const TraceEvent *parent = kindOf(e, e.parent);
            ASSERT_NE(parent, nullptr);
            EXPECT_TRUE(parent->kind == TraceKind::FaultArrival ||
                        parent->kind == TraceKind::Replacement)
                << "decision parented by "
                << traceKindName(parent->kind);
            break;
          }
          case TraceKind::Degradation: {
            ++degrades;
            // Walk to the root: a degradation must trace back to the
            // fault that caused it.
            const TraceEvent *cursor = &e;
            while (cursor->parent != 0) {
                const TraceEvent *next = kindOf(*cursor, cursor->parent);
                ASSERT_NE(next, nullptr);
                cursor = next;
            }
            EXPECT_EQ(cursor->kind, TraceKind::FaultArrival);
            break;
          }
          case TraceKind::Verdict:
            ++verdicts;
            break;
          default:
            break;
        }
    }
    EXPECT_GT(arrivals, 0u);
    EXPECT_GT(decisions, 0u);
    // The tight budget forces failures, so the full fault -> decision
    // -> degradation -> verdict story is present in this trace.
    EXPECT_GT(degrades, 0u);
    if (summary.dues.sum() > 0.0) {
        EXPECT_GT(verdicts, 0u);
    }
}

// ---------------------------------------------------------------------
// Export round-trip.

/** Synthetic tracer with > 10k events across units and trials. */
std::unique_ptr<Tracer>
bigTracer(size_t per_trial = 900)
{
    auto tracer = std::make_unique<Tracer>();
    for (const char *label : {"alpha", "beta/4way", "gamma x"}) {
        const uint16_t unit = tracer->registerUnit(label);
        const TraceShardLease lease(tracer.get());
        TraceSink sink(tracer.get(), lease.shard(), unit);
        for (uint64_t trial = 0; trial < 4; ++trial) {
            sink.beginTrial(trial);
            for (size_t i = 0; i < per_trial; ++i) {
                sink.setNode(static_cast<uint32_t>(i % 37));
                sink.setSimTime(0.125 * static_cast<double>(i));
                const auto kind =
                    static_cast<TraceKind>(i % kTraceKindCount);
                const uint64_t id = sink.emit(
                    kind, static_cast<uint8_t>(i % 3),
                    i == 0 ? ~uint64_t{0} : i, i * 3, i * 7);
                if (i % 5 == 0)
                    sink.pushParent(id);
                if (i % 11 == 0)
                    sink.popParent(id);
            }
        }
    }
    return tracer;
}

TEST(TraceExport, TenThousandEventDocumentRoundTripsBitExactly)
{
    const std::unique_ptr<Tracer> tracer = bigTracer();
    const std::vector<TraceEvent> original = tracer->collect();
    ASSERT_GT(original.size(), 10000u);

    const std::string text = chromeTraceText(*tracer);

    // The document is valid trace-event JSON end to end.
    const JsonParseResult parsed = parseJson(text);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const JsonValue *trace_events = parsed.value.find("traceEvents");
    ASSERT_NE(trace_events, nullptr);
    ASSERT_TRUE(trace_events->isArray());
    EXPECT_GT(trace_events->array().size(), original.size());

    LoadedTrace loaded;
    std::string error;
    ASSERT_TRUE(loadChromeTrace(text, loaded, &error)) << error;
    EXPECT_EQ(loaded.units,
              (std::vector<std::string>{"alpha", "beta/4way", "gamma x"}));
    EXPECT_EQ(loaded.droppedEvents, 0u);
    ASSERT_EQ(loaded.events.size(), original.size());
    for (size_t i = 0; i < original.size(); ++i)
        ASSERT_EQ(eventTuple(loaded.events[i]), eventTuple(original[i]))
            << "event " << i;
}

TEST(TraceExport, TornTailsAndWrongSchemasAreRejected)
{
    const std::unique_ptr<Tracer> tracer = bigTracer(100);
    const std::string text = chromeTraceText(*tracer);

    // Truncate relative to the last non-whitespace byte: the document
    // may end in a newline, and chopping only that is not a tear.
    const size_t body = text.find_last_not_of(" \t\r\n") + 1;
    LoadedTrace loaded;
    for (const size_t keep :
         {size_t{0}, body / 4, body / 2, body * 9 / 10, body - 1}) {
        std::string error;
        EXPECT_FALSE(
            loadChromeTrace(text.substr(0, keep), loaded, &error))
            << "accepted a " << keep << "-byte torn prefix";
        EXPECT_FALSE(error.empty());
    }

    std::string wrong_schema = text;
    const size_t at = wrong_schema.find(kTraceSchema);
    ASSERT_NE(at, std::string::npos);
    wrong_schema[at + 1] = 'x';
    std::string error;
    EXPECT_FALSE(loadChromeTrace(wrong_schema, loaded, &error));
    EXPECT_NE(error.find("schema"), std::string::npos);
}

TEST(TraceExport, RingOverwriteDropsAreCountedAndExported)
{
    TracerConfig config;
    config.shardCapacity = 16;
    Tracer tracer(config);
    const uint16_t unit = tracer.registerUnit("ring");
    {
        const TraceShardLease lease(&tracer);
        TraceSink sink(&tracer, lease.shard(), unit);
        sink.beginTrial(0);
        for (unsigned i = 0; i < 100; ++i)
            sink.emit(TraceKind::FaultArrival, kFaultSampled, i);
    }
    EXPECT_EQ(tracer.recorded(), 100u);
    EXPECT_EQ(tracer.dropped(), 84u);
    const std::vector<TraceEvent> kept = tracer.collect();
    ASSERT_EQ(kept.size(), 16u);
    // Oldest-first overwrite: the survivors are the newest 16.
    EXPECT_EQ(kept.front().a, 84u);
    EXPECT_EQ(kept.back().a, 99u);

    LoadedTrace loaded;
    ASSERT_TRUE(loadChromeTrace(chromeTraceText(tracer), loaded));
    EXPECT_EQ(loaded.droppedEvents, 84u);
    EXPECT_EQ(loaded.events.size(), 16u);
}

TEST(TraceExport, AbsorbRemapsUnitsByLabel)
{
    Tracer aggregate;
    const uint16_t a_x = aggregate.registerUnit("x");
    const uint16_t a_y = aggregate.registerUnit("y");
    (void)a_x;

    Tracer shard;
    const uint16_t s_y = shard.registerUnit("y");  // id 0 here, 1 there.
    EXPECT_EQ(s_y, 0u);
    {
        const TraceShardLease lease(&shard);
        TraceSink sink(&shard, lease.shard(), s_y);
        sink.beginTrial(3);
        sink.emit(TraceKind::Verdict, kVerdictDue, 0, 2);
    }
    aggregate.absorb(shard);
    const std::vector<TraceEvent> events = aggregate.collect();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].unit, a_y);
    EXPECT_EQ(aggregate.unitLabels(),
              (std::vector<std::string>{"x", "y"}));
}

// ---------------------------------------------------------------------
// JSON layer (satellite): deep nesting and huge arrays-of-objects.

TEST(JsonRoundTrip, DeeplyNestedArraysOfObjects)
{
    // The trace-event shape taken to depth 12:
    // {"v":k,"child":[{...}]} all the way down.
    constexpr int kDepth = 12;
    std::ostringstream out;
    JsonWriter writer(out);
    for (int level = 0; level < kDepth; ++level) {
        writer.beginObject().key("v").value(int64_t{level});
        writer.key("child").beginArray();
    }
    writer.beginObject().key("leaf").value(true).endObject();
    for (int level = 0; level < kDepth; ++level)
        writer.endArray().endObject();
    writer.finish();

    const JsonParseResult parsed = parseJson(out.str());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const JsonValue *cursor = &parsed.value;
    for (int level = 0; level < kDepth; ++level) {
        const JsonValue *v = cursor->find("v");
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(v->asInt(), level);
        const JsonValue *child = cursor->find("child");
        ASSERT_NE(child, nullptr);
        ASSERT_TRUE(child->isArray());
        ASSERT_EQ(child->array().size(), 1u);
        cursor = &child->array()[0];
    }
    const JsonValue *leaf = cursor->find("leaf");
    ASSERT_NE(leaf, nullptr);
    EXPECT_TRUE(leaf->boolean());
}

TEST(JsonRoundTrip, TenThousandObjectArrayAndTornTail)
{
    std::ostringstream out;
    JsonWriter writer(out);
    writer.beginObject().key("rows").beginArray();
    for (uint64_t i = 0; i < 10000; ++i) {
        writer.beginObject()
            .key("i").value(i)
            .key("s").value("row-" + std::to_string(i))
            .endObject();
    }
    writer.endArray().endObject();
    writer.finish();
    const std::string text = out.str();

    const JsonParseResult parsed = parseJson(text);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const JsonValue *rows = parsed.value.find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_EQ(rows->array().size(), 10000u);
    EXPECT_EQ(rows->array()[9999].find("i")->asUint(), 9999u);
    EXPECT_EQ(rows->array()[1234].find("s")->string(), "row-1234");

    EXPECT_FALSE(parseJson(text.substr(0, text.size() / 2)).ok);
    EXPECT_FALSE(parseJson(text.substr(0, text.size() - 2)).ok);
}

// ---------------------------------------------------------------------
// Campaign integration: shard flushes, aggregate, resume.

TEST(CampaignTracing, ShardFlushesMatchAbsorbedAggregateAcrossResume)
{
    const LifetimeSimulator simulator(smallConfig());
    const auto factory = tightBudgetFactory();
    constexpr unsigned kTrials = 6;
    constexpr uint64_t kSeed = 99;
    const std::string checkpoint = tempPath("ckpt") + ".json";
    const std::string trace_base = tempPath("trace") + ".json";
    // Span wall-clock payloads differ run to run; keep them out so the
    // campaign stream can be compared against a straight run exactly.
    TracerConfig config;
    config.filter = kTraceAllKinds & ~traceKindBit(TraceKind::Span);

    // Reference: an uncampaigned traced run of the same trials.
    Tracer straight(config);
    {
        TrialRunOptions run;
        run.parallel.threads = 2;
        run.tracer = &straight;
        run.traceUnit = straight.registerUnit("unit-A");
        simulator.runTrials(kTrials, factory, kSeed, run);
    }
    const std::vector<TraceEvent> expected =
        withoutKind(straight.collect(), TraceKind::Heartbeat);

    CampaignFingerprint fingerprint;
    fingerprint.campaign = "test_tracing";
    fingerprint.seed = kSeed;
    fingerprint.trials = kTrials;
    fingerprint.shards = 2;

    Tracer aggregate(config);
    TrialRunOptions run;
    run.parallel.threads = 2;
    run.tracer = &aggregate;
    run.traceUnit = aggregate.registerUnit("unit-A");
    CampaignOptions options;
    options.checkpointPath = checkpoint;
    options.shards = 2;
    options.tracePath = trace_base;
    {
        CampaignRunner runner(fingerprint, options);
        const CampaignResult result = runner.runUnit(
            "unit-A", simulator, factory, kTrials, kSeed, run);
        EXPECT_EQ(result.shardsRun, 2u);
    }

    // The absorbed aggregate is the straight run plus heartbeats.
    const std::vector<TraceEvent> campaign_events = aggregate.collect();
    const std::vector<TraceEvent> trial_events =
        withoutKind(campaign_events, TraceKind::Heartbeat);
    ASSERT_EQ(trial_events.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i)
        ASSERT_EQ(eventTuple(trial_events[i]), eventTuple(expected[i]))
            << "event " << i;
    unsigned starts = 0, commits = 0;
    for (const TraceEvent &e : campaign_events) {
        if (e.kind != TraceKind::Heartbeat)
            continue;
        starts += e.sub == kHeartbeatStart;
        commits += e.sub == kHeartbeatCommit;
    }
    EXPECT_EQ(starts, 2u);
    EXPECT_EQ(commits, 2u);

    // Each committed shard flushed a loadable trace file whose events
    // union to the aggregate.
    std::vector<TraceEvent> flushed;
    for (const unsigned shard : {0u, 1u}) {
        LoadedTrace loaded;
        std::string error;
        const std::string path = trace_base + ".unit-A.shard" +
                                 std::to_string(shard) + ".json";
        ASSERT_TRUE(loadChromeTraceFile(path, loaded, &error))
            << path << ": " << error;
        EXPECT_EQ(loaded.units, (std::vector<std::string>{"unit-A"}));
        for (const TraceEvent &e :
             withoutKind(loaded.events, TraceKind::Heartbeat))
            flushed.push_back(e);
    }
    std::sort(flushed.begin(), flushed.end(),
              [](const TraceEvent &lhs, const TraceEvent &rhs) {
                  return eventTuple(lhs) < eventTuple(rhs);
              });
    ASSERT_EQ(flushed.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i)
        ASSERT_EQ(eventTuple(flushed[i]), eventTuple(expected[i]))
            << "flushed event " << i;

    // Resume: committed shards are not re-traced; the gap's provenance
    // is recorded as shard_resumed heartbeats instead.
    Tracer resumed(config);
    run.tracer = &resumed;
    run.traceUnit = resumed.registerUnit("unit-A");
    options.resume = true;
    CampaignRunner resumer(fingerprint, options);
    const CampaignResult result = resumer.runUnit(
        "unit-A", simulator, factory, kTrials, kSeed, run);
    EXPECT_EQ(result.shardsResumed, 2u);
    const std::vector<TraceEvent> resume_events = resumed.collect();
    ASSERT_EQ(resume_events.size(), 2u);
    for (const TraceEvent &e : resume_events) {
        EXPECT_EQ(e.kind, TraceKind::Heartbeat);
        EXPECT_EQ(e.sub, kHeartbeatResumed);
    }

    std::remove(checkpoint.c_str());
    for (const unsigned shard : {0u, 1u})
        std::remove((trace_base + ".unit-A.shard" +
                     std::to_string(shard) + ".json")
                        .c_str());
}

// ---------------------------------------------------------------------
// Flag parsing: the --trace/--trace-filter helper and filter specs.

TEST(TraceFlags, FilterSpecsParse)
{
    EXPECT_EQ(parseTraceFilter("all"), kTraceAllKinds);
    EXPECT_EQ(parseTraceFilter(""), kTraceAllKinds);
    EXPECT_EQ(parseTraceFilter("fault,repair"),
              traceKindBit(TraceKind::FaultArrival) |
                  traceKindBit(TraceKind::RepairDecision));
    EXPECT_EQ(parseTraceFilter("bogus"), std::nullopt);
    EXPECT_EQ(parseTraceFilter("fault,bogus"), std::nullopt);
    EXPECT_EQ(parseTraceFilter(","), std::nullopt);
    EXPECT_EQ(traceFilterSpec(kTraceAllKinds), "all");
    EXPECT_EQ(traceFilterSpec(traceKindBit(TraceKind::Verdict) |
                              traceKindBit(TraceKind::FaultArrival)),
              "fault,verdict");
}

TEST(TraceFlags, TraceFlagBuildsTracerWithDefaults)
{
    {
        const char *argv[] = {"prog", "--trace"};
        const CliOptions options(2, const_cast<char **>(argv),
                                 {"trace", "trace-filter"});
        const bench::BenchTrace trace =
            bench::traceFlag(options, "fig12_due_rates");
        ASSERT_NE(trace.get(), nullptr);
        EXPECT_EQ(trace.path, "TRACE_fig12_due_rates.json");
        EXPECT_TRUE(trace.get()->accepts(TraceKind::Span));
    }
    {
        const char *argv[] = {"prog", "--trace=custom.json",
                              "--trace-filter=fault,verdict"};
        const CliOptions options(3, const_cast<char **>(argv),
                                 {"trace", "trace-filter"});
        const bench::BenchTrace trace =
            bench::traceFlag(options, "fig12_due_rates");
        ASSERT_NE(trace.get(), nullptr);
        EXPECT_EQ(trace.path, "custom.json");
        EXPECT_TRUE(trace.get()->accepts(TraceKind::FaultArrival));
        EXPECT_FALSE(trace.get()->accepts(TraceKind::RepairDecision));
    }
    {
        const char *argv[] = {"prog"};
        const CliOptions options(1, const_cast<char **>(argv),
                                 {"trace", "trace-filter"});
        EXPECT_EQ(bench::traceFlag(options, "x").get(), nullptr);
    }
}

TEST(TraceFlagDeathTest, FilterWithoutTraceIsFatal)
{
    const char *argv[] = {"prog", "--trace-filter=fault"};
    const CliOptions options(2, const_cast<char **>(argv),
                             {"trace", "trace-filter"});
    EXPECT_EXIT(bench::traceFlag(options, "fig12_due_rates"),
                ::testing::ExitedWithCode(1),
                "--trace-filter requires --trace");
}

TEST(TraceFlagDeathTest, UnknownFilterKindIsFatal)
{
    const char *argv[] = {"prog", "--trace", "--trace-filter=bogus"};
    const CliOptions options(3, const_cast<char **>(argv),
                             {"trace", "trace-filter"});
    EXPECT_EXIT(bench::traceFlag(options, "fig12_due_rates"),
                ::testing::ExitedWithCode(1), "unknown event kind");
}

// ---------------------------------------------------------------------
// Overhead contract: the disabled path is under a nanosecond.

TEST(TracingOverhead, DisabledEmitIsUnderOneNanosecond)
{
#if !defined(__OPTIMIZE__)
    GTEST_SKIP() << "timing assertion needs an optimized build";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "timing assertion is meaningless under sanitizers";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) \
    || __has_feature(memory_sanitizer)
    GTEST_SKIP() << "timing assertion is meaningless under sanitizers";
#endif
#endif
    // The exact pattern every instrumented engine uses: a nullable sink
    // tested per would-be event. volatile keeps the load + branch in
    // the loop, as in the real code where the pointer is runtime state.
    TraceSink *volatile sink_slot = nullptr;
    constexpr uint64_t kEvents = 1u << 27;
    uint64_t armed = 0;
    const auto start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < kEvents; ++i) {
        TraceSink *const sink = sink_slot;
        if (sink != nullptr) {
            sink->emit(TraceKind::FaultArrival, kFaultSampled, i);
            ++armed;
        }
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    const double ns_per_event =
        std::chrono::duration<double, std::nano>(elapsed).count() /
        static_cast<double>(kEvents);
    EXPECT_EQ(armed, 0u);
    EXPECT_LT(ns_per_event, 1.0)
        << "disabled tracing must cost < 1 ns/event";
}

TEST(TracingOverhead, SpanReadsNoClockWhenDisabled)
{
    // A PhaseScope over a null sink must not emit anywhere. Over a sink
    // whose filter drops Span events it arms no span (and reads no
    // clock), while other kinds emitted inside it still record.
    { const PhaseScope scope(Phase::Trial, nullptr); }

    TracerConfig config;
    config.filter = traceKindBit(TraceKind::Verdict);  // Spans filtered.
    Tracer tracer(config);
    const uint16_t unit = tracer.registerUnit("span");
    {
        const TraceShardLease lease(&tracer);
        TraceSink sink(&tracer, lease.shard(), unit);
        sink.beginTrial(0);
        EXPECT_FALSE(sink.accepts(TraceKind::Span));
        const PhaseScope scope(Phase::Trial, &sink);
        EXPECT_EQ(sink.emit(TraceKind::Span, 0), 0u);
        EXPECT_NE(sink.emit(TraceKind::Verdict, kVerdictDue, 0, 1), 0u);
    }
    const std::vector<TraceEvent> events = tracer.collect();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, TraceKind::Verdict);
    EXPECT_EQ(events[0].b, 1u);
}

// ---------------------------------------------------------------------
// The one phase table and the one phase instrument.

TEST(PhaseTable, SpanPhasesKeepSubkindsAndNames)
{
    // Exported traces store these subkinds and names: they never move.
    const std::pair<Phase, const char *> spans[] = {
        {Phase::Trial, "trial"},
        {Phase::ScrubPass, "scrub_pass"},
        {Phase::InferPass, "infer_pass"},
        {Phase::RepairAttempt, "repair_attempt"},
    };
    for (uint8_t sub = 0; sub < 4; ++sub) {
        const auto &[phase, name] = spans[sub];
        EXPECT_EQ(static_cast<uint8_t>(phase), sub);
        EXPECT_STREQ(phaseName(phase), name);
        EXPECT_EQ(traceEventName(TraceKind::Span, sub), name);
    }
}

TEST(PhaseTable, EveryPhaseHasAUniqueSnakeCaseName)
{
    // snake_case: [a-z]+(_[a-z]+)*
    const auto snake = [](const std::string &name) {
        return !name.empty() && name.front() != '_' &&
               name.back() != '_' && name.find("__") == std::string::npos &&
               name.find_first_not_of("abcdefghijklmnopqrstuvwxyz_") ==
                   std::string::npos;
    };
    std::set<std::string> names;
    for (unsigned p = 0; p < kPhaseCount; ++p) {
        const std::string name = phaseName(static_cast<Phase>(p));
        EXPECT_TRUE(snake(name)) << name;
        EXPECT_TRUE(names.insert(name).second) << "duplicate " << name;
    }
}

TEST(PhaseTable, OutOfRangeSubkindPrintsQuestionMark)
{
    EXPECT_STREQ(phaseName(static_cast<Phase>(kPhaseCount)), "?");
    EXPECT_STREQ(phaseName(static_cast<Phase>(255)), "?");
}

TEST(PhaseScope, OneScopeFeedsProfilerSpanAndHistogram)
{
    MetricRegistry registry;
    Log2Histogram &hist = registry.histogram("test.phase_us");
    Tracer tracer;
    const uint16_t unit = tracer.registerUnit("phase");
    profiler::reset();
    profiler::start(/*hz=*/997);
    volatile uint64_t burn = 0;
    {
        const TraceShardLease lease(&tracer);
        TraceSink sink(&tracer, lease.shard(), unit);
        sink.beginTrial(0);
        HistogramBatch batch(&hist);
        const PhaseScope trial(Phase::Trial, &sink, &batch);
        // Profiler-only child: burn CPU until SIGPROF samples land.
        const PhaseScope repair(Phase::RepairAttempt);
        for (int spin = 0;
             spin < 2000 && profiler::totalSamples() < 5; ++spin) {
            for (uint64_t i = 0; i < 200000; ++i)
                burn = burn + i * i;
        }
    }
    profiler::stop();

    const std::vector<TraceEvent> events = tracer.collect();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, TraceKind::Span);
    EXPECT_EQ(events[0].sub, static_cast<uint8_t>(Phase::Trial));
    const Log2HistogramSnapshot snapshot = hist.snapshot();
    EXPECT_EQ(snapshot.count, 1u);
    // Both sinks got the one clock reading.
    EXPECT_EQ(snapshot.sum, events[0].a);

    ASSERT_GT(profiler::totalSamples(), 0u)
        << "no SIGPROF delivered while burning CPU";
    const std::string folded = profiler::folded();
    EXPECT_NE(folded.find("relaxfault;trial;repair_attempt "),
              std::string::npos)
        << folded;
    profiler::reset();
}

TEST(TracingOverhead, SafeFileTokenSanitizes)
{
    EXPECT_EQ(traceSafeFileToken("1x-fit/RelaxFault-4way"),
              "1x-fit-RelaxFault-4way");
    EXPECT_EQ(traceSafeFileToken("a b\tc"), "a-b-c");
    EXPECT_EQ(traceSafeFileToken("plain_0.9"), "plain_0.9");
}

} // namespace
} // namespace relaxfault
