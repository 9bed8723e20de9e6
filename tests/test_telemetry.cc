/**
 * @file
 * Unit and regression tests for the telemetry subsystem: sharded
 * counters and histograms, the JSON writer, run records, the component
 * publishers, and the thread-count-invariance contract of instrumented
 * simulation runs.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <vector>

#include "cache/cache_geometry.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/relaxfault_controller.h"
#include "repair/relaxfault_repair.h"
#include "sim/lifetime.h"
#include "telemetry/json_reader.h"
#include "telemetry/json_writer.h"
#include "telemetry/metrics.h"
#include "telemetry/run_record.h"
#include "tracing/tracer.h"

#include "lifetime_expect.h"

namespace relaxfault {
namespace {

TEST(Counter, CountsExactlyUnderParallelFor)
{
    MetricRegistry registry;
    Counter &counter = registry.counter("test.adds");
    for (const unsigned threads : {1u, 2u, 8u}) {
        counter.reset();
        ParallelConfig config;
        config.threads = threads;
        config.chunk = 7;
        parallelFor(
            10000,
            [&](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i)
                    counter.add(i % 3);
            },
            config);
        uint64_t expected = 0;
        for (size_t i = 0; i < 10000; ++i)
            expected += i % 3;
        EXPECT_EQ(counter.value(), expected) << threads;
    }
}

TEST(Gauge, SetAddAndReset)
{
    MetricRegistry registry;
    Gauge &gauge = registry.gauge("test.level");
    gauge.set(42);
    EXPECT_EQ(gauge.value(), 42);
    gauge.add(-50);
    EXPECT_EQ(gauge.value(), -8);
    gauge.reset();
    EXPECT_EQ(gauge.value(), 0);
}

TEST(Log2Histogram, BucketBoundaries)
{
    EXPECT_EQ(Log2Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Log2Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Log2Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Log2Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Log2Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Log2Histogram::bucketOf(~uint64_t{0}), 64u);
    // Every bucket covers [lowerBound, upperBound] inclusive.
    for (unsigned b = 1; b < Log2Histogram::kBuckets - 1; ++b) {
        EXPECT_EQ(Log2Histogram::bucketOf(Log2Histogram::bucketLowerBound(b)),
                  b);
        EXPECT_EQ(Log2Histogram::bucketOf(Log2Histogram::bucketUpperBound(b)),
                  b);
    }
}

TEST(Log2Histogram, RecordsAndSnapshots)
{
    MetricRegistry registry;
    Log2Histogram &hist = registry.histogram("test.latency");
    for (uint64_t v : {0ull, 1ull, 5ull, 5ull, 100ull})
        hist.record(v);
    const Log2HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.count, 5u);
    EXPECT_EQ(snap.sum, 111u);
    EXPECT_DOUBLE_EQ(snap.mean(), 111.0 / 5.0);
    EXPECT_EQ(snap.buckets[0], 1u);                        // value 0
    EXPECT_EQ(snap.buckets[Log2Histogram::bucketOf(5)], 2u);
    // Median falls in the [4, 7] bucket => inclusive upper bound 7.
    EXPECT_EQ(snap.quantileUpperBound(0.5), 7u);
    EXPECT_EQ(snap.quantileUpperBound(1.0),
              Log2Histogram::bucketUpperBound(Log2Histogram::bucketOf(100)));
}

TEST(Log2Histogram, ShardedRecordsMergeExactly)
{
    MetricRegistry registry;
    Log2Histogram &hist = registry.histogram("test.sharded");
    Log2HistogramSnapshot serial{};
    for (const unsigned threads : {1u, 4u}) {
        hist.reset();
        ParallelConfig config;
        config.threads = threads;
        config.chunk = 13;
        parallelFor(
            5000,
            [&](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i)
                    hist.record(i * i % 1021);
            },
            config);
        if (threads == 1)
            serial = hist.snapshot();
        else
            EXPECT_TRUE(hist.snapshot() == serial);
    }
}

// ---------------------------------------------------------------------
// recordBatch is the SIMD-era bulk fill path; its contract is that the
// merged snapshot is bit-identical to per-sample record() for ANY input
// distribution at EVERY dispatch level. The adversarial distributions
// below aim at the bucket classifier's edges (0, max, powers of two)
// and at the sparse-vs-dense publish strategy (all-same vs all-spread).

/** Snapshot produced by the naive per-sample reference loop. */
Log2HistogramSnapshot
referenceFill(const std::vector<uint64_t> &values)
{
    Log2Histogram hist;
    for (const uint64_t value : values)
        hist.record(value);
    return hist.snapshot();
}

void
expectBatchMatchesReference(const std::vector<uint64_t> &values,
                            const char *label)
{
    const Log2HistogramSnapshot expected = referenceFill(values);
    for (const SimdLevel level : supportedSimdLevels()) {
        ScopedSimdLevel scoped(level);
        Log2Histogram hist;
        hist.recordBatch(values.data(), values.size());
        EXPECT_TRUE(hist.snapshot() == expected)
            << label << " at level " << simdLevelName(level);
    }
}

TEST(Log2HistogramBatch, AdversarialDistributionsMatchNaiveLoop)
{
    expectBatchMatchesReference({}, "empty");
    expectBatchMatchesReference(std::vector<uint64_t>(1000, 0), "all-zero");
    expectBatchMatchesReference(
        std::vector<uint64_t>(1000, ~uint64_t{0}), "all-max");

    // Every power-of-two edge: 2^k - 1, 2^k, 2^k + 1 for k = 0..63.
    // These straddle bucket boundaries, where a vectorized classifier
    // would be most likely to be off by one.
    std::vector<uint64_t> edges;
    for (unsigned k = 0; k < 64; ++k) {
        const uint64_t pow2 = uint64_t{1} << k;
        edges.push_back(pow2 - 1);
        edges.push_back(pow2);
        edges.push_back(pow2 + 1);
    }
    expectBatchMatchesReference(edges, "power-of-two-edges");

    // Single-bucket spike (sparse publish: one occupied bucket) and a
    // full 64-bit spread (dense publish: most buckets occupied).
    expectBatchMatchesReference(std::vector<uint64_t>(777, 42), "spike");
    Rng rng(51);
    std::vector<uint64_t> spread;
    for (int i = 0; i < 4096; ++i)
        spread.push_back(rng.next() >> rng.uniformInt(64));
    expectBatchMatchesReference(spread, "random-spread");
}

TEST(Log2HistogramBatch, SumOverflowWrapsIdentically)
{
    // Two max values overflow the uint64 sum; the wrapped result must
    // be the same wrapped result the per-sample loop produces.
    expectBatchMatchesReference(
        {~uint64_t{0}, ~uint64_t{0}, 5}, "sum-overflow");
}

TEST(HistogramBatch, StagesAndFlushesThroughRecordBatch)
{
    MetricRegistry registry;
    Log2Histogram &hist = registry.histogram("test.batched");
    const size_t total = HistogramBatch::kCapacity * 2 + 17;
    Log2Histogram reference;
    {
        HistogramBatch batch(&hist);
        EXPECT_TRUE(batch.enabled());
        for (size_t i = 0; i < total; ++i) {
            batch.record(i * 37);
            reference.record(i * 37);
        }
        // Everything before the last partial buffer is already visible.
        EXPECT_GE(hist.snapshot().count, HistogramBatch::kCapacity * 2);
    }  // Destructor flushes the tail.
    EXPECT_TRUE(hist.snapshot() == reference.snapshot());
}

TEST(HistogramBatch, NullSinkIsDisabledAndFree)
{
    HistogramBatch batch(nullptr);
    EXPECT_FALSE(batch.enabled());
    for (int i = 0; i < 10000; ++i)
        batch.record(i);  // Must not touch the (absent) staging buffer.
    // A disabled batch disables the scope's clock.
    { const PhaseScope scope(Phase::Trial, nullptr, &batch); }
}

TEST(PhaseScope, RecordsThroughHistogramBatch)
{
    MetricRegistry registry;
    Log2Histogram &hist = registry.histogram("test.timer_batch");
    {
        HistogramBatch batch(&hist);
        { const PhaseScope scope(Phase::Trial, nullptr, &batch); }
        { const PhaseScope scope(Phase::PerfRun, nullptr, &batch); }
    }
    EXPECT_EQ(hist.snapshot().count, 2u);
}

TEST(MetricRegistry, LookupIsStableAndIdempotent)
{
    MetricRegistry registry;
    Counter &a = registry.counter("same.name");
    Counter &b = registry.counter("same.name");
    EXPECT_EQ(&a, &b);
    a.add(3);
    EXPECT_EQ(b.value(), 3u);
    // Counters, gauges, and histograms live in separate namespaces.
    registry.gauge("same.name").set(7);
    EXPECT_EQ(registry.counter("same.name").value(), 3u);
}

TEST(MetricRegistry, SnapshotIsSortedAndComparable)
{
    MetricRegistry registry;
    registry.counter("b.second").add(2);
    registry.counter("a.first").add(1);
    registry.gauge("z.gauge").set(-5);
    const MetricsSnapshot snap = registry.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].first, "a.first");
    EXPECT_EQ(snap.counters[1].first, "b.second");
    EXPECT_TRUE(snap == registry.snapshot());
    registry.counter("a.first").add(1);
    EXPECT_FALSE(snap == registry.snapshot());
}

TEST(PhaseScope, NullSinkRecordsNothing)
{
    MetricRegistry registry;
    Log2Histogram &hist = registry.histogram("test.timer");
    {
        HistogramBatch batch(&hist);
        // Null sink and null batch: must not crash or record.
        { const PhaseScope scope(Phase::Trial, nullptr, nullptr); }
        { const PhaseScope scope(Phase::Trial, nullptr, &batch); }
    }
    EXPECT_EQ(hist.snapshot().count, 1u);
}

TEST(JsonWriter, EscapesAndNests)
{
    std::ostringstream os;
    JsonWriter writer(os);
    writer.beginObject()
        .key("text").value("a\"b\\c\n\tx")
        .key("nested").beginObject()
            .key("n").value(int64_t{-3})
            .key("u").value(uint64_t{18446744073709551615ull})
        .endObject()
        .key("list").beginArray()
            .value(1.5).value(true).nullValue()
        .endArray()
        .endObject();
    writer.finish();
    EXPECT_EQ(os.str(),
              "{\"text\":\"a\\\"b\\\\c\\n\\tx\","
              "\"nested\":{\"n\":-3,\"u\":18446744073709551615},"
              "\"list\":[1.5,true,null]}");
}

TEST(JsonWriter, ControlCharactersAndNonFinite)
{
    std::ostringstream os;
    JsonWriter writer(os);
    writer.beginObject()
        .key("ctl").value(std::string("\x01\x1f"))
        .key("inf").value(1.0 / 0.0)
        .endObject();
    writer.finish();
    EXPECT_EQ(os.str(), "{\"ctl\":\"\\u0001\\u001f\",\"inf\":null}");
}

// ---------------------------------------------------------------------
// Writer -> parser round trips. The campaign checkpoint depends on two
// exactness guarantees: %.17g doubles reparse bit-identically, and
// integers beyond 2^53 keep their exact value (never pass through a
// double). Control characters below 0x20 must round-trip through the
// \uXXXX escapes the writer emits.

std::string
writeOneString(const std::string &text)
{
    std::ostringstream os;
    JsonWriter writer(os);
    writer.beginObject().key("s").value(text).endObject();
    writer.finish();
    return os.str();
}

TEST(JsonRoundTrip, AllControlCharactersSurvive)
{
    // Every byte below 0x20, plus the two specially-escaped ones.
    std::string text;
    for (char c = 1; c < 0x20; ++c)
        text.push_back(c);
    text += "\"\\ plain";
    const std::string doc = writeOneString(text);
    // The wire form must not contain any raw control byte.
    for (const char c : doc)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
    const JsonParseResult parsed = parseJson(doc);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const JsonValue *value = parsed.value.find("s");
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(value->string(), text);
}

TEST(JsonRoundTrip, DoublesAreBitExact)
{
    const double cases[] = {0.0,
                            1.5,
                            -1.0 / 3.0,
                            1e-308,          // Near-subnormal.
                            1.7976931348623157e308,
                            0.1,             // Not exact in binary.
                            3.141592653589793,
                            5e-324};         // Smallest subnormal.
    for (const double expected : cases) {
        std::ostringstream os;
        JsonWriter writer(os);
        writer.beginObject().key("d").value(expected).endObject();
        writer.finish();
        const JsonParseResult parsed = parseJson(os.str());
        ASSERT_TRUE(parsed.ok) << parsed.error;
        const double actual = parsed.value.find("d")->number();
        uint64_t expected_bits = 0;
        uint64_t actual_bits = 0;
        std::memcpy(&expected_bits, &expected, sizeof expected);
        std::memcpy(&actual_bits, &actual, sizeof actual);
        EXPECT_EQ(actual_bits, expected_bits) << expected;
    }
}

TEST(JsonRoundTrip, IntegersBeyondDoublePrecisionExact)
{
    const uint64_t big = (uint64_t{1} << 60) + 1;  // Rounds as double.
    std::ostringstream os;
    JsonWriter writer(os);
    writer.beginObject()
        .key("u").value(big)
        .key("n").value(int64_t{-9007199254740993ll})
        .endObject();
    writer.finish();
    const JsonParseResult parsed = parseJson(os.str());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.value.find("u")->asUint(), big);
    EXPECT_EQ(parsed.value.find("n")->asInt(), -9007199254740993ll);
}

TEST(JsonParser, RejectsTornDocuments)
{
    // A torn checkpoint line is a prefix of a valid document, or two
    // lines glued together; neither may parse.
    const std::string doc =
        R"({"schema":"relaxfault.ckpt.v2","trials":[1.5,2.5],"n":3})";
    ASSERT_TRUE(parseJson(doc).ok);
    for (size_t len = 0; len < doc.size(); ++len)
        EXPECT_FALSE(parseJson(doc.substr(0, len)).ok)
            << "prefix length " << len;
    EXPECT_FALSE(parseJson(doc + "{\"next\":").ok);
    EXPECT_FALSE(parseJson(doc + doc).ok);
    EXPECT_FALSE(parseJson("{\"a\":01}").ok);     // Leading zero.
    EXPECT_FALSE(parseJson("{\"a\":+1}").ok);     // Stray sign.
    EXPECT_FALSE(parseJson("{\"a\" 1}").ok);      // Missing colon.
    EXPECT_FALSE(parseJson("{\"a\":1,}").ok);     // Trailing comma.
}

TEST(JsonParser, ParsesEscapesAndStructure)
{
    const JsonParseResult parsed = parseJson(
        "  {\"t\":\"a\\u0041\\n\\\"\",\"arr\":[null,true,false,-2]} ");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.value.find("t")->string(), "aA\n\"");
    const auto &array = parsed.value.find("arr")->array();
    ASSERT_EQ(array.size(), 4u);
    EXPECT_TRUE(array[0].isNull());
    EXPECT_TRUE(array[1].boolean());
    EXPECT_FALSE(array[2].boolean());
    EXPECT_EQ(array[3].asInt(), -2);
}

TEST(RunRecord, EmitsSchemaCompleteLine)
{
    RunRecord record("unit_test_bench");
    record.setSeed(7).setTrials(3).setThreads(2);
    record.setConfig("nodes", int64_t{64});
    record.addRow().set("mechanism", "none").set("value", 1.5);
    MetricRegistry registry;
    registry.counter("sim.trials").add(3);
    registry.histogram("sim.trial_us").record(100);

    std::ostringstream os;
    record.writeJsonLine(os, &registry);
    const std::string line = os.str();
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.back(), '\n');
    for (const char *needle :
         {"\"schema\":\"relaxfault.bench.v1\"",
          "\"bench\":\"unit_test_bench\"", "\"git_rev\":",
          "\"timestamp_ms\":", "\"seed\":7", "\"trials\":3",
          "\"threads\":2", "\"nodes\":64", "\"mechanism\":\"none\"",
          "\"sim.trials\":3", "\"sim.trial_us\""}) {
        EXPECT_NE(line.find(needle), std::string::npos) << needle;
    }
}

TEST(RunRecord, GitRevEnvOverride)
{
    setenv("RELAXFAULT_GIT_REV", "cafef00d", 1);
    EXPECT_EQ(runGitRev(), "cafef00d");
    unsetenv("RELAXFAULT_GIT_REV");
    EXPECT_FALSE(runGitRev().empty());
}

TEST(Publish, RepairMechanismOccupancy)
{
    const DramGeometry geometry;
    const CacheGeometry llc{8 * 1024 * 1024, 16, 64};
    RelaxFaultRepair repair(geometry, llc, RepairBudget{4, 32768}, true);
    FaultRecord fault;
    fault.persistence = Persistence::Permanent;
    RegionCluster cluster;
    cluster.bankMask = 1;
    cluster.rows = RowSet::of({100});
    cluster.cols = ColSet::allCols();
    fault.parts.push_back({0, 3, FaultRegion({cluster})});
    ASSERT_TRUE(repair.tryRepair(fault));

    MetricRegistry registry;
    repair.publishTelemetry(registry);
    const auto used =
        registry.histogram("repair.RelaxFault.used_lines").snapshot();
    EXPECT_EQ(used.count, 1u);
    EXPECT_EQ(used.sum, repair.usedLines());
    EXPECT_GE(registry.histogram("repair.RelaxFault.locked_ways_per_set")
                  .snapshot()
                  .count,
              1u);
    EXPECT_EQ(registry.histogram("repair.RelaxFault.flagged_banks")
                  .snapshot()
                  .sum,
              1u);
}

TEST(Publish, ControllerGauges)
{
    ControllerConfig config;
    RelaxFaultController controller(config);
    uint8_t data[64] = {1};
    const uint64_t pa = 0;
    controller.write(pa, data);
    uint8_t out[64];
    controller.read(pa, out);

    MetricRegistry registry;
    controller.publishTelemetry(registry);
    EXPECT_EQ(registry.gauge("controller.reads").value(), 1);
    EXPECT_EQ(registry.gauge("controller.writes").value(), 1);
    EXPECT_EQ(registry.gauge("controller.faults_reported").value(), 0);
}

TEST(Lifetime, CountersBitIdenticalAcrossThreadCounts)
{
    // The tentpole regression: an instrumented Monte Carlo run produces
    // bit-identical telemetry counters at any thread count, composing
    // with the deterministic parallel engine.
    LifetimeConfig config;
    config.nodesPerSystem = 96;
    const LifetimeSimulator simulator(config);
    const DramGeometry geometry = config.faultModel.geometry;
    const CacheGeometry llc{8 * 1024 * 1024, 16, 64};
    const LifetimeSimulator::MechanismFactory factory = [&] {
        return std::make_unique<RelaxFaultRepair>(
            geometry, llc, RepairBudget{1, 32768}, true);
    };

    MetricsSnapshot baseline;
    for (const unsigned threads : {1u, 2u, 8u}) {
        MetricRegistry registry;
        TrialRunOptions run;
        run.parallel.threads = threads;
        run.metrics = &registry;
        simulator.runTrials(4, factory, 1206, run);

        EXPECT_EQ(registry.counter("sim.trials").value(), 4u);
        MetricsSnapshot snap = registry.snapshot();
        // Wall-clock latencies are execution-dependent by design; the
        // contract covers the outcome metrics.
        std::erase_if(snap.histograms, [](const auto &entry) {
            return entry.first == "sim.trial_us";
        });
        if (threads == 1) {
            baseline = snap;
            EXPECT_GT(registry.counter("sim.faulty_nodes").value(), 0u);
        } else {
            EXPECT_TRUE(snap == baseline) << threads;
        }
    }
}

TEST(Lifetime, CountersEqualPerTrialSums)
{
    // Each kLifetimeFields counter is the sum over trials of
    // llround(metric * counterScale). A 2-line RelaxFault budget at 10x
    // FIT exhausts on most faults, so RetirePages and FailStop between
    // them drive every degradation counter above zero.
    const DramGeometry geometry;
    const CacheGeometry llc{8 * 1024 * 1024, 16, 64};
    const LifetimeSimulator::MechanismFactory starved = [&] {
        return std::make_unique<RelaxFaultRepair>(geometry, llc,
                                                  RepairBudget{1, 2}, true);
    };
    std::array<uint64_t, kLifetimeFieldCount> totals{};
    for (const DegradationPolicy policy :
         {DegradationPolicy::RetirePages, DegradationPolicy::FailStop}) {
        LifetimeConfig config;
        config.nodesPerSystem = 128;
        config.faultModel.fitScale = 10.0;
        config.degradation = policy;
        MetricRegistry registry;
        TrialRunOptions run;
        run.parallel.threads = 2;
        run.metrics = &registry;
        const std::vector<LifetimeMetrics> trials =
            LifetimeSimulator(config).runTrialRange(0, 6, starved, 31, run);
        EXPECT_EQ(registry.counter("sim.trials").value(), trials.size());
        for (size_t i = 0; i < kLifetimeFieldCount; ++i) {
            const LifetimeField &field = kLifetimeFields[i];
            uint64_t expected = 0;
            for (const LifetimeMetrics &m : trials)
                expected += static_cast<uint64_t>(
                    std::llround(m.*field.metric * field.counterScale));
            EXPECT_EQ(registry.counter(field.counter).value(), expected)
                << field.counter;
            totals[i] += expected;
        }
    }
    for (size_t i = 0; i < kLifetimeFieldCount; ++i)
        EXPECT_GT(totals[i], 0u) << kLifetimeFields[i].counter;
}

TEST(Lifetime, CounterNamesPinnedToMetrics)
{
    // The sums above read each name from the table, so they cannot see
    // two swapped names. Fold one trial whose metric in declaration
    // slot s holds s + 1, and pin the counter each value lands in.
    MetricRegistry registry;
    TrialTelemetry telemetry(&registry, false);
    LifetimeMetrics trial;
    for (const LifetimeField &field : kLifetimeFields)
        trial.*field.metric = metricSlot(field) + 1.0;
    telemetry.foldTrial(trial);
    std::string folded;
    for (const auto &[name, value] : registry.snapshot().counters)
        folded += name + "=" + std::to_string(value) + " ";
    EXPECT_EQ(folded,
              "repair.budget_exhausted=9 repair.degraded_dues=11 "
              "repair.degraded_to_retirement=10 repair.fail_stops=12 "
              "sim.dues=3 sim.faulty_nodes=1 sim.fully_repaired_nodes=8 "
              "sim.multi_device_fault_dimms=2 sim.permanent_faults=7 "
              "sim.repaired_faults=6 sim.replacements=5 "
              "sim.sdc_micros=4000000 sim.trials=1 ");
}

TEST(Lifetime, NullRegistryProducesSameSummary)
{
    // Telemetry is observational: enabling it must not change results.
    LifetimeConfig config;
    config.nodesPerSystem = 64;
    const LifetimeSimulator simulator(config);

    TrialRunOptions plain;
    const LifetimeSummary without =
        simulator.runTrials(3, {}, 99, plain);
    MetricRegistry registry;
    TrialRunOptions instrumented;
    instrumented.metrics = &registry;
    const LifetimeSummary with =
        simulator.runTrials(3, {}, 99, instrumented);
    EXPECT_EQ(without.dues.sum(), with.dues.sum());
    EXPECT_EQ(without.sdcs.sum(), with.sdcs.sum());
    EXPECT_EQ(without.faultyNodes.sum(), with.faultyNodes.sum());
}

} // namespace
} // namespace relaxfault
