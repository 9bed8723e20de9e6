/**
 * @file
 * google-benchmark microbenchmarks of the hardware-datapath hot paths:
 * the RelaxFault address map, the normal DRAM address map, the faulty-
 * bank-table + tag test (the per-miss filter), the chipkill codecs, and
 * the coalescer merge. These bound the logic the paper argues is cheap
 * enough to hide under a DRAM access.
 *
 * The chipkill/histogram benches run at the active SIMD dispatch level;
 * pin with `RELAXFAULT_SIMD=scalar|sse2|avx2` to A/B the kernels. The
 * `...Scalar` variants always run the reference path, so one run of one
 * binary shows before/after. Unlike the figure benches this main wraps
 * google-benchmark's, so only `--json[=PATH]` (schema
 * `relaxfault.bench.v1`, default BENCH_micro.json) is handled here and
 * everything else is google-benchmark's flag surface.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache_geometry.h"
#include "common/failpoint.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/relaxfault_controller.h"
#include "dram/address_map.h"
#include "ecc/chipkill.h"
#include "repair/freefault_repair.h"
#include "repair/line_tracker.h"
#include "repair/relaxfault_map.h"
#include "repair/relaxfault_repair.h"
#include "telemetry/metrics.h"
#include "telemetry/profiler.h"
#include "telemetry/run_record.h"
#include "telemetry/stats_plane.h"
#include "tracing/tracer.h"

namespace {

using namespace relaxfault;

const DramGeometry kGeometry;
const CacheGeometry kLlc{8 * 1024 * 1024, 16, 64};

void
BM_DramAddressMapDecode(benchmark::State &state)
{
    const DramAddressMap map = makeAddressMap("fig7a", kGeometry);
    Rng rng(1);
    uint64_t pa = rng.next() % kGeometry.nodeBytes();
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.decode(pa));
        pa = (pa + 4097 * 64) % kGeometry.nodeBytes();
    }
}
BENCHMARK(BM_DramAddressMapDecode);

void
BM_DramAddressMapEncode(benchmark::State &state)
{
    // FreeFault's direction: the column blocks of one row, in order.
    const DramAddressMap map = makeAddressMap("fig7a", kGeometry);
    LineCoord coord{1, 0, 3, 4242, 0};
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.encode(coord));
        coord.colBlock = (coord.colBlock + 1) % kGeometry.colBlocksPerRow;
    }
}
BENCHMARK(BM_DramAddressMapEncode);

void
BM_XorMappingDecode(benchmark::State &state)
{
    const DramAddressMap map = makeAddressMap("intel_ivy", kGeometry);
    Rng rng(1);
    uint64_t pa = rng.next() % kGeometry.nodeBytes();
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.decode(pa));
        pa = (pa + 4097 * 64) % kGeometry.nodeBytes();
    }
}
BENCHMARK(BM_XorMappingDecode);

void
BM_XorMappingEncode(benchmark::State &state)
{
    const DramAddressMap map = makeAddressMap("intel_ivy", kGeometry);
    LineCoord coord{1, 0, 3, 4242, 17};
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.encode(coord));
        coord.row = (coord.row + 97) % kGeometry.rowsPerBank;
    }
}
BENCHMARK(BM_XorMappingEncode);

void
BM_RelaxFaultMapLocate(benchmark::State &state)
{
    const RelaxFaultMap map(kGeometry, kLlc, true);
    RemapUnit unit{3, 7, 2, 12345, 5};
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.locate(unit));
        unit.row = (unit.row + 97) & 0xffff;
    }
}
BENCHMARK(BM_RelaxFaultMapLocate);

void
BM_FaultyBankFilter(benchmark::State &state)
{
    // The per-LLC-miss test: faulty-bank table lookup + (on hit) the
    // repair-tag probe for one device.
    RelaxFaultRepair repair(kGeometry, kLlc, RepairBudget{4, 32768}, true);
    FaultRecord fault;
    fault.persistence = Persistence::Permanent;
    RegionCluster cluster;
    cluster.bankMask = 1;
    cluster.rows = RowSet::of({100});
    cluster.cols = ColSet::allCols();
    fault.parts.push_back({0, 3, FaultRegion({cluster})});
    repair.tryRepair(fault);

    RemapUnit unit{0, 3, 0, 100, 0};
    uint32_t row = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(repair.bankFlagged(0, row & 7));
        unit.row = row;
        benchmark::DoNotOptimize(repair.unitRepaired(unit));
        ++row;
    }
}
BENCHMARK(BM_FaultyBankFilter);

/** Repair-layer fault shapes: one cluster on DIMM 0, device 3, bank 2. */
FaultRecord
repairFault(const std::string &mode)
{
    RegionCluster cluster;
    cluster.bankMask = 1u << 2;
    if (mode == "bit") {
        cluster.rows = RowSet::of({1000});
        cluster.cols = ColSet::of({17});
        cluster.bitMask = 1;
    } else if (mode == "row") {
        cluster.rows = RowSet::of({1000});
        cluster.cols = ColSet::allCols();
    } else {
        // "column": 64 rows of one column block; "multirow": 32 whole
        // rows, 8,192 lines, as many as one LLC way holds.
        const unsigned rows = mode == "column" ? 64 : 32;
        std::vector<uint32_t> list;
        for (unsigned i = 0; i < rows; ++i)
            list.push_back(4096 + i);
        cluster.rows = RowSet::of(std::move(list));
        cluster.cols = mode == "column" ? ColSet::of({17})
                                        : ColSet::allCols();
    }
    FaultRecord fault;
    fault.persistence = Persistence::Permanent;
    fault.parts.push_back({0, 3, FaultRegion({cluster})});
    return fault;
}

/**
 * tryRepair of one fault on a fresh 1-way mechanism (the fig12
 * FreeFault-1way / RelaxFault-1way rows), reset included: the repair
 * layer's per-fault cost, tail shapes included.
 */
template <typename Mechanism>
void
BM_TryRepair(benchmark::State &state, Mechanism mechanism,
             const std::string &mode)
{
    const FaultRecord fault = repairFault(mode);
    for (auto _ : state) {
        benchmark::DoNotOptimize(mechanism.tryRepair(fault));
        mechanism.reset();
    }
}
BENCHMARK_CAPTURE(BM_TryRepair, FreeFault_bit,
                  FreeFaultRepair(makeAddressMap("fig7a", kGeometry), kLlc,
                                  RepairBudget{1, 32768}),
                  "bit")->Name("BM_FreeFaultTryRepair/bit");
BENCHMARK_CAPTURE(BM_TryRepair, FreeFault_row,
                  FreeFaultRepair(makeAddressMap("fig7a", kGeometry), kLlc,
                                  RepairBudget{1, 32768}),
                  "row")->Name("BM_FreeFaultTryRepair/row");
BENCHMARK_CAPTURE(BM_TryRepair, FreeFault_column,
                  FreeFaultRepair(makeAddressMap("fig7a", kGeometry), kLlc,
                                  RepairBudget{1, 32768}),
                  "column")->Name("BM_FreeFaultTryRepair/column");
BENCHMARK_CAPTURE(BM_TryRepair, FreeFault_multirow,
                  FreeFaultRepair(makeAddressMap("fig7a", kGeometry), kLlc,
                                  RepairBudget{1, 32768}),
                  "multirow")->Name("BM_FreeFaultTryRepair/multirow");
BENCHMARK_CAPTURE(BM_TryRepair, RelaxFault_bit,
                  RelaxFaultRepair(kGeometry, kLlc, RepairBudget{1, 32768}),
                  "bit")->Name("BM_RelaxFaultTryRepair/bit");
BENCHMARK_CAPTURE(BM_TryRepair, RelaxFault_row,
                  RelaxFaultRepair(kGeometry, kLlc, RepairBudget{1, 32768}),
                  "row")->Name("BM_RelaxFaultTryRepair/row");
BENCHMARK_CAPTURE(BM_TryRepair, RelaxFault_column,
                  RelaxFaultRepair(kGeometry, kLlc, RepairBudget{1, 32768}),
                  "column")->Name("BM_RelaxFaultTryRepair/column");
BENCHMARK_CAPTURE(BM_TryRepair, RelaxFault_multirow,
                  RelaxFaultRepair(kGeometry, kLlc, RepairBudget{1, 32768}),
                  "multirow")->Name("BM_RelaxFaultTryRepair/multirow");

void
BM_LineTrackerTryAdd(benchmark::State &state)
{
    // A 256-line all-or-nothing add, then a reset: the tracker alone.
    RepairLineTracker tracker(kLlc.sets(), RepairBudget{16, 32768});
    std::vector<std::pair<uint64_t, uint64_t>> lines;
    for (uint64_t i = 0; i < 256; ++i) {
        const uint64_t key = i * 977 + 12345;
        lines.emplace_back(key % kLlc.sets(), key);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(tracker.tryAdd(lines));
        tracker.reset();
    }
}
BENCHMARK(BM_LineTrackerTryAdd);

void
BM_ChipkillEncodeLine(benchmark::State &state)
{
    uint8_t data[64];
    for (unsigned i = 0; i < 64; ++i)
        data[i] = static_cast<uint8_t>(i * 7);
    uint8_t line[72];
    for (auto _ : state) {
        LineCodec::buildLine(data, line);
        benchmark::DoNotOptimize(line);
        data[0] ^= 1;
    }
}
BENCHMARK(BM_ChipkillEncodeLine);

void
BM_ChipkillDecodeFaultyLine(benchmark::State &state)
{
    // The production read path: batched decode at the active SIMD level.
    uint8_t data[64] = {1, 2, 3};
    uint8_t clean[72];
    LineCodec::buildLine(data, clean);
    uint8_t line[72];
    for (auto _ : state) {
        std::memcpy(line, clean, 72);
        line[4 * 5 + 1] ^= 0x3c;  // One faulty device symbol.
        benchmark::DoNotOptimize(LineCodec::decodeLineBatched(line));
    }
}
BENCHMARK(BM_ChipkillDecodeFaultyLine);

void
BM_ChipkillDecodeFaultyLineScalar(benchmark::State &state)
{
    // The reference path (per-codeword table loops) regardless of the
    // dispatch level — the in-binary "before" for the batched decode.
    uint8_t data[64] = {1, 2, 3};
    uint8_t clean[72];
    LineCodec::buildLine(data, clean);
    uint8_t line[72];
    for (auto _ : state) {
        std::memcpy(line, clean, 72);
        line[4 * 5 + 1] ^= 0x3c;
        benchmark::DoNotOptimize(LineCodec::decodeLine(line));
    }
}
BENCHMARK(BM_ChipkillDecodeFaultyLineScalar);

void
BM_ChipkillDecodeCleanLine(benchmark::State &state)
{
    // The dominant case in a scrub pass: no error, one packed syndrome
    // check answers for all four codewords.
    uint8_t data[64] = {1, 2, 3};
    uint8_t clean[72];
    LineCodec::buildLine(data, clean);
    uint8_t line[72];
    for (auto _ : state) {
        std::memcpy(line, clean, 72);
        benchmark::DoNotOptimize(LineCodec::decodeLineBatched(line));
    }
}
BENCHMARK(BM_ChipkillDecodeCleanLine);

void
BM_CoalescerMerge(benchmark::State &state)
{
    // The Fig. 6 merge: substitute one device's 4B sub-block.
    uint8_t line[72] = {};
    const uint8_t remap[64] = {0xaa, 0xbb, 0xcc, 0xdd};
    unsigned device = 0;
    for (auto _ : state) {
        std::memcpy(line + device * 4, remap, 4);
        benchmark::DoNotOptimize(line);
        device = (device + 1) % 18;
    }
}
BENCHMARK(BM_CoalescerMerge);

void
BM_ControllerReadRepairedLine(benchmark::State &state)
{
    ControllerConfig config;
    RelaxFaultController controller(config);
    FaultRecord fault;
    fault.persistence = Persistence::Permanent;
    RegionCluster cluster;
    cluster.bankMask = 1;
    cluster.rows = RowSet::of({100});
    cluster.cols = ColSet::allCols();
    fault.parts.push_back({0, 3, FaultRegion({cluster})});
    controller.reportFault(fault);

    LineCoord coord;
    coord.row = 100;
    const uint64_t pa = controller.addressMap().encode(coord);
    uint8_t data[64] = {42};
    controller.write(pa, data);
    for (auto _ : state) {
        benchmark::DoNotOptimize(controller.read(pa, data));
    }
}
BENCHMARK(BM_ControllerReadRepairedLine);

void
BM_TelemetryDisabledBranch(benchmark::State &state)
{
    // The disabled-telemetry hot path: the per-trial null-registry
    // branch.
    MetricRegistry *registry = nullptr;
    uint64_t work = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(++work);
        if (registry != nullptr)
            registry->counter("sim.trials").add(1);
        benchmark::DoNotOptimize(registry);
    }
}
BENCHMARK(BM_TelemetryDisabledBranch);

void
BM_TelemetryCounterAdd(benchmark::State &state)
{
    MetricRegistry registry;
    Counter &trials = registry.counter("sim.trials");
    for (auto _ : state) {
        trials.add(1);
    }
    benchmark::DoNotOptimize(trials.value());
}
BENCHMARK(BM_TelemetryCounterAdd);

void
BM_TelemetryHistogramRecord(benchmark::State &state)
{
    MetricRegistry registry;
    Log2Histogram &hist = registry.histogram("sim.trial_us");
    uint64_t value = 1;
    for (auto _ : state) {
        hist.record(value);
        value = (value * 7 + 3) & 0xffff;
    }
    benchmark::DoNotOptimize(hist.snapshot().count);
}
BENCHMARK(BM_TelemetryHistogramRecord);

void
BM_TelemetryHistogramRecordBatch(benchmark::State &state)
{
    // The lifetime engine's batched fill: stage kCapacity samples, then
    // one positional recordBatch publish. Reported per sample.
    MetricRegistry registry;
    Log2Histogram &hist = registry.histogram("sim.trial_us");
    uint64_t values[HistogramBatch::kCapacity];
    uint64_t value = 1;
    for (auto _ : state) {
        for (auto &v : values) {
            v = value;
            value = (value * 7 + 3) & 0xffff;
        }
        hist.recordBatch(values, HistogramBatch::kCapacity);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(HistogramBatch::kCapacity));
    benchmark::DoNotOptimize(hist.snapshot().count);
}
BENCHMARK(BM_TelemetryHistogramRecordBatch);

void
BM_FailpointDisabledEval(benchmark::State &state)
{
    // The disabled-failpoint hot path every instrumented syscall (and
    // ShmRing::tryPop) pays when nothing is armed: one relaxed atomic
    // load plus a predictable branch. Must stay at the same cost as
    // the disabled telemetry/tracer branches — the registry's
    // zero-cost-when-disabled contract.
    uint64_t work = 0;
    for (auto _ : state) {
        const FailpointHit hit = failpoint::eval(FailpointSite::FsWrite);
        benchmark::DoNotOptimize(hit.effect);
        benchmark::DoNotOptimize(++work);
    }
}
BENCHMARK(BM_FailpointDisabledEval);

void
BM_TracerDisabledEmit(benchmark::State &state)
{
    // tracer_overhead, disabled side: the null-sink branch every
    // instrumented site pays when tracing is off. The pointer is
    // volatile so the branch survives optimization, as it does in the
    // engines (where the sink is a runtime argument).
    TraceSink *volatile sink = nullptr;
    uint64_t work = 0;
    for (auto _ : state) {
        TraceSink *const s = sink;
        if (s != nullptr)
            s->emit(TraceKind::FaultArrival, kFaultSampled, work, 1, 2);
        benchmark::DoNotOptimize(++work);
    }
}
BENCHMARK(BM_TracerDisabledEmit);

void
BM_TracerEnabledEmit(benchmark::State &state)
{
    // tracer_overhead, enabled side: one 64-byte ring store per event.
    Tracer tracer;
    const uint16_t unit = tracer.registerUnit("micro");
    const TraceShardLease lease(&tracer);
    TraceSink sink(&tracer, lease.shard(), unit);
    sink.beginTrial(0);
    uint64_t work = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sink.emit(TraceKind::FaultArrival, kFaultSampled, work, 1, 2));
        ++work;
    }
}
BENCHMARK(BM_TracerEnabledEmit);

void
BM_TracerFilteredEmit(benchmark::State &state)
{
    // Enabled tracer, filtered-out kind: the accepts() mask test.
    TracerConfig config;
    config.filter = traceKindBit(TraceKind::Verdict);
    Tracer tracer(config);
    const uint16_t unit = tracer.registerUnit("micro");
    const TraceShardLease lease(&tracer);
    TraceSink sink(&tracer, lease.shard(), unit);
    sink.beginTrial(0);
    uint64_t work = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sink.emit(TraceKind::FaultArrival, kFaultSampled, work, 1, 2));
        ++work;
    }
}
BENCHMARK(BM_TracerFilteredEmit);

void
BM_StatsPublisherDisabled(benchmark::State &state)
{
    // Disabled live-stats plane: the null-slot branch the trial loop
    // pays per trial when no `--stats-plane` is given. Same contract as
    // the disabled telemetry/tracer/failpoint branches: one predictable
    // test, no atomics touched. CI pins this under 5ns.
    StatsPublisher pub;  // Default: no slot → disabled.
    uint64_t work = 0;
    for (auto _ : state) {
        pub.trialStarted();
        pub.trialFinished();
        benchmark::DoNotOptimize(++work);
    }
}
BENCHMARK(BM_StatsPublisherDisabled);

void
BM_PhaseScopeDisabled(benchmark::State &state)
{
    // Every sink off: profiler disarmed, null trace sink, null batch —
    // the PhaseScope compiled at every phase boundary in the engines.
    // One relaxed load + branches, no clock read. CI pins this under
    // 5ns.
    TraceSink *volatile sink_slot = nullptr;
    uint64_t work = 0;
    for (auto _ : state) {
        const PhaseScope scope(Phase::Trial, sink_slot, nullptr);
        benchmark::DoNotOptimize(++work);
    }
}
BENCHMARK(BM_PhaseScopeDisabled);

/**
 * Console reporter that also keeps each per-iteration run so main can
 * emit a `relaxfault.bench.v1` record after the run: one row per
 * benchmark, in run order. Under `--benchmark_repetitions=N` the row is
 * the repetition with the median ns/op (the lower median for even N),
 * so one noisy repetition cannot move the gated figure.
 */
class CollectingReporter : public benchmark::ConsoleReporter
{
  public:
    struct Row
    {
        std::string name;
        double nsPerOp = 0.0;
        int64_t iterations = 0;
    };

    void ReportRuns(const std::vector<Run> &reports) override
    {
        for (const Run &run : reports) {
            if (run.run_type != Run::RT_Iteration || run.error_occurred)
                continue;
            Row row;
            row.name = run.run_name.str();
            row.iterations = run.iterations;
            if (run.iterations > 0)
                row.nsPerOp = run.real_accumulated_time * 1e9 /
                              static_cast<double>(run.iterations);
            auto it = std::find_if(
                repetitions_.begin(), repetitions_.end(),
                [&](const auto &group) { return group[0].name == row.name; });
            if (it == repetitions_.end())
                repetitions_.push_back({std::move(row)});
            else
                it->push_back(std::move(row));
        }
        benchmark::ConsoleReporter::ReportRuns(reports);
    }

    std::vector<Row> rows() const
    {
        std::vector<Row> rows;
        for (std::vector<Row> group : repetitions_) {
            std::sort(group.begin(), group.end(),
                      [](const Row &a, const Row &b) {
                          return a.nsPerOp < b.nsPerOp;
                      });
            rows.push_back(group[(group.size() - 1) / 2]);
        }
        return rows;
    }

  private:
    std::vector<std::vector<Row>> repetitions_;  ///< Per benchmark.
};

} // namespace

int
main(int argc, char **argv)
{
    // Peel --json[=PATH] off before google-benchmark sees the argv (its
    // strict flag parser would reject it); everything else passes
    // through untouched.
    std::string json_path;
    bool json_enabled = false;
    std::vector<char *> passthrough;
    passthrough.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json_enabled = true;
            continue;
        }
        if (arg.rfind("--json=", 0) == 0) {
            json_enabled = true;
            json_path = arg.substr(7);
            continue;
        }
        passthrough.push_back(argv[i]);
    }
    if (json_enabled && json_path.empty())
        json_path = "BENCH_micro.json";

    int filtered_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&filtered_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(filtered_argc,
                                               passthrough.data()))
        return 1;

    CollectingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);

    if (json_enabled) {
        relaxfault::RunRecord record("micro");
        record.setConfig("simd",
                         relaxfault::simdLevelName(
                             relaxfault::activeSimdLevel()));
        for (const CollectingReporter::Row &row : reporter.rows()) {
            record.addRow()
                .set("name", row.name)
                .set("ns_per_op", row.nsPerOp)
                .set("iterations", row.iterations);
        }
        std::ofstream out(json_path);
        if (!out)
            relaxfault::fatal("cannot open --json output file " +
                              json_path);
        record.writeJsonLine(out, nullptr);
        relaxfault::inform("wrote " + json_path);
    }
    return 0;
}
