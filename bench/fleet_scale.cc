/**
 * @file
 * Fleet-scale campaign bench: millions of nodes per trial through the
 * lazy skip-ahead engine (`src/fleet/`), optionally distributed over
 * forked worker processes.
 *
 * Not a paper figure — this bench exists to measure and pin the fleet
 * engine's scaling claims: trials/sec and peak RSS at `--nodes=1000000`
 * and beyond (O(faulty) memory keeps a million-node trial well under
 * 1 GiB), for the RelaxFault-4way mechanism at 1x FIT under ReplA.
 *
 *   fleet_scale --nodes=1000000 --trials=8 --workers=4 --json
 *
 * `--checkpoint`/`--resume`/`--shards`, `--workers=N` (N worker
 * processes claiming shards through the stats plane), `--audit` and
 * `--trace` work exactly as on the fig benches: every combination gives
 * bit-identical results. The JSON
 * artifact reports trials/sec, elapsed time, and parent + per-worker
 * peak RSS.
 */

#include <algorithm>
#include <iostream>

#include "common/process.h"
#include "lifetime_bench.h"

using namespace relaxfault;
using namespace relaxfault::bench;

int
main(int argc, char **argv)
{
    LifetimeBench bench(argc, argv, kFleetScaleBench);
    const unsigned nodes = bench.nodes();
    const unsigned trials = bench.trials();
    const unsigned workers = bench.workers();
    const FleetSimulator simulator(bench.config());
    const FleetSimulator::MechanismFactory factory = makeFactory(
        MechanismSpec::relaxFault(4), bench.config().faultModel.geometry);

    std::cout << "Fleet scale: " << nodes << " nodes/system, " << trials
              << " trials, RelaxFault-4way, "
              << (workers > 0 ? std::to_string(workers) + " workers"
                              : std::string("in-process"))
              << "\n\n";

    Clock &clock = Clock::steady();
    const Clock::TimePoint start = clock.now();
    const CampaignResult result =
        bench.runUnit("fleet", simulator, factory);
    if (result.interrupted)
        return bench.finish();
    const LifetimeSummary &summary = result.summary;
    // Both stay 0 in-process: only worker shards stamp their RSS.
    const int64_t worker_rss = bench.runner().workerPeakRssBytes();
    const int64_t worker_sum_rss = bench.runner().workerSumRssBytes();
    const uint64_t elapsed_ms = clock.elapsedMs(start);
    const double trials_per_sec =
        elapsed_ms > 0 ? 1000.0 * trials / static_cast<double>(elapsed_ms)
                       : 0.0;
    const int64_t parent_rss = peakRssBytes();
    const int64_t peak_rss = std::max(parent_rss, worker_rss);
    // Two complementary footprints: `peak_rss_bytes` is the single
    // hottest process (max fold); `sum_rss_bytes` approximates the
    // fleet-wide footprint — parent plus the sum of each worker slot's
    // peak — what an operator must budget to co-locate the whole pool.
    const int64_t sum_rss = parent_rss + worker_sum_rss;

    TextTable table;
    table.setHeader({"metric", "value"});
    table.addRow({"trials/sec", TextTable::num(trials_per_sec, 3)});
    table.addRow({"elapsed-ms", std::to_string(elapsed_ms)});
    table.addRow({"peak-rss-MiB",
                  TextTable::num(static_cast<double>(peak_rss) /
                                     (1024.0 * 1024.0), 1)});
    table.addRow({"faulty-nodes", TextTable::num(summary.faultyNodes.mean(),
                                                 0)});
    table.addRow({"DUEs", TextTable::num(summary.dues.mean(), 2)});
    table.addRow({"SDCs", TextTable::num(summary.sdcs.mean(), 4)});
    table.addRow({"replacements", TextTable::num(summary.replacements.mean(),
                                                 2)});
    table.print(std::cout);

    bench.report().addRow()
        .set("nodes", nodes)
        .set("trials", trials)
        // A constant: tools/bench_diff matches rows by their string
        // cells, so it keeps rows comparable with older artifacts.
        .set("mode", "lazy")
        .set("workers", workers)
        .set("shards_run", result.shardsRun)
        .set("shards_resumed", result.shardsResumed)
        .set("trials_per_sec", trials_per_sec)
        .set("elapsed_ms", elapsed_ms)
        .set("peak_rss_bytes", peak_rss)
        .set("worker_peak_rss_bytes", worker_rss)
        .set("sum_rss_bytes", sum_rss)
        .set("faulty_nodes", summary.faultyNodes.mean())
        .set("dues", summary.dues.mean())
        .set("sdcs", summary.sdcs.mean())
        .set("replacements", summary.replacements.mean());
    return bench.finish();
}
