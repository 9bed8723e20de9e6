/**
 * @file
 * Trace forensics CLI: query exported causal traces.
 *
 * Loads one or more `relaxfault.trace.v1` files (the aggregate
 * `--trace` artifact and/or per-shard campaign flushes; units are
 * merged by label) and answers the questions a failure post-mortem
 * asks:
 *
 *   trace_query TRACE.json                      # per-unit summary
 *   trace_query TRACE.json --trial=7            # trial 7's causal tree
 *   trace_query TRACE.json --trial=7 --unit=1x-fit/RelaxFault-4way
 *   trace_query TRACE.json --degraded --last=5  # what preceded the
 *                                               # last 5 degradations
 *   trace_query TRACE.json --phases             # span latency histogram
 *
 * The timeline view walks the parent links recorded at emission time,
 * so a fail-stop or DUE verdict prints underneath the exact fault
 * arrival and failed repair decision that caused it.
 */

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/cli.h"
#include "common/log.h"
#include "common/table.h"
#include "faults/fault.h"
#include "telemetry/metrics.h"
#include "telemetry/profiler.h"
#include "telemetry/run_record.h"
#include "tracing/trace_event.h"
#include "tracing/trace_export.h"

using namespace relaxfault;

namespace {

/** All loaded files folded together, unit ids remapped by label. */
struct MergedTrace
{
    std::vector<std::string> units;
    std::vector<TraceEvent> events;
    uint64_t droppedEvents = 0;

    uint16_t unitId(const std::string &label)
    {
        for (size_t i = 0; i < units.size(); ++i) {
            if (units[i] == label)
                return static_cast<uint16_t>(i);
        }
        units.push_back(label);
        return static_cast<uint16_t>(units.size() - 1);
    }
};

MergedTrace
loadAll(const std::vector<std::string> &paths)
{
    MergedTrace merged;
    for (const std::string &path : paths) {
        LoadedTrace loaded;
        std::string error;
        if (!loadChromeTraceFile(path, loaded, &error))
            fatal("trace_query: " + path + ": " + error);
        std::vector<uint16_t> remap(loaded.units.size());
        for (size_t u = 0; u < loaded.units.size(); ++u)
            remap[u] = merged.unitId(loaded.units[u]);
        for (TraceEvent event : loaded.events) {
            event.unit = event.unit < remap.size() ? remap[event.unit]
                                                   : merged.unitId("?");
            merged.events.push_back(event);
        }
        merged.droppedEvents += loaded.droppedEvents;
    }
    std::sort(merged.events.begin(), merged.events.end(),
              [](const TraceEvent &lhs, const TraceEvent &rhs) {
                  return std::tie(lhs.unit, lhs.trial, lhs.id) <
                         std::tie(rhs.unit, rhs.trial, rhs.id);
              });
    return merged;
}

std::string
hours(double t)
{
    std::ostringstream out;
    out.precision(3);
    out << std::fixed << t << "h";
    return out.str();
}

/** Kind-specific payload decode (conventions in trace_event.h). */
std::string
describe(const TraceEvent &e)
{
    std::ostringstream out;
    out << traceEventName(e.kind, e.sub);
    switch (e.kind) {
      case TraceKind::FaultArrival:
        out << " mode=" << faultModeName(static_cast<FaultMode>(e.a))
            << " perm="
            << (e.b == 0 ? "transient" : e.b == 1 ? "hard" : "intermittent")
            << " dimm=" << ((e.c >> 8) & 0xff)
            << " device=" << (e.c & 0xff) << " parts=" << (e.c >> 16);
        break;
      case TraceKind::RepairDecision:
        out << " mech="
            << traceMechanismName(
                   static_cast<TraceMechanismId>(e.c >> 32))
            << " lines_delta=" << (e.c & 0xffffffffu)
            << " used_lines=" << e.a << " max_ways=" << e.b;
        break;
      case TraceKind::ScrubHit:
        out << " bank=" << (e.a >> 48)
            << " row=" << ((e.a >> 16) & 0xffffffffu)
            << " col=" << (e.a & 0xffffu) << " device_mask=0x" << std::hex
            << e.b << std::dec << " dimm=" << e.c;
        break;
      case TraceKind::BudgetExhausted:
        out << " used_lines=" << e.a << " max_ways=" << e.b;
        break;
      case TraceKind::Degradation:
        out << " absorbed=" << (e.a != 0 ? "yes" : "no");
        break;
      case TraceKind::Verdict:
        if (e.sub == kVerdictDue)
            out << " dimms=" << e.b;
        else
            out << " expectation="
                << static_cast<double>(e.a) / 1e6;
        break;
      case TraceKind::Replacement:
        out << " dimm=" << e.a;
        break;
      case TraceKind::Span:
        out << " wall_us=" << e.a;
        break;
      case TraceKind::Heartbeat:
        out << " first_trial=" << e.trial << " trials=" << e.a
            << " shard=" << e.b;
        if (e.sub != kHeartbeatStart)
            out << " duration_ms=" << e.c;
        break;
    }
    return out.str();
}

std::string
line(const TraceEvent &e, unsigned depth)
{
    std::ostringstream out;
    out << "  [" << hours(e.timeHours) << "]";
    if (e.node != 0 || e.kind != TraceKind::Heartbeat)
        out << " node=" << e.node;
    out << "  " << std::string(2 * depth, ' ') << describe(e);
    return out.str();
}

void
printSummary(const MergedTrace &merged)
{
    struct Row
    {
        std::set<uint64_t> trials;
        uint64_t events = 0, faults = 0, repaired = 0, failed = 0;
        uint64_t degrades = 0, dues = 0, sdcs = 0;
    };
    std::map<uint16_t, Row> rows;
    for (const TraceEvent &e : merged.events) {
        Row &row = rows[e.unit];
        ++row.events;
        if (e.kind != TraceKind::Heartbeat)
            row.trials.insert(e.trial);
        row.faults += e.kind == TraceKind::FaultArrival;
        row.repaired +=
            e.kind == TraceKind::RepairDecision && e.sub == kRepairOk;
        row.failed +=
            e.kind == TraceKind::RepairDecision && e.sub == kRepairFailed;
        row.degrades += e.kind == TraceKind::Degradation;
        row.dues += e.kind == TraceKind::Verdict && e.sub == kVerdictDue;
        row.sdcs += e.kind == TraceKind::Verdict && e.sub == kVerdictSdc;
    }
    TextTable table;
    table.setHeader({"unit", "events", "trials", "faults", "repaired",
                     "repair-failed", "degrades", "DUEs", "SDCs"});
    for (const auto &[unit, row] : rows) {
        table.addRow({unit < merged.units.size() ? merged.units[unit]
                                                 : "?",
                      TextTable::num(row.events),
                      TextTable::num(uint64_t{row.trials.size()}),
                      TextTable::num(row.faults),
                      TextTable::num(row.repaired),
                      TextTable::num(row.failed),
                      TextTable::num(row.degrades),
                      TextTable::num(row.dues),
                      TextTable::num(row.sdcs)});
    }
    table.print(std::cout);
    std::cout << merged.events.size() << " events, "
              << merged.droppedEvents
              << " dropped at export (ring overwrite)\n";
}

/** Indices of one (unit, trial)'s events, already id-sorted. */
std::vector<size_t>
trialEvents(const MergedTrace &merged, uint16_t unit, uint64_t trial)
{
    std::vector<size_t> indices;
    for (size_t i = 0; i < merged.events.size(); ++i) {
        const TraceEvent &e = merged.events[i];
        if (e.unit == unit && e.trial == trial &&
            e.kind != TraceKind::Heartbeat)
            indices.push_back(i);
    }
    return indices;
}

/** DFS the causal tree of one trial in emission order. */
void
printTimeline(const MergedTrace &merged, uint16_t unit, uint64_t trial)
{
    const std::vector<size_t> indices = trialEvents(merged, unit, trial);
    std::map<uint64_t, std::vector<size_t>> children;
    std::set<uint64_t> ids;
    for (const size_t i : indices)
        ids.insert(merged.events[i].id);
    for (const size_t i : indices) {
        const TraceEvent &e = merged.events[i];
        // An unknown parent (filtered out at record time) roots the
        // event rather than hiding it.
        children[ids.count(e.parent) ? e.parent : 0].push_back(i);
    }
    std::cout << "unit "
              << (unit < merged.units.size() ? merged.units[unit] : "?")
              << ", trial " << trial << ": " << indices.size()
              << " events\n";
    struct Frame
    {
        size_t index;
        unsigned depth;
    };
    std::vector<Frame> stack;
    const auto push_children = [&](uint64_t id, unsigned depth) {
        const auto it = children.find(id);
        if (it == children.end())
            return;
        for (auto rit = it->second.rbegin(); rit != it->second.rend();
             ++rit)
            stack.push_back({*rit, depth});
    };
    push_children(0, 0);
    while (!stack.empty()) {
        const Frame frame = stack.back();
        stack.pop_back();
        const TraceEvent &e = merged.events[frame.index];
        std::cout << line(e, frame.depth) << "\n";
        push_children(e.id, frame.depth + 1);
    }
}

/** Root-to-event causal chain (the "what preceded it" view). */
void
printAncestry(const MergedTrace &merged,
              const std::map<uint64_t, size_t> &by_id, size_t index)
{
    std::vector<size_t> chain;
    size_t cursor = index;
    for (;;) {
        chain.push_back(cursor);
        const auto parent = by_id.find(merged.events[cursor].parent);
        if (merged.events[cursor].parent == 0 || parent == by_id.end())
            break;
        cursor = parent->second;
    }
    for (size_t depth = chain.size(); depth-- > 0;)
        std::cout << line(merged.events[chain[depth]],
                          static_cast<unsigned>(chain.size() - 1 - depth))
                  << "\n";
}

void
printDegraded(const MergedTrace &merged, uint64_t last)
{
    // Group degradation events per (unit, trial), keeping global order.
    std::vector<std::pair<std::pair<uint16_t, uint64_t>,
                          std::vector<size_t>>> groups;
    for (size_t i = 0; i < merged.events.size(); ++i) {
        const TraceEvent &e = merged.events[i];
        if (e.kind != TraceKind::Degradation)
            continue;
        const std::pair<uint16_t, uint64_t> key{e.unit, e.trial};
        if (groups.empty() || groups.back().first != key)
            groups.push_back({key, {}});
        groups.back().second.push_back(i);
    }
    std::cout << groups.size() << " (unit, trial) pair(s) degraded\n";
    const size_t first =
        last != 0 && groups.size() > last ? groups.size() - last : 0;
    for (size_t g = first; g < groups.size(); ++g) {
        const auto &[key, events] = groups[g];
        const auto &[unit, trial] = key;
        std::cout << "\nunit "
                  << (unit < merged.units.size() ? merged.units[unit]
                                                 : "?")
                  << ", trial " << trial << ": " << events.size()
                  << " degradation(s)\n";
        std::map<uint64_t, size_t> by_id;
        for (const size_t i : trialEvents(merged, unit, trial))
            by_id[merged.events[i].id] = i;
        for (const size_t i : events)
            printAncestry(merged, by_id, i);
    }
}

void
printPhases(const MergedTrace &merged)
{
    std::map<uint8_t, Log2HistogramSnapshot> phases;
    for (const TraceEvent &e : merged.events) {
        if (e.kind != TraceKind::Span)
            continue;
        Log2HistogramSnapshot &snapshot = phases[e.sub];
        ++snapshot.buckets[Log2Histogram::bucketOf(e.a)];
        ++snapshot.count;
        snapshot.sum += e.a;
    }
    TextTable table;
    table.setHeader({"phase", "count", "mean-us", "p50-us<=", "p90-us<=",
                     "p99-us<="});
    for (const auto &[sub, snapshot] : phases) {
        table.addRow({phaseName(static_cast<Phase>(sub)),
                      TextTable::num(snapshot.count),
                      TextTable::num(snapshot.mean(), 1),
                      TextTable::num(snapshot.quantileUpperBound(0.5)),
                      TextTable::num(snapshot.quantileUpperBound(0.9)),
                      TextTable::num(snapshot.quantileUpperBound(0.99))});
    }
    table.print(std::cout);
    if (phases.empty())
        std::cout << "(no span events; was the trace filtered?)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions options(argc, argv,
                             {"summary", "trial", "unit", "degraded",
                              "last", "phases", "version"},
                             {"summary", "degraded", "phases"});
    if (options.has("version")) {
        std::cout << toolVersionLine("trace_query") << "\n";
        return 0;
    }
    if (options.positional().empty())
        fatal("usage: trace_query TRACE.json [TRACE.json...] [--summary] "
              "[--trial=N [--unit=LABEL]] [--degraded [--last=K]] "
              "[--phases]");
    const MergedTrace merged = loadAll(options.positional());

    bool queried = false;
    if (options.has("trial")) {
        queried = true;
        const auto trial = static_cast<uint64_t>(
            options.getNonNegativeInt("trial", 0));
        if (options.has("unit")) {
            const std::string label = options.getString("unit", "");
            uint16_t unit = 0;
            bool found = false;
            for (size_t u = 0; u < merged.units.size(); ++u) {
                if (merged.units[u] == label) {
                    unit = static_cast<uint16_t>(u);
                    found = true;
                }
            }
            if (!found) {
                std::string known;
                for (const std::string &name : merged.units)
                    known += "\n  " + name;
                fatal("--unit=" + label +
                      " is not in this trace; units:" + known);
            }
            printTimeline(merged, unit, trial);
        } else {
            // No unit given: print the trial in every unit that has it.
            std::set<uint16_t> units;
            for (const TraceEvent &e : merged.events) {
                if (e.trial == trial && e.kind != TraceKind::Heartbeat)
                    units.insert(e.unit);
            }
            if (units.empty())
                std::cout << "trial " << trial
                          << " has no events in this trace\n";
            for (const uint16_t unit : units)
                printTimeline(merged, unit, trial);
        }
    }
    if (options.has("degraded")) {
        queried = true;
        printDegraded(merged, static_cast<uint64_t>(
                                  options.getNonNegativeInt("last", 0)));
    }
    if (options.has("phases")) {
        queried = true;
        printPhases(merged);
    }
    if (options.has("summary") || !queried)
        printSummary(merged);
    return 0;
}
