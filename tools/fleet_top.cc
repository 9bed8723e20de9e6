/**
 * @file
 * Live fleet viewer: attach to a `--stats-plane` file and watch the
 * workers run.
 *
 *   fleet_top STATS.plane                 # refreshing per-worker table
 *   fleet_top STATS.plane --once          # one frame, then exit
 *   fleet_top STATS.plane --once --json   # machine snapshot
 *                                         # (relaxfault.top.v3)
 *
 * The viewer is a pure observer: it maps the plane read-only and loads
 * each slot's words (`StatsPlane::readSlot`), so attaching (or
 * hammering refreshes) costs the campaign nothing. Trials/s is the
 * observer's own figure: the change in each slot's completed count
 * between two samples `--interval-ms` apart — successive frames in
 * watch mode, two samples for `--once`. Highlighting mirrors the
 * supervisor's verdicts — a slot the parent marked `stalled` or
 * `crashed` is flagged — plus an observer-side staleness hint: a
 * `running` slot with no finished trial or phase change for
 * `--stale-ms` is suspect even before the watchdog fires (the watchdog
 * may be disabled, or its deadline long). Quarantined shards are
 * surfaced in the footer; the campaign's own numbers are still the
 * checkpoint log's job, not this viewer's.
 */

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.h"
#include "common/clock.h"
#include "common/log.h"
#include "common/table.h"
#include "telemetry/json_writer.h"
#include "telemetry/run_record.h"
#include "telemetry/stats_plane.h"

using namespace relaxfault;

namespace {

/** Snapshot of the whole plane at one observer instant. */
struct PlaneFrame
{
    std::string campaign;
    uint64_t ownerPid = 0;
    uint64_t startEpochMs = 0;
    uint64_t quarantinedShards = 0;
    uint64_t nowEpochMs = 0;
    Clock::TimePoint sampledAt;
    std::vector<StatsSlotSample> slots;
    /// Completed trials per second since the previous frame, per slot.
    std::vector<double> trialsPerSec;
};

/** Sample @p plane; rates are derived against @p previous if given. */
PlaneFrame
sample(const StatsPlane &plane, const PlaneFrame *previous)
{
    PlaneFrame frame;
    frame.campaign = plane.campaign();
    frame.ownerPid = plane.ownerPid();
    frame.startEpochMs = plane.startEpochMs();
    frame.quarantinedShards = plane.quarantinedShards();
    frame.nowEpochMs = runTimestampMs();
    frame.sampledAt = Clock::steady().now();
    for (size_t slot = 0; slot < plane.slots(); ++slot)
        frame.slots.push_back(plane.readSlot(slot));
    frame.trialsPerSec.assign(frame.slots.size(), 0.0);
    if (previous == nullptr)
        return frame;
    const double seconds =
        std::chrono::duration<double>(frame.sampledAt - previous->sampledAt)
            .count();
    for (size_t i = 0;
         i < frame.slots.size() && i < previous->slots.size(); ++i) {
        const uint64_t now = frame.slots[i].trialsCompleted;
        const uint64_t before = previous->slots[i].trialsCompleted;
        // A count that went down belongs to a re-created plane.
        if (seconds > 0.0 && now >= before)
            frame.trialsPerSec[i] =
                static_cast<double>(now - before) / seconds;
    }
    return frame;
}

/** Milliseconds since the slot's last update (0 if never). */
uint64_t
publishAgeMs(const PlaneFrame &frame, const StatsSlotSample &slot)
{
    if (slot.updateEpochMs == 0 ||
        slot.updateEpochMs > frame.nowEpochMs)
        return 0;
    return frame.nowEpochMs - slot.updateEpochMs;
}

bool
terminalPhase(StatsPhase phase)
{
    return phase == StatsPhase::Done || phase == StatsPhase::Crashed;
}

std::string
renderTable(const PlaneFrame &frame, uint64_t stale_ms)
{
    std::ostringstream out;
    out << "campaign " << frame.campaign << "  owner-pid "
        << frame.ownerPid << "  up "
        << (frame.nowEpochMs > frame.startEpochMs
                ? (frame.nowEpochMs - frame.startEpochMs) / 1000
                : 0)
        << "s\n\n";
    TextTable table;
    table.setHeader({"slot", "pid", "phase", "shard", "started", "done",
                     "trials/s", "rss-MiB", "beat", "failpts", "age-ms",
                     ""});
    uint64_t total_started = 0, total_done = 0;
    double total_rate = 0.0;
    for (size_t i = 0; i < frame.slots.size(); ++i) {
        const StatsSlotSample &slot = frame.slots[i];
        const uint64_t age = publishAgeMs(frame, slot);
        std::string note;
        if (slot.phase == StatsPhase::Stalled)
            note = "<< STALLED (watchdog verdict)";
        else if (slot.phase == StatsPhase::Crashed)
            note = "<< CRASHED";
        else if (slot.phase == StatsPhase::Running && stale_ms != 0 &&
                 age >= stale_ms)
            note = "?? stale publish";
        total_started += slot.trialsStarted;
        total_done += slot.trialsCompleted;
        total_rate += frame.trialsPerSec[i];
        table.addRow({TextTable::num(uint64_t{i}),
                      TextTable::num(slot.pid),
                      statsPhaseName(slot.phase),
                      TextTable::num(slot.shard),
                      TextTable::num(slot.trialsStarted),
                      TextTable::num(slot.trialsCompleted),
                      TextTable::num(frame.trialsPerSec[i], 2),
                      TextTable::num(static_cast<double>(slot.rssBytes) /
                                         (1024.0 * 1024.0),
                                     1),
                      TextTable::num(slot.heartbeatTick),
                      TextTable::num(slot.armedFailpoints),
                      TextTable::num(age), note});
    }
    table.print(out);
    out << "\ntotals: " << total_started << " started, " << total_done
        << " completed, " << TextTable::num(total_rate, 2)
        << " trials/s\n";
    if (frame.quarantinedShards != 0)
        out << "!! " << frame.quarantinedShards
            << " shard(s) QUARANTINED — campaign results are partial\n";
    return out.str();
}

void
writeJsonFrame(const PlaneFrame &frame, uint64_t stale_ms,
               std::ostream &os)
{
    JsonWriter json(os);
    json.beginObject();
    json.key("schema").value("relaxfault.top.v3");
    writeProvenance(json);
    json.key("campaign").value(frame.campaign);
    json.key("owner_pid").value(frame.ownerPid);
    json.key("start_epoch_ms").value(frame.startEpochMs);
    json.key("quarantined_shards").value(frame.quarantinedShards);
    json.key("slots").beginArray();
    for (size_t i = 0; i < frame.slots.size(); ++i) {
        const StatsSlotSample &slot = frame.slots[i];
        const uint64_t age = publishAgeMs(frame, slot);
        json.beginObject();
        json.key("slot").value(uint64_t{i});
        json.key("pid").value(slot.pid);
        json.key("phase").value(statsPhaseName(slot.phase));
        json.key("shard").value(slot.shard);
        json.key("trials_started").value(slot.trialsStarted);
        json.key("trials_completed").value(slot.trialsCompleted);
        json.key("trials_per_sec").value(frame.trialsPerSec[i]);
        json.key("rss_bytes").value(slot.rssBytes);
        json.key("heartbeat_tick").value(slot.heartbeatTick);
        json.key("armed_failpoints").value(slot.armedFailpoints);
        json.key("update_epoch_ms").value(slot.updateEpochMs);
        json.key("publish_age_ms").value(age);
        json.key("stale").value(slot.phase == StatsPhase::Running &&
                                stale_ms != 0 && age >= stale_ms);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    json.finish();
    os << "\n";
}

bool
processAlive(uint64_t pid)
{
    if (pid == 0)
        return false;
    return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions options(argc, argv,
                             {"interval-ms", "stale-ms", "once", "json",
                              "version"});
    if (options.has("version")) {
        std::cout << toolVersionLine("fleet_top") << "\n";
        return 0;
    }
    if (options.positional().size() != 1)
        fatal("usage: fleet_top STATS.plane [--interval-ms=500] "
              "[--stale-ms=2000] [--once] [--json] [--version]");
    const std::string path = options.positional().front();
    const auto interval_ms = static_cast<uint64_t>(
        options.getPositiveInt("interval-ms", 500));
    const auto stale_ms = static_cast<uint64_t>(
        options.getNonNegativeInt("stale-ms", 2000));
    const bool once = options.has("once");
    if (options.has("json") && !once)
        fatal("fleet_top: --json requires --once (one machine-readable "
              "frame; stream by re-running)");

    Clock &clock = Clock::steady();
    // The plane file appears (and its magic lands, release-ordered,
    // last) a beat after the bench starts; in watch mode, wait for it.
    std::unique_ptr<StatsPlane> plane;
    std::string error;
    for (;;) {
        plane = StatsPlane::attach(path, &error);
        if (plane != nullptr)
            break;
        if (once)
            fatal("fleet_top: " + path + ": " + error);
        warn("fleet_top: " + path + ": " + error + "; retrying");
        clock.sleepFor(std::chrono::milliseconds(interval_ms));
    }

    // Rates need two samples: the first frame is the baseline.
    PlaneFrame previous = sample(*plane, nullptr);
    for (;;) {
        clock.sleepFor(std::chrono::milliseconds(interval_ms));
        PlaneFrame frame = sample(*plane, &previous);
        if (once) {
            if (options.has("json"))
                writeJsonFrame(frame, stale_ms, std::cout);
            else
                std::cout << renderTable(frame, stale_ms);
            return 0;
        }
        // Home + clear-to-end keeps a live terminal flicker-free;
        // harmless noise when redirected (use --once for capture).
        std::cout << "\x1b[H\x1b[J" << renderTable(frame, stale_ms)
                  << std::flush;
        bool all_terminal = !frame.slots.empty();
        for (const StatsSlotSample &slot : frame.slots)
            all_terminal = all_terminal && terminalPhase(slot.phase);
        if (all_terminal || !processAlive(frame.ownerPid)) {
            std::cout << "(campaign finished)\n";
            return 0;
        }
        previous = std::move(frame);
    }
}
