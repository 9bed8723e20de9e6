/**
 * @file
 * Causal trace-event taxonomy for the repair pipeline.
 *
 * A TraceEvent is one typed observation on a trial's timeline: a fault
 * arriving, a repair mechanism deciding, a scrubber noticing damage, a
 * budget running out, a degradation action, a DUE/SDC verdict, a phase
 * span, or a campaign heartbeat. Events carry the trial id, the
 * simulated-time timestamp (mission hours), and a causal parent id, so
 * a forensic query can walk from an end-of-mission DUE count back to
 * the exact fault and decision chain that produced it.
 *
 * Naming note: this is the *repair-pipeline* event trace. The DRAM
 * *access* trace the performance simulator records/replays is a
 * different artifact — see `src/perf/trace.h`.
 */

#ifndef RELAXFAULT_TRACING_TRACE_EVENT_H
#define RELAXFAULT_TRACING_TRACE_EVENT_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace relaxfault {

/** Typed trace events of the repair pipeline. */
enum class TraceKind : uint8_t
{
    FaultArrival,    ///< A fault entered the pipeline (see subkinds).
    RepairDecision,  ///< A mechanism accepted or rejected a fault.
    ScrubHit,        ///< The scrubber observed a damaged line.
    BudgetExhausted, ///< Repair failed for lack of ways/capacity.
    Degradation,     ///< Policy action after a failed repair.
    Verdict,         ///< DUE event or SDC expectation charged.
    Replacement,     ///< A DIMM was swapped out.
    Span,            ///< RAII phase timing (wall-clock duration).
    Heartbeat,       ///< Campaign shard live-status record.
};

/** Number of distinct trace kinds (filter bitmask width). */
constexpr unsigned kTraceKindCount = 9;

/** Filter bit of a kind. */
constexpr uint32_t
traceKindBit(TraceKind kind)
{
    return 1u << static_cast<unsigned>(kind);
}

/** Bitmask accepting every kind. */
constexpr uint32_t kTraceAllKinds = (1u << kTraceKindCount) - 1;

/** Stable lower-case kind name (the exported "cat" field). */
const char *traceKindName(TraceKind kind);

/** Parse a kind name back (export loader); nullopt if unknown. */
std::optional<TraceKind> parseTraceKind(std::string_view name);

/**
 * Parse a `--trace-filter=` spec: comma-separated kind names (e.g.
 * "fault,repair,verdict"), or "all". Returns nullopt on an unknown
 * name so callers can report the bad token.
 */
std::optional<uint32_t> parseTraceFilter(std::string_view spec);

/** Spell a filter mask back as a spec string ("all" when complete). */
std::string traceFilterSpec(uint32_t mask);

// Subkind values (the `sub` field), per kind.
// FaultArrival:
constexpr uint8_t kFaultSampled = 0;   ///< Monte Carlo sampler.
constexpr uint8_t kFaultInferred = 1;  ///< Scrubber inference.
constexpr uint8_t kFaultReported = 2;  ///< Controller reportFault.
// RepairDecision:
constexpr uint8_t kRepairFailed = 0;
constexpr uint8_t kRepairOk = 1;
// ScrubHit:
constexpr uint8_t kScrubCorrected = 0;
constexpr uint8_t kScrubUncorrectable = 1;
// Degradation (matches DegradationPolicy order):
constexpr uint8_t kDegradeRetire = 0;
constexpr uint8_t kDegradeDue = 1;
constexpr uint8_t kDegradeFailStop = 2;
// Verdict:
constexpr uint8_t kVerdictDue = 0;
constexpr uint8_t kVerdictSdc = 1;
// Span: the timed Phase (telemetry/profiler.h); only the first four
// phases ever reach a trace.
// Heartbeat:
constexpr uint8_t kHeartbeatStart = 0;
constexpr uint8_t kHeartbeatCommit = 1;
constexpr uint8_t kHeartbeatResumed = 2;

/**
 * Human/Perfetto display name of (kind, sub) — e.g. "fault_arrival",
 * "repair_ok", "degrade_failstop", or the phase name for Span events.
 */
std::string traceEventName(TraceKind kind, uint8_t sub);

/**
 * One recorded event. 64 bytes, POD, no heap — the enabled-path record
 * cost is a handful of stores into a ring slot.
 *
 * Payload conventions (a/b/c), by kind:
 *  - FaultArrival: a=FaultMode, b=permanence (0 transient, 1 hard,
 *    2 intermittent), c=(partCount<<16)|(dimm<<8)|device of part 0.
 *  - RepairDecision: a=usedLines after, b=maxWaysUsed after,
 *    c=(mechanismId<<32)|linesDelta (the coalescing outcome: LLC lines
 *    this fault cost; 0 on failure).
 *  - ScrubHit: a=(bank<<48)|(row<<16)|colBlock, b=corrected device
 *    mask, c=dimm.
 *  - BudgetExhausted: a=usedLines, b=maxWaysUsed at the failure.
 *  - Degradation: a=1 if the fallback absorbed the fault (retirement
 *    succeeded), else 0.
 *  - Verdict: DUE: b=#DIMMs hit; SDC: a=expectation in micro-units.
 *  - Replacement: a=dimm index.
 *  - Span: a=wall-clock duration in microseconds.
 *  - Heartbeat: a=trial count in shard, b=shard index, c=duration ms
 *    (commit) / 0 (start).
 */
struct TraceEvent
{
    /**
     * Unique id within (unit, trial): `(trial+1)<<24 | seq` for trial
     * events; control events (heartbeats) set bit 62 instead. 0 is
     * reserved for "no event" (parent of a root).
     */
    uint64_t id = 0;
    uint64_t parent = 0;       ///< Causal parent id; 0 = root.
    uint64_t trial = 0;        ///< Global trial index.
    uint32_t node = 0;         ///< Node within the trial's system.
    uint16_t unit = 0;         ///< Experiment unit (tracer-registered).
    TraceKind kind = TraceKind::FaultArrival;
    uint8_t sub = 0;           ///< Subkind (see constants above).
    double timeHours = 0.0;    ///< Simulated mission time.
    uint64_t a = 0, b = 0, c = 0;  ///< Kind-specific payload.
};

static_assert(sizeof(TraceEvent) == 64, "one cache line per event");

/** Mechanism ids packed into RepairDecision payload c (bits 32+). */
enum class TraceMechanismId : uint8_t
{
    Unknown = 0,
    RelaxFault = 1,
    FreeFault = 2,
    Ppr = 3,
    PageRetirement = 4,
    NoRepair = 5,
    DeviceSparing = 6,
};

/** Mechanism id from a RepairMechanism::name() string. */
TraceMechanismId traceMechanismId(std::string_view name);

/** Mechanism-id display name. */
const char *traceMechanismName(TraceMechanismId id);

} // namespace relaxfault

#endif // RELAXFAULT_TRACING_TRACE_EVENT_H
