#include "tracing/trace_event.h"

#include "telemetry/profiler.h"

namespace relaxfault {

namespace {

// Filter-spec tokens, indexed by TraceKind. Short forms so a
// `--trace-filter=fault,repair,verdict` spec stays typeable.
constexpr const char *kKindNames[kTraceKindCount] = {
    "fault", "repair", "scrub", "budget", "degrade",
    "verdict", "replace", "span", "heartbeat",
};

} // namespace

const char *
traceKindName(TraceKind kind)
{
    const auto index = static_cast<unsigned>(kind);
    return index < kTraceKindCount ? kKindNames[index] : "?";
}

std::optional<TraceKind>
parseTraceKind(std::string_view name)
{
    for (unsigned i = 0; i < kTraceKindCount; ++i)
        if (name == kKindNames[i])
            return static_cast<TraceKind>(i);
    return std::nullopt;
}

std::optional<uint32_t>
parseTraceFilter(std::string_view spec)
{
    if (spec.empty() || spec == "all")
        return kTraceAllKinds;
    uint32_t mask = 0;
    size_t start = 0;
    while (start <= spec.size()) {
        size_t comma = spec.find(',', start);
        if (comma == std::string_view::npos)
            comma = spec.size();
        const std::string_view token = spec.substr(start, comma - start);
        if (!token.empty()) {
            const auto kind = parseTraceKind(token);
            if (!kind)
                return std::nullopt;
            mask |= traceKindBit(*kind);
        }
        start = comma + 1;
    }
    if (mask == 0)
        return std::nullopt;
    return mask;
}

std::string
traceFilterSpec(uint32_t mask)
{
    if ((mask & kTraceAllKinds) == kTraceAllKinds)
        return "all";
    std::string spec;
    for (unsigned i = 0; i < kTraceKindCount; ++i) {
        if (!(mask & (1u << i)))
            continue;
        if (!spec.empty())
            spec += ',';
        spec += kKindNames[i];
    }
    return spec;
}

std::string
traceEventName(TraceKind kind, uint8_t sub)
{
    switch (kind) {
    case TraceKind::FaultArrival:
        switch (sub) {
        case kFaultSampled: return "fault_arrival";
        case kFaultInferred: return "fault_inferred";
        case kFaultReported: return "fault_reported";
        default: break;
        }
        break;
    case TraceKind::RepairDecision:
        return sub == kRepairOk ? "repair_ok" : "repair_failed";
    case TraceKind::ScrubHit:
        return sub == kScrubUncorrectable ? "scrub_uncorrectable"
                                          : "scrub_corrected";
    case TraceKind::BudgetExhausted:
        return "budget_exhausted";
    case TraceKind::Degradation:
        switch (sub) {
        case kDegradeRetire: return "degrade_retire";
        case kDegradeDue: return "degrade_due";
        case kDegradeFailStop: return "degrade_failstop";
        default: break;
        }
        break;
    case TraceKind::Verdict:
        return sub == kVerdictSdc ? "verdict_sdc" : "verdict_due";
    case TraceKind::Replacement:
        return "dimm_replacement";
    case TraceKind::Span:
        if (sub < kPhaseCount)
            return phaseName(static_cast<Phase>(sub));
        break;
    case TraceKind::Heartbeat:
        switch (sub) {
        case kHeartbeatStart: return "shard_start";
        case kHeartbeatCommit: return "shard_commit";
        case kHeartbeatResumed: return "shard_resumed";
        default: break;
        }
        break;
    }
    return std::string(traceKindName(kind)) + "_" + std::to_string(sub);
}

TraceMechanismId
traceMechanismId(std::string_view name)
{
    // Match on prefixes: mechanism names carry configuration suffixes
    // ("RelaxFault-4way", "FreeFault-1way").
    if (name.substr(0, 10) == "RelaxFault")
        return TraceMechanismId::RelaxFault;
    if (name.substr(0, 9) == "FreeFault")
        return TraceMechanismId::FreeFault;
    if (name.substr(0, 3) == "PPR")
        return TraceMechanismId::Ppr;
    if (name.substr(0, 4) == "Page")
        return TraceMechanismId::PageRetirement;
    if (name.substr(0, 2) == "No")
        return TraceMechanismId::NoRepair;
    if (name.substr(0, 6) == "Device")
        return TraceMechanismId::DeviceSparing;
    return TraceMechanismId::Unknown;
}

const char *
traceMechanismName(TraceMechanismId id)
{
    switch (id) {
    case TraceMechanismId::RelaxFault: return "RelaxFault";
    case TraceMechanismId::FreeFault: return "FreeFault";
    case TraceMechanismId::Ppr: return "PPR";
    case TraceMechanismId::PageRetirement: return "PageRetirement";
    case TraceMechanismId::NoRepair: return "NoRepair";
    case TraceMechanismId::DeviceSparing: return "DeviceSparing";
    case TraceMechanismId::Unknown: break;
    }
    return "unknown";
}

} // namespace relaxfault
