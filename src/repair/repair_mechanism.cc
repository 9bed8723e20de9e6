#include "repair/repair_mechanism.h"

#include "telemetry/metrics.h"
#include "tracing/tracer.h"

namespace relaxfault {

void
RepairMechanism::publishTelemetry(MetricRegistry &registry) const
{
    const std::string prefix = "repair." + name();
    registry.histogram(prefix + ".used_lines").record(usedLines());
    registry.histogram(prefix + ".max_ways").record(maxWaysUsed());
}

bool
RepairMechanism::tracedRepair(const FaultRecord &fault, TraceSink *trace)
{
    const PhaseScope scope(Phase::RepairAttempt, trace);
    if (trace == nullptr)
        return tryRepair(fault);
    const uint64_t lines_before = usedLines();
    const bool ok = tryRepair(fault);
    const uint64_t lines_after = usedLines();
    const auto mech =
        static_cast<uint64_t>(traceMechanismId(name()));
    const uint64_t lines_delta =
        ok && lines_after > lines_before ? lines_after - lines_before : 0;
    trace->emit(TraceKind::RepairDecision,
                ok ? kRepairOk : kRepairFailed, lines_after,
                maxWaysUsed(), (mech << 32) | lines_delta);
    if (!ok)
        trace->emit(TraceKind::BudgetExhausted, 0, lines_after,
                    maxWaysUsed());
    return ok;
}

} // namespace relaxfault
