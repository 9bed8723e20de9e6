#include "repair/repair_mechanism.h"

#include "telemetry/metrics.h"
#include "tracing/tracer.h"

namespace relaxfault {

void
RepairMechanism::publishTelemetry(MetricRegistry &registry) const
{
    static constexpr const char *kMetrics[] = {"used_lines", "max_ways"};
    Log2Histogram *const *hist = histograms(registry, kMetrics);
    hist[0]->record(usedLines());
    hist[1]->record(maxWaysUsed());
}

Log2Histogram *const *
RepairMechanism::histograms(MetricRegistry &registry,
                            std::span<const char *const> metrics) const
{
    if (histogramRegistry_ != registry.id() ||
        histograms_.size() != metrics.size()) {
        const std::string prefix = "repair." + name() + ".";
        histograms_.clear();
        for (const char *metric : metrics)
            histograms_.push_back(&registry.histogram(prefix + metric));
        histogramRegistry_ = registry.id();
    }
    return histograms_.data();
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
