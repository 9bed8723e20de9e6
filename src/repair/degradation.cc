#include "repair/degradation.h"

#include "repair/page_retirement.h"
#include "tracing/tracer.h"

namespace relaxfault {

DegradationOutcome
degradeUncovered(DegradationPolicy policy, const FaultRecord &fault,
                 PageRetirement *retirement, bool failed_stop,
                 TraceSink *trace)
{
    switch (policy) {
      case DegradationPolicy::RetirePages:
        // Retirement unmaps the faulty frames but does not remap data:
        // the DRAM cells stay bad, they just stop being referenced.
        if (retirement != nullptr && retirement->tryRepair(fault)) {
            if (trace != nullptr)
                trace->emit(TraceKind::Degradation, kDegradeRetire, 1);
            return DegradationOutcome::Retired;
        }
        break;
      case DegradationPolicy::CountDue:
        break;
      case DegradationPolicy::FailStop:
        if (trace != nullptr)
            trace->emit(TraceKind::Degradation, kDegradeFailStop,
                        failed_stop ? 0 : 1);
        return failed_stop ? DegradationOutcome::AlreadyStopped
                           : DegradationOutcome::FailStopped;
    }
    if (trace != nullptr)
        trace->emit(TraceKind::Degradation, kDegradeDue, 0);
    return DegradationOutcome::CountedDue;
}

const char *
degradationPolicyName(DegradationPolicy policy)
{
    switch (policy) {
      case DegradationPolicy::RetirePages:
        return "retire";
      case DegradationPolicy::CountDue:
        return "due";
      case DegradationPolicy::FailStop:
        return "failstop";
    }
    return "due";
}

std::optional<DegradationPolicy>
parseDegradationPolicy(const std::string &name)
{
    if (name == "retire")
        return DegradationPolicy::RetirePages;
    if (name == "due")
        return DegradationPolicy::CountDue;
    if (name == "failstop")
        return DegradationPolicy::FailStop;
    return std::nullopt;
}

} // namespace relaxfault
