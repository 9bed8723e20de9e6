/**
 * @file
 * Common interface of the fine-grained repair mechanisms the paper
 * compares: RelaxFault, FreeFault, and DDR4 post-package repair (PPR).
 *
 * A mechanism is stateful per node: faults arrive one at a time over the
 * mission, and each attempt either fully repairs the fault (every cell it
 * disables is remapped) or leaves the mechanism's state unchanged. The
 * paper only considers complete repair — a partially repaired fault still
 * produces errors — so tryRepair is all-or-nothing.
 */

#ifndef RELAXFAULT_REPAIR_REPAIR_MECHANISM_H
#define RELAXFAULT_REPAIR_REPAIR_MECHANISM_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "faults/fault.h"

namespace relaxfault {

class Log2Histogram;
class MetricRegistry;
class TraceSink;

/** Resource limits for LLC-based repair (paper: 1/4/16 ways). */
struct RepairBudget
{
    /** Locked-way ceiling in any single LLC set. */
    unsigned maxWaysPerSet = 1;
    /** Total LLC lines available for repair (capacity cap / 64B). */
    uint64_t maxLines = 32 * 1024;  ///< 2MiB of a 64B-line LLC.
};

/** Stateful per-node repair engine. */
class RepairMechanism
{
  public:
    virtual ~RepairMechanism() = default;

    /** Mechanism name for reports. */
    virtual std::string name() const = 0;

    /**
     * Attempt to fully repair @p fault. Returns true and commits resource
     * allocations on success; returns false and leaves state untouched
     * if the fault does not fit the mechanism's resources.
     */
    virtual bool tryRepair(const FaultRecord &fault) = 0;

    /** LLC lines locked for repair (0 for PPR). */
    virtual uint64_t usedLines() const = 0;

    /** Highest per-set way usage so far (0 for PPR). */
    virtual unsigned maxWaysUsed() const = 0;

    /** Release all repair resources (e.g., after DIMM replacement). */
    virtual void reset() = 0;

    /**
     * Record this mechanism's current occupancy into @p registry under
     * `repair.<name>.*` histograms (one sample per call; callers invoke
     * it once per simulated node/trial to build a distribution). The
     * base records `used_lines` and `max_ways`; LLC-based mechanisms
     * add per-set load and bank-filter detail.
     */
    virtual void publishTelemetry(MetricRegistry &registry) const;

    /**
     * tryRepair plus causal tracing: records a RepairDecision event
     * (occupancy after the attempt, the coalescing outcome in LLC
     * lines, and the mechanism id) and, on failure, a BudgetExhausted
     * event, both timed by a RepairAttempt span. A null @p trace is
     * exactly tryRepair — one branch, no other cost — so the engines
     * call this unconditionally.
     */
    bool tracedRepair(const FaultRecord &fault, TraceSink *trace);

    /** LLC bytes locked for repair. */
    uint64_t usedBytes() const { return usedLines() * 64; }

  protected:
    /**
     * The `repair.<name>.<metric>` histogram of @p registry for each of
     * @p metrics, in order, looked up by name only when @p registry is
     * not the one of the previous call. Every call on one mechanism
     * must pass the same @p metrics, and calls on one mechanism must
     * not overlap.
     */
    Log2Histogram *const *
    histograms(MetricRegistry &registry,
               std::span<const char *const> metrics) const;

  private:
    /** MetricRegistry::id() of histograms_; 0 before the first call. */
    mutable uint64_t histogramRegistry_ = 0;
    mutable std::vector<Log2Histogram *> histograms_;
};

} // namespace relaxfault

#endif // RELAXFAULT_REPAIR_REPAIR_MECHANISM_H
