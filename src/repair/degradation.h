/**
 * @file
 * Graceful-degradation policy for the repair pipeline.
 *
 * The paper treats the repair budget as large enough in practice, but a
 * correlated fault burst (Beigi et al.'s field data) can exhaust the
 * way/capacity budget, and an audit can find the repair metadata itself
 * corrupted. This policy makes the resulting behavior explicit and
 * observable instead of silently dropping coverage:
 *
 *  - RetirePages: fall back to OS page retirement for the uncovered
 *    fault (capacity is lost, but accesses stop hitting bad cells);
 *  - CountDue: charge the uncovered fault to the DUE accounting and
 *    carry on (the default — matches the pre-policy behavior where an
 *    unrepaired fault simply stays exposed);
 *  - FailStop: halt the node at the first uncovered fault (the
 *    conservative HPC posture: better a clean crash than silent data
 *    corruption).
 */

#ifndef RELAXFAULT_REPAIR_DEGRADATION_H
#define RELAXFAULT_REPAIR_DEGRADATION_H

#include <cstdint>
#include <optional>
#include <string>

namespace relaxfault {

struct FaultRecord;
class PageRetirement;
class TraceSink;

/** What to do when repair cannot cover a fault (budget/audit failure). */
enum class DegradationPolicy : uint8_t
{
    RetirePages,  ///< Fall back to OS page retirement.
    CountDue,     ///< Count a DUE against the fault and continue.
    FailStop,     ///< Halt the node (fail-stop containment).
};

/** What one degradation step did with an uncovered fault. */
enum class DegradationOutcome : uint8_t
{
    Retired,         ///< Page retirement absorbed the fault.
    CountedDue,      ///< Left uncovered and counted as a DUE.
    FailStopped,     ///< The node's first fail-stop: it halts now.
    AlreadyStopped,  ///< Fail-stop again on a halted node: no new count.
};

/**
 * Apply @p policy to @p fault after a failed repair attempt: try
 * @p retirement under RetirePages (falling back to a DUE when it is
 * null or full), count a DUE under CountDue, halt under FailStop
 * (@p failed_stop says whether the node already halted). Emits the
 * matching `Degradation` trace event into @p trace when non-null. The
 * caller keeps its own counters and its own halted flag.
 */
DegradationOutcome degradeUncovered(DegradationPolicy policy,
                                    const FaultRecord &fault,
                                    PageRetirement *retirement,
                                    bool failed_stop, TraceSink *trace);

/** Flag spelling of a policy (`--degrade=` value). */
const char *degradationPolicyName(DegradationPolicy policy);

/** Parse a `--degrade=` value ("retire" | "due" | "failstop"). */
std::optional<DegradationPolicy>
parseDegradationPolicy(const std::string &name);

} // namespace relaxfault

#endif // RELAXFAULT_REPAIR_DEGRADATION_H
