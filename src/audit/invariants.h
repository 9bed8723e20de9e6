/**
 * @file
 * Runtime invariant auditing of the repair pipeline.
 *
 * The paper assumes the repair structures themselves are protected
 * ("repair metadata is small enough to protect cheaply", Sec. 3); this
 * auditor turns that assumption into a checked, observable property. At
 * a configurable cadence during lifetime simulation — or on demand in
 * tests — it walks controller / repair / cache bookkeeping and verifies
 * the structural invariants the correctness argument rests on:
 *
 *  - budget bounds: per-set locked ways never exceed the way ceiling
 *    (the <=4-ways bound of the paper), total lines never exceed the
 *    capacity cap, and the per-set load counters sum to the line count;
 *  - key decoding: every allocated repair key decodes to a unit inside
 *    the DRAM geometry — for RelaxFault one that round-trips through
 *    locate(invert(key)) — and the per-set loads recompute from the
 *    decoded sets (a flipped key bit lands outside the valid image or
 *    in the wrong set);
 *  - coverage agreement: the units of every fault recorded as repaired
 *    are allocated, every allocated key is owned by some repaired fault
 *    (no orphans), and the faulty-bank table agrees in both directions
 *    with the repaired faults' banks;
 *  - controller consistency: the remap data store only holds lines the
 *    repair engine allocated, and the fault-log accounting is coherent;
 *  - scrubber bounds: the observation log respects its configured cap.
 *
 * Violations are *reported*, never asserted: the auditor is const over
 * all simulation state, consumes no RNG, and feeds `audit.checks` /
 * `audit.violations` telemetry counters — so an audit-enabled run is
 * bit-identical to an audit-off run in every simulation result.
 */

#ifndef RELAXFAULT_AUDIT_INVARIANTS_H
#define RELAXFAULT_AUDIT_INVARIANTS_H

#include <cstdint>
#include <string>
#include <vector>

#include "faults/fault.h"

namespace relaxfault {

class RepairMechanism;
class RelaxFaultController;
class FaultScrubber;

/** One observed invariant violation. */
struct AuditViolation
{
    std::string invariant;  ///< Stable invariant name (e.g. "ways_bound").
    std::string detail;     ///< Human-readable specifics.
};

/** Outcome of one audit pass (or the merge of several). */
struct AuditReport
{
    uint64_t checks = 0;      ///< Elementary assertions evaluated.
    uint64_t violations = 0;  ///< Assertions that failed.
    std::vector<AuditViolation> details;  ///< First N failures, capped.

    bool clean() const { return violations == 0; }
    void merge(const AuditReport &other);
};

/** Structural-invariant walker over repair/controller/scrubber state. */
class InvariantAuditor
{
  public:
    struct Config
    {
        /** Violation details kept per report (counters are exact). */
        size_t maxDetails = 16;
    };

    InvariantAuditor() = default;
    explicit InvariantAuditor(Config config) : config_(config) {}

    /**
     * Audit a repair mechanism mid-simulation. `covered[i]` means
     * faults[i] is recorded as repaired *by this mechanism* (a fault
     * degraded to page retirement is not the mechanism's to cover).
     * FreeFault and RelaxFault get one LLC-line walk: bounds, load
     * accounting, key decoding, coverage, and RelaxFault's faulty-bank
     * table. Mechanisms without LLC-line state (PPR, sparing, page
     * retirement) get an empty report. With @p strict_attribution
     * false, the orphan-direction checks (every allocated line /
     * flagged bank is owned by a listed fault) are skipped — used when
     * the fault list is known to be incomplete, e.g. a controller whose
     * scrubber repaired unregistered damage.
     */
    AuditReport auditMechanism(const RepairMechanism &mechanism,
                               const std::vector<FaultRecord> &faults,
                               const std::vector<bool> &covered,
                               bool strict_attribution = true) const;

    /**
     * Audit a controller: repair-engine invariants against its tracked
     * fault set, remap-store/tracker agreement, and stats coherence.
     */
    AuditReport auditController(const RelaxFaultController &controller)
        const;

    /** Audit a scrubber's observation-log bounds. */
    AuditReport auditScrubber(const FaultScrubber &scrubber) const;

  private:
    /** Count one assertion; record a capped detail when it fails. */
    void check(AuditReport &report, bool ok, const char *invariant,
               const std::string &detail) const;

    Config config_;
};

} // namespace relaxfault

#endif // RELAXFAULT_AUDIT_INVARIANTS_H
