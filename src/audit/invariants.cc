#include "audit/invariants.h"

#include <unordered_set>

#include "core/relaxfault_controller.h"
#include "core/scrubber.h"
#include "repair/relaxfault_repair.h"

namespace relaxfault {

namespace {

/** Per-DIMM bank mask implied by the covered faults. */
std::vector<uint32_t>
expectedBankMasks(size_t dimms, const std::vector<FaultRecord> &faults,
                  const std::vector<bool> &covered)
{
    std::vector<uint32_t> masks(dimms, 0);
    for (size_t i = 0; i < faults.size(); ++i) {
        if (i >= covered.size() || !covered[i] || !faults[i].permanent())
            continue;
        for (const auto &part : faults[i].parts) {
            for (const auto &cluster : part.region.clusters())
                masks[part.dimm] |= cluster.bankMask;
        }
    }
    return masks;
}

} // namespace

void
AuditReport::merge(const AuditReport &other)
{
    checks += other.checks;
    violations += other.violations;
    details.insert(details.end(), other.details.begin(),
                   other.details.end());
}

void
InvariantAuditor::check(AuditReport &report, bool ok,
                        const char *invariant,
                        const std::string &detail) const
{
    ++report.checks;
    if (ok)
        return;
    ++report.violations;
    if (report.details.size() < config_.maxDetails)
        report.details.push_back({invariant, detail});
}

AuditReport
InvariantAuditor::auditMechanism(const RepairMechanism &mechanism,
                                 const std::vector<FaultRecord> &faults,
                                 const std::vector<bool> &covered,
                                 bool strict_attribution) const
{
    // Mechanisms without LLC-line state (PPR, sparing, page retirement)
    // keep trivially bounded bookkeeping; nothing structural to walk.
    const auto *repair = dynamic_cast<const LlcLineRepair *>(&mechanism);
    if (repair == nullptr)
        return AuditReport{};

    AuditReport report;
    const RepairLineTracker &tracker = repair->tracker();
    const DramGeometry &geometry = repair->geometry();
    const RepairBudget &budget = tracker.budget();
    const uint64_t sets = tracker.sets();
    const std::vector<uint64_t> allocated = tracker.allocatedKeys();

    // -- Budget bounds (the paper's <=N-locked-ways-per-set property). --
    check(report, tracker.usedLines() <= budget.maxLines, "line_budget",
          "usedLines " + std::to_string(tracker.usedLines()) +
              " > maxLines " + std::to_string(budget.maxLines));
    check(report, tracker.maxWaysUsed() <= budget.maxWaysPerSet,
          "ways_bound",
          "maxWaysUsed " + std::to_string(tracker.maxWaysUsed()) +
              " > maxWaysPerSet " + std::to_string(budget.maxWaysPerSet));
    uint64_t over_sets = 0;
    uint64_t over_example = 0;
    uint64_t load_sum = 0;
    for (uint64_t set = 0; set < sets; ++set) {
        const unsigned load = tracker.setLoad(set);
        load_sum += load;
        if (load > budget.maxWaysPerSet) {
            if (over_sets == 0)
                over_example = set;
            ++over_sets;
        }
    }
    check(report, over_sets == 0, "ways_bound",
          std::to_string(over_sets) + " set(s) over the way ceiling "
              "(first: set " + std::to_string(over_example) + ")");
    check(report, load_sum == tracker.usedLines(), "load_accounting",
          "per-set loads sum to " + std::to_string(load_sum) +
              " but usedLines is " +
              std::to_string(tracker.usedLines()));
    check(report,
          allocated.size() == tracker.usedLines(),
          "load_accounting",
          std::to_string(allocated.size()) +
              " allocated keys vs usedLines " +
              std::to_string(tracker.usedLines()));

    // -- Key decoding: every key decodes to a unit of the node (for
    //    RelaxFault, one that locates back to it), whose set gives the
    //    recomputed loads. A flipped key bit either leaves the valid
    //    image (caught here), moves a load (caught by the recompute) or
    //    collides with the coverage walk below. --
    std::vector<uint16_t> recomputed(sets, 0);
    uint64_t bad_keys = 0;
    uint64_t bad_example = 0;
    for (const uint64_t key : allocated) {
        if (const std::optional<uint64_t> set = repair->keySet(key)) {
            ++recomputed[*set];
            continue;
        }
        if (bad_keys == 0)
            bad_example = key;
        ++bad_keys;
    }
    check(report, bad_keys == 0, "key_decode",
          std::to_string(bad_keys) +
              " key(s) decode to no unit of the node (first: key " +
              std::to_string(bad_example) + ")");
    uint64_t mismatched_loads = 0;
    uint64_t mismatch_example = 0;
    for (uint64_t set = 0; set < sets; ++set) {
        if (recomputed[set] != tracker.setLoad(set)) {
            if (mismatched_loads == 0)
                mismatch_example = set;
            ++mismatched_loads;
        }
    }
    check(report, mismatched_loads == 0, "load_recompute",
          std::to_string(mismatched_loads) +
              " set load counter(s) disagree with the allocated keys "
              "(first: set " + std::to_string(mismatch_example) + ")");

    // -- Coverage agreement: repaired faults' units are allocated, and
    //    every allocated key belongs to a repaired fault. --
    std::unordered_set<uint64_t> expected;
    for (size_t i = 0; i < faults.size(); ++i) {
        if (i >= covered.size() || !covered[i] || !faults[i].permanent())
            continue;
        for (const auto &part : faults[i].parts) {
            part.region.forEachUnit(
                geometry, repair->colsPerUnit(),
                [&](unsigned bank, uint32_t row, uint16_t unit) {
                    expected.insert(
                        repair->unitLine(part, bank, row, unit).key);
                });
        }
    }
    uint64_t missing = 0;
    for (const uint64_t key : expected)
        missing += tracker.contains(key) ? 0 : 1;
    check(report, missing == 0, "coverage",
          std::to_string(missing) +
              " unit(s) of repaired faults have no allocated line");
    if (strict_attribution) {
        uint64_t orphans = 0;
        for (const uint64_t key : allocated)
            orphans += expected.count(key) != 0 ? 0 : 1;
        check(report, orphans == 0, "orphan_lines",
              std::to_string(orphans) +
                  " allocated line(s) belong to no repaired fault");
    }

    // -- Faulty-bank table (RelaxFault), both directions. --
    const std::span<const uint32_t> table = repair->faultyBankTable();
    if (table.empty())
        return report;
    const std::vector<uint32_t> masks =
        expectedBankMasks(table.size(), faults, covered);
    uint64_t table_missing = 0;
    uint64_t table_spurious = 0;
    for (size_t dimm = 0; dimm < table.size(); ++dimm) {
        table_missing += (masks[dimm] & ~table[dimm]) != 0 ? 1 : 0;
        table_spurious += (table[dimm] & ~masks[dimm]) != 0 ? 1 : 0;
    }
    check(report, table_missing == 0, "bank_table",
          std::to_string(table_missing) +
              " DIMM(s) miss faulty-bank bits for repaired faults");
    // A spurious bit is a performance hazard (filter says "maybe" for a
    // healthy bank), not a correctness one — still an invariant breach:
    // production code only ever ORs repaired faults' banks in.
    if (strict_attribution) {
        check(report, table_spurious == 0, "bank_table",
              std::to_string(table_spurious) +
                  " DIMM(s) flag banks no repaired fault touches");
    }
    return report;
}

AuditReport
InvariantAuditor::auditController(
    const RelaxFaultController &controller) const
{
    const std::vector<FaultRecord> &faults =
        controller.faults().faults();
    std::vector<bool> covered(faults.size(), false);
    for (size_t i = 0; i < faults.size(); ++i)
        covered[i] = controller.faults().repaired(i);

    // The controller's tracked fault set may omit scrubber-discovered
    // repairs (requestRepair does not register a new fault), so the
    // orphan-direction checks are not invariants here.
    AuditReport report = auditMechanism(controller.repair(), faults,
                                        covered, false);

    // Remap data store: only allocated lines may hold remap data.
    const RepairLineTracker &tracker = controller.repair().tracker();
    uint64_t unallocated = 0;
    for (const uint64_t key : controller.remapStoreKeys())
        unallocated += tracker.contains(key) ? 0 : 1;
    check(report, unallocated == 0, "remap_store",
          std::to_string(unallocated) +
              " remap-store line(s) were never allocated");

    const ControllerStats &stats = controller.stats();
    check(report, faults.size() <= stats.faultsReported,
          "fault_accounting",
          std::to_string(faults.size()) + " tracked faults but only " +
              std::to_string(stats.faultsReported) + " reported");
    return report;
}

AuditReport
InvariantAuditor::auditScrubber(const FaultScrubber &scrubber) const
{
    AuditReport report;
    const size_t cap = scrubber.config().maxObservations;
    check(report, cap == 0 || scrubber.observationCount() <= cap,
          "scrub_queue_bound",
          std::to_string(scrubber.observationCount()) +
              " observations exceed the configured cap of " +
              std::to_string(cap));
    return report;
}

} // namespace relaxfault
