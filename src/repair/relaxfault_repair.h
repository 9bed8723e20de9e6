/**
 * @file
 * The RelaxFault repair mechanism (paper Sec. 3).
 *
 * Faulty memory is remapped into LLC lines through the coalescing
 * RelaxFaultMap: each locked line holds 64B of a *single device's* data,
 * so a fault confined to one device consumes ~16x fewer lines than
 * FreeFault's one-line-per-64B-physical-block. The mechanism also keeps
 * the faulty-bank table (one bit per DIMM x bank) that filters LLC misses
 * in hardware, and reports the metadata footprint of Table 1.
 */

#ifndef RELAXFAULT_REPAIR_RELAXFAULT_REPAIR_H
#define RELAXFAULT_REPAIR_RELAXFAULT_REPAIR_H

#include <vector>

#include "cache/cache_geometry.h"
#include "repair/line_tracker.h"
#include "repair/relaxfault_map.h"
#include "repair/repair_mechanism.h"

namespace relaxfault {

/** LLC-coalescing repair remapper. */
class RelaxFaultRepair : public RepairMechanism
{
  public:
    /**
     * @param dram Node memory geometry.
     * @param llc LLC geometry (8MiB/16-way/64B in the paper).
     * @param budget Way and capacity ceilings.
     * @param xor_fold Fold the repair tag into the set index (Fig. 8).
     */
    RelaxFaultRepair(const DramGeometry &dram, const CacheGeometry &llc,
                     const RepairBudget &budget, bool xor_fold = true);

    /** Explicit index-mode constructor (ablation studies). */
    RelaxFaultRepair(const DramGeometry &dram, const CacheGeometry &llc,
                     const RepairBudget &budget,
                     RelaxFaultMap::IndexMode mode);

    std::string name() const override;
    bool tryRepair(const FaultRecord &fault) override;
    uint64_t usedLines() const override { return tracker_.usedLines(); }
    unsigned maxWaysUsed() const override
    {
        return tracker_.maxWaysUsed();
    }
    void reset() override;

    /** Adds locked-ways-per-set, occupied-set, and bank-filter detail. */
    void publishTelemetry(MetricRegistry &registry) const override;

    /** Faulty-bank table bit: any repaired region in (dimm, bank)? */
    bool bankFlagged(unsigned dimm, unsigned bank) const;

    /** Whether a specific remap unit is locked in the LLC. */
    bool unitRepaired(const RemapUnit &unit) const;

    const RelaxFaultMap &map() const { return map_; }

    /** Line-allocation state (audit walks). */
    const RepairLineTracker &tracker() const { return tracker_; }

    /** Faulty-bank table bits of one DIMM (audit walks). */
    uint32_t faultyBankMask(unsigned dimm) const
    {
        return faultyBankTable_[dimm];
    }

    /**
     * Per-column-group line deltas; one-unit rows for HashOnly, whose
     * placement is not linear (tests).
     */
    const RowFootprint &footprint() const { return tracker_.footprint(); }

    /**
     * Fault-injection backdoor: mutable tracker access for the metadata
     * fault injector. Never called by production paths.
     */
    RepairLineTracker &trackerForInjection() { return tracker_; }

    /**
     * Fault-injection backdoor: flip one faulty-bank-table bit,
     * modeling an SEU in the filter SRAM. Never called by production
     * paths.
     */
    void corruptBankTableBit(unsigned dimm, unsigned bank)
    {
        faultyBankTable_[dimm] ^= 1u << bank;
    }

  private:
    /** LLC line (set, key) of one remap unit. */
    RepairLine lineOf(const RemapUnit &unit) const
    {
        const RemapLocation loc = map_.locate(unit);
        return {loc.set, loc.key(map_.setBits())};
    }

    DramGeometry dram_;
    RelaxFaultMap map_;
    /**
     * Keyed by per-column-group line deltas, (g, g): the structured
     * modes put the group in the low set bits, and the key carries the
     * set.
     */
    RepairLineTracker tracker_;
    std::vector<uint32_t> faultyBankTable_;  ///< Per DIMM, bit per bank.
};

} // namespace relaxfault

#endif // RELAXFAULT_REPAIR_RELAXFAULT_REPAIR_H
