/**
 * @file
 * The LLC-line repair core FreeFault and RelaxFault share.
 *
 * Both lock one LLC line for every 64B unit a permanent fault covers,
 * under the same per-set way ceiling and line cap, and both repair a
 * fault all or nothing. They differ only in where a unit lands (paper
 * Sec. 3): a FreeFault unit is one physical block, placed by the normal
 * address map and set hash; a RelaxFault unit is 16 column blocks of
 * one device, placed by the repair-specific mapping. This base keeps
 * the line tracker, the pre-check, the row stream (DESIGN.md §16) and
 * the occupancy histograms; a mechanism supplies only its placement.
 */

#ifndef RELAXFAULT_REPAIR_LLC_LINE_REPAIR_H
#define RELAXFAULT_REPAIR_LLC_LINE_REPAIR_H

#include <optional>
#include <span>

#include "cache/cache_geometry.h"
#include "dram/geometry.h"
#include "repair/line_tracker.h"
#include "repair/repair_mechanism.h"

namespace relaxfault {

/** Whole-LLC-line locking repair; subclasses place the units. */
class LlcLineRepair : public RepairMechanism
{
  public:
    uint64_t usedLines() const override { return tracker_.usedLines(); }
    unsigned maxWaysUsed() const override
    {
        return tracker_.maxWaysUsed();
    }
    void reset() override { tracker_.reset(); }

    /**
     * Adds locked-ways-per-set and occupied-set detail, and flagged
     * banks when the mechanism keeps a faulty-bank table.
     */
    void publishTelemetry(MetricRegistry &registry) const override;

    /** Column blocks per unit: 1 for FreeFault, 16 for RelaxFault. */
    unsigned colsPerUnit() const { return colsPerUnit_; }

    /** Memory geometry of the node. */
    const DramGeometry &geometry() const { return dram_; }

    /**
     * LLC line of column unit @p unit of @p row in @p bank of
     * @p part's device (audit walks; tryRepair places rows without a
     * virtual call).
     */
    virtual RepairLine unitLine(const DevicePart &part, unsigned bank,
                                uint32_t row, uint16_t unit) const = 0;

    /**
     * The set a locked @p key belongs in, or nullopt when no unit of
     * the node has that key (a flipped key bit).
     */
    virtual std::optional<uint64_t> keySet(uint64_t key) const = 0;

    /** Width of a valid key (the injector flips bits in it). */
    virtual unsigned keyBits() const = 0;

    /** Faulty-bank table, a bank mask per DIMM; empty without one. */
    virtual std::span<const uint32_t> faultyBankTable() const
    {
        return {};
    }

    /** Line-allocation state (audit walks). */
    const RepairLineTracker &tracker() const { return tracker_; }

    /** Per-unit line deltas of a row (tests). */
    const RowFootprint &footprint() const { return tracker_.footprint(); }

    /**
     * Fault-injection backdoor: mutable tracker access for the metadata
     * fault injector. Never called by production paths.
     */
    RepairLineTracker &trackerForInjection() { return tracker_; }

  protected:
    /**
     * @param footprint The line deltas of a whole row's units; one-unit
     *        rows when the placement is not linear.
     */
    LlcLineRepair(const DramGeometry &dram, const CacheGeometry &llc,
                  const RepairBudget &budget, unsigned cols_per_unit,
                  RowFootprint footprint);

    /**
     * False when @p fault can never fit: a massive region, more units
     * than the line cap, or one cluster with more units than the LLC
     * can lock. O(clusters).
     */
    bool mayFit(const FaultRecord &fault) const;

    /**
     * Repair @p fault all or nothing: the pre-check, then every row
     * streamed into the tracker, then commit or roll back.
     * @p row_base(part, bank, row) is the line of the row's unit 0; it
     * is called once per row and is the mechanism's own placement, not
     * a virtual call.
     */
    template <typename RowBase>
    bool repairRows(const FaultRecord &fault, RowBase &&row_base)
    {
        return mayFit(fault) &&
               tracker_.finish(tracker_.stageFault(fault, dram_, row_base));
    }

    RepairLineTracker tracker_;

  private:
    DramGeometry dram_;
    unsigned colsPerUnit_;
};

} // namespace relaxfault

#endif // RELAXFAULT_REPAIR_LLC_LINE_REPAIR_H
