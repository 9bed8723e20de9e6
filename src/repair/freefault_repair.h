/**
 * @file
 * The FreeFault baseline (Kim & Erez, HPCA'15).
 *
 * FreeFault locks one whole LLC line for every 64B physical block that
 * contains any faulty bit, using the *normal* physical-address cache
 * mapping. Because the performance-oriented DRAM mapping spreads one
 * device's row/column over many physical blocks, FreeFault needs up to
 * 16x the lines RelaxFault needs and is at the mercy of the LLC's set
 * indexing: without XOR hashing a column fault piles every line into one
 * set (Fig. 8).
 */

#ifndef RELAXFAULT_REPAIR_FREEFAULT_REPAIR_H
#define RELAXFAULT_REPAIR_FREEFAULT_REPAIR_H

#include "cache/cache_geometry.h"
#include "dram/address_map.h"
#include "repair/line_tracker.h"
#include "repair/repair_mechanism.h"

namespace relaxfault {

/** Whole-cacheline locking repair using the normal LLC mapping. */
class FreeFaultRepair : public RepairMechanism
{
  public:
    /**
     * @param map Physical-address <-> DRAM translation of the node.
     * @param llc LLC geometry.
     * @param budget Way and capacity ceilings.
     * @param xor_hash LLC set-index hashing (Fig. 8 studies both).
     */
    FreeFaultRepair(const DramAddressMap &map, const CacheGeometry &llc,
                    const RepairBudget &budget, bool xor_hash = true);

    std::string name() const override;
    bool tryRepair(const FaultRecord &fault) override;
    uint64_t usedLines() const override { return tracker_.usedLines(); }
    unsigned maxWaysUsed() const override
    {
        return tracker_.maxWaysUsed();
    }
    void reset() override;

    /** Adds locked-ways-per-set and occupied-set detail. */
    void publishTelemetry(MetricRegistry &registry) const override;

    /** Whether the physical line holding @p pa is locked for repair. */
    bool lineRepaired(uint64_t pa) const;

    /** Line-allocation state (audit walks). */
    const RepairLineTracker &tracker() const { return tracker_; }

    /** LLC set indexing in use (audit recomputes per-set loads). */
    const SetIndexer &indexer() const { return indexer_; }

    /** Address translation in use (audit rebuilds keys from faults). */
    const DramAddressMap &addressMap() const { return map_; }

    /** Per-column-block line deltas (tests). */
    const RowFootprint &footprint() const { return tracker_.footprint(); }

    /**
     * Fault-injection backdoor: mutable tracker access for the metadata
     * fault injector. Never called by production paths.
     */
    RepairLineTracker &trackerForInjection() { return tracker_; }

  private:
    /** LLC line (set, line address) of one DRAM line. */
    RepairLine lineOf(const LineCoord &coord) const
    {
        const uint64_t pa = map_.encode(coord);
        return {indexer_.setIndex(pa), pa >> map_.geometry().offsetBits()};
    }

    /** Line of column block c XOR line of block 0, for every c. */
    std::vector<RepairLine> columnDeltas() const;

    DramAddressMap map_;
    SetIndexer indexer_;
    /** Keyed by per-column-block row deltas (both maps are linear). */
    RepairLineTracker tracker_;
};

} // namespace relaxfault

#endif // RELAXFAULT_REPAIR_FREEFAULT_REPAIR_H
