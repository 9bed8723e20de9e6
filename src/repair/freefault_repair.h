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
#include "repair/llc_line_repair.h"

namespace relaxfault {

/**
 * Whole-cacheline locking repair using the normal LLC mapping. A unit is
 * one column block; its key is the physical line address. The tracker
 * is keyed by per-column-block row deltas (both maps are linear).
 */
class FreeFaultRepair final : public LlcLineRepair
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

    RepairLine unitLine(const DevicePart &part, unsigned bank,
                        uint32_t row, uint16_t col) const override;
    std::optional<uint64_t> keySet(uint64_t key) const override;
    unsigned keyBits() const override;

    /** LLC set indexing in use. */
    const SetIndexer &indexer() const { return indexer_; }

    /** Address translation in use. */
    const DramAddressMap &addressMap() const { return map_; }

  private:
    DramAddressMap map_;
    SetIndexer indexer_;
};

} // namespace relaxfault

#endif // RELAXFAULT_REPAIR_FREEFAULT_REPAIR_H
