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
#include "repair/llc_line_repair.h"
#include "repair/relaxfault_map.h"

namespace relaxfault {

/**
 * LLC-coalescing repair remapper. A unit is one remap unit; its key is
 * the packed (tag, set) of its LLC location. The tracker is keyed by
 * per-column-group line deltas, (g, g): the structured modes put the
 * group in the low set bits, and the key carries the set. HashOnly
 * placement is not linear, so that ablation has one-unit rows.
 */
class RelaxFaultRepair final : public LlcLineRepair
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
    void reset() override;

    RepairLine unitLine(const DevicePart &part, unsigned bank,
                        uint32_t row, uint16_t group) const override;
    std::optional<uint64_t> keySet(uint64_t key) const override;
    unsigned keyBits() const override;
    std::span<const uint32_t> faultyBankTable() const override
    {
        return faultyBankTable_;
    }

    /** Faulty-bank table bit: any repaired region in (dimm, bank)? */
    bool bankFlagged(unsigned dimm, unsigned bank) const;

    /** Whether a specific remap unit is locked in the LLC. */
    bool unitRepaired(const RemapUnit &unit) const;

    const RelaxFaultMap &map() const { return map_; }

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

    RelaxFaultMap map_;
    std::vector<uint32_t> faultyBankTable_;  ///< Per DIMM, bit per bank.
};

} // namespace relaxfault

#endif // RELAXFAULT_REPAIR_RELAXFAULT_REPAIR_H
