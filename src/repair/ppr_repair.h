/**
 * @file
 * DDR4 post-package repair (PPR) baseline.
 *
 * The JEDEC DDR4 specification allows one spare row per bank group to be
 * fused in, in the field, per device (the paper's Sec. 6). Any fault
 * confined to few enough distinct rows can be repaired; column faults
 * spanning several rows of one bank and bank-scale faults exceed the
 * spare budget. Spare rows, once used, are permanent.
 */

#ifndef RELAXFAULT_REPAIR_PPR_REPAIR_H
#define RELAXFAULT_REPAIR_PPR_REPAIR_H

#include <utility>
#include <vector>

#include "dram/geometry.h"
#include "repair/repair_mechanism.h"

namespace relaxfault {

/** In-field row sparing per the DDR4 PPR capability. */
class PprRepair : public RepairMechanism
{
  public:
    /**
     * @param dram Node memory geometry.
     * @param bank_groups Bank groups per device (DDR4: 4).
     * @param spares_per_group Spare rows per bank group (DDR4: 1).
     */
    explicit PprRepair(const DramGeometry &dram, unsigned bank_groups = 4,
                       unsigned spares_per_group = 1);

    std::string name() const override { return "PPR"; }
    bool tryRepair(const FaultRecord &fault) override;
    uint64_t usedLines() const override { return 0; }
    unsigned maxWaysUsed() const override { return 0; }
    void reset() override;

    /** Spare rows consumed so far across the node. */
    uint64_t sparesUsed() const { return sparesUsed_; }

    /** Whether (dimm, device, bank, row) has been remapped to a spare. */
    bool rowRepaired(unsigned dimm, unsigned device, unsigned bank,
                     uint32_t row) const;

  private:
    uint64_t rowKey(unsigned dimm, unsigned device, unsigned bank,
                    uint32_t row) const;
    uint64_t groupKey(unsigned dimm, unsigned device,
                      unsigned group) const;
    /** groupUse_'s first entry whose key is not below @p gkey. */
    std::vector<std::pair<uint64_t, unsigned>>::iterator
    groupUse(uint64_t gkey);

    DramGeometry dram_;
    unsigned bankGroups_;
    unsigned banksPerGroup_;
    unsigned sparesPerGroup_;
    /// Spares used per bank group, sorted by groupKey. A node repairs a
    /// handful of rows, so sorted flat vectors that keep their buffers
    /// across reset() beat hashing (and allocate nothing per node).
    std::vector<std::pair<uint64_t, unsigned>> groupUse_;
    std::vector<uint64_t> repairedRows_;  ///< Sorted rowKeys.
    uint64_t sparesUsed_ = 0;
    /** tryRepair scratch: (groupKey, rowKey) of each row to repair. */
    std::vector<std::pair<uint64_t, uint64_t>> pending_;
};

} // namespace relaxfault

#endif // RELAXFAULT_REPAIR_PPR_REPAIR_H
