#include "repair/ppr_repair.h"

#include <algorithm>
#include <bit>

#include "common/bitops.h"

namespace relaxfault {

PprRepair::PprRepair(const DramGeometry &dram, unsigned bank_groups,
                     unsigned spares_per_group)
    : dram_(dram), bankGroups_(bank_groups),
      banksPerGroup_(dram.banksPerDevice / bank_groups),
      sparesPerGroup_(spares_per_group)
{
}

uint64_t
PprRepair::rowKey(unsigned dimm, unsigned device, unsigned bank,
                  uint32_t row) const
{
    uint64_t key = dimm;
    key = key * dram_.devicesPerRank() + device;
    key = key * dram_.banksPerDevice + bank;
    key = key * dram_.rowsPerBank + row;
    return key;
}

uint64_t
PprRepair::groupKey(unsigned dimm, unsigned device, unsigned group) const
{
    uint64_t key = dimm;
    key = key * dram_.devicesPerRank() + device;
    key = key * bankGroups_ + group;
    return key;
}

bool
PprRepair::tryRepair(const FaultRecord &fault)
{
    // Pigeonhole, O(clusters): a bank group never holds more than
    // sparesPerGroup repaired rows, so a cluster with more distinct
    // (bank, row)s than that in one group never fits, whatever is
    // repaired already. Column faults over several rows and bank faults
    // stop here.
    for (const auto &part : fault.parts) {
        if (part.region.massive())
            return false;
        for (const auto &cluster : part.region.clusters()) {
            const uint64_t rows = cluster.rows.rows.size();
            for (unsigned first = 0; first < dram_.banksPerDevice;
                 first += banksPerGroup_) {
                const auto group_banks = static_cast<uint32_t>(
                    maskBits(std::min(banksPerGroup_,
                                      dram_.banksPerDevice - first))
                    << first);
                if (rows * std::popcount(cluster.bankMask & group_banks) >
                    sparesPerGroup_)
                    return false;
            }
        }
    }

    // Gather the distinct rows the fault needs as sorted (group, row)
    // keys, then check spare availability per bank group before
    // committing anything.
    pending_.clear();
    for (const auto &part : fault.parts) {
        for (const auto &cluster : part.region.clusters()) {
            for (unsigned bank = 0; bank < dram_.banksPerDevice; ++bank) {
                if (!(cluster.bankMask & (1u << bank)))
                    continue;
                const uint64_t gkey = groupKey(part.dimm, part.device,
                                               bank / banksPerGroup_);
                for (const auto row : cluster.rows.rows) {
                    const uint64_t rkey =
                        rowKey(part.dimm, part.device, bank, row);
                    if (!std::binary_search(repairedRows_.begin(),
                                            repairedRows_.end(), rkey))
                        pending_.emplace_back(gkey, rkey);
                }
            }
        }
    }
    std::sort(pending_.begin(), pending_.end());
    pending_.erase(std::unique(pending_.begin(), pending_.end()),
                   pending_.end());

    for (size_t first = 0, last; first < pending_.size(); first = last) {
        const uint64_t gkey = pending_[first].first;
        last = first + 1;
        while (last < pending_.size() && pending_[last].first == gkey)
            ++last;
        const auto it = groupUse(gkey);
        const unsigned used =
            it == groupUse_.end() || it->first != gkey ? 0 : it->second;
        if (used + (last - first) > sparesPerGroup_)
            return false;
    }

    for (const auto &[gkey, rkey] : pending_) {
        repairedRows_.insert(std::lower_bound(repairedRows_.begin(),
                                              repairedRows_.end(), rkey),
                             rkey);
        auto it = groupUse(gkey);
        if (it == groupUse_.end() || it->first != gkey)
            it = groupUse_.insert(it, {gkey, 0});
        ++it->second;
        ++sparesUsed_;
    }
    return true;
}

void
PprRepair::reset()
{
    groupUse_.clear();
    repairedRows_.clear();
    sparesUsed_ = 0;
}

bool
PprRepair::rowRepaired(unsigned dimm, unsigned device, unsigned bank,
                       uint32_t row) const
{
    return std::binary_search(repairedRows_.begin(), repairedRows_.end(),
                              rowKey(dimm, device, bank, row));
}

std::vector<std::pair<uint64_t, unsigned>>::iterator
PprRepair::groupUse(uint64_t gkey)
{
    return std::lower_bound(
        groupUse_.begin(), groupUse_.end(), gkey,
        [](const auto &entry, uint64_t key) { return entry.first < key; });
}

} // namespace relaxfault
