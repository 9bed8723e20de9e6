#include "faults/fault_geometry.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "common/log.h"

namespace relaxfault {

namespace {

/// Sparse draws of at most this many rows keep them sorted by insertion,
/// which beats the bitmaps below for the few rows of a control glitch.
constexpr unsigned kSortedInsertMax = 8;

/// randomRows' per-thread scratch, all-zero between calls: a seen-bitmap
/// over the span, a summary of its non-zero words, the dense path's pool.
struct RowScratch
{
    std::vector<uint64_t> seen;
    std::vector<uint64_t> nonzero;
    std::vector<uint32_t> pool;
};

thread_local RowScratch rowScratch;

/** Most banks a device can have: RegionCluster::bankMask is 32 bits. */
constexpr unsigned kMaxBanks = 32;

} // namespace

FaultGeometrySampler::FaultGeometrySampler(const DramGeometry &geometry,
                                           const FaultGeometryParams &params)
    : geometry_(geometry), params_(params),
      bankSmallRows_(params.bankSmallRowsMean),
      columnRows_(params.columnRowsMean),
      multiRankRows_(params.multiRankRowsMean)
{
    if (geometry.banksPerDevice > kMaxBanks)
        fatal("fault geometry: more than 32 banks per device");
}

FaultGeometrySampler::GeometricCount::GeometricCount(double mean)
    : mean(mean), logFailure(mean > 1.0 ? std::log(1.0 - 1.0 / mean) : 0.0)
{
}

unsigned
FaultGeometrySampler::geometricCount(const GeometricCount &count, Rng &rng)
{
    if (count.mean <= 1.0)
        return 1;
    // Geometric on {1, 2, ...} with the requested mean.
    const double u = rng.uniform();
    const auto rows = static_cast<unsigned>(
        1.0 + std::floor(std::log(1.0 - u) / count.logFailure));
    return std::max(1u, rows);
}

RowSet
FaultGeometrySampler::randomRows(unsigned count, uint32_t base,
                                 uint32_t span, Rng &rng)
{
    RowSet set;
    randomRows(count, base, span, rng, set.rows);
    return set;
}

void
FaultGeometrySampler::randomRows(unsigned count, uint32_t base,
                                 uint32_t span, Rng &rng,
                                 std::vector<uint32_t> &rows)
{
    count = std::min(count, span);
    rows.clear();
    reserveReused(rows, count);
    const bool dense = count * 3 >= span;
    if (!dense && count <= kSortedInsertMax) {
        while (rows.size() < count) {
            const auto row = base + static_cast<uint32_t>(
                rng.uniformInt(span));
            const auto it = std::lower_bound(rows.begin(), rows.end(), row);
            if (it == rows.end() || *it != row)
                rows.insert(it, row);
        }
        return;
    }

    RowScratch &scratch = rowScratch;
    const size_t words = (size_t{span} + 63) / 64;
    const size_t summary_words = (words + 63) / 64;
    scratch.seen.resize(std::max(scratch.seen.size(), words));
    scratch.nonzero.resize(std::max(scratch.nonzero.size(), summary_words));
    const auto mark = [&scratch](uint32_t offset) {
        const uint32_t w = offset / 64;
        uint64_t &word = scratch.seen[w];
        const uint64_t bit = uint64_t{1} << (offset % 64);
        const bool fresh = (word & bit) == 0;
        word |= bit;
        scratch.nonzero[w / 64] |= uint64_t{1} << (w % 64);
        return fresh;
    };
    if (dense) {
        std::vector<uint32_t> &pool = scratch.pool;
        pool.resize(span);
        std::iota(pool.begin(), pool.end(), 0u);
        for (unsigned i = 0; i < count; ++i) {
            const auto j = i + static_cast<uint32_t>(
                rng.uniformInt(span - i));
            std::swap(pool[i], pool[j]);
            mark(pool[i]);
        }
    } else {
        for (unsigned chosen = 0; chosen < count;)
            chosen += mark(static_cast<uint32_t>(rng.uniformInt(span)));
    }

    // Read the rows out in order, leaving both bitmaps all-zero again.
    rows.resize(count);
    uint32_t *out = rows.data();
    for (size_t s = 0; s < summary_words; ++s) {
        for (uint64_t live = scratch.nonzero[s]; live != 0;
             live &= live - 1) {
            const size_t w = s * 64 + static_cast<size_t>(
                std::countr_zero(live));
            for (uint64_t bits = scratch.seen[w]; bits != 0;
                 bits &= bits - 1) {
                *out++ = base + static_cast<uint32_t>(
                    w * 64 + static_cast<size_t>(std::countr_zero(bits)));
            }
            scratch.seen[w] = 0;
        }
        scratch.nonzero[s] = 0;
    }
}

void
FaultGeometrySampler::bankExtent(RegionCluster &cluster, unsigned bank,
                                 Rng &rng) const
{
    cluster.bankMask = 1u << bank;
    cluster.cols.assignAll();
    cluster.bitMask = 0xffffffffu;

    const double u = rng.uniform();
    if (u < params_.bankSmallProb) {
        // A few wordlines within one subarray (local decoder glitch).
        const unsigned count =
            geometricCount(bankSmallRows_, rng);
        const uint32_t subarrays = geometry_.rowsPerBank /
                                   params_.subarrayRows;
        const uint32_t base = static_cast<uint32_t>(
            rng.uniformInt(subarrays)) * params_.subarrayRows;
        cluster.rows.all = false;
        randomRows(count, base, params_.subarrayRows, rng,
                   cluster.rows.rows);
    } else if (u < params_.bankSmallProb + params_.bankMediumProb) {
        const auto count = static_cast<unsigned>(rng.uniformRange(
            params_.bankMediumRowsMin, params_.bankMediumRowsMax));
        cluster.rows.all = false;
        // Room for the largest medium extent at once: growing a reused
        // list draw by draw would take the rare long tail to settle.
        reserveReused(cluster.rows.rows, params_.bankMediumRowsMax);
        randomRows(count, 0, geometry_.rowsPerBank, rng, cluster.rows.rows);
    } else {
        cluster.rows.assignAll();
    }
}

void
FaultGeometrySampler::sampleSingleBit(FaultRegion &region, Rng &rng) const
{
    RegionCluster &cluster = region.reuseClusters(1)[0];
    cluster.bankMask = 1u << rng.uniformInt(geometry_.banksPerDevice);
    cluster.rows.assignOne(static_cast<uint32_t>(
        rng.uniformInt(geometry_.rowsPerBank)));
    cluster.cols.assignOne(static_cast<uint16_t>(
        rng.uniformInt(geometry_.colBlocksPerRow)));
    const unsigned bit = static_cast<unsigned>(rng.uniformInt(32));
    if (rng.bernoulli(params_.wordFaultProb)) {
        // Word fault: a handful of adjacent bits in the same slice.
        const unsigned width = 2 + static_cast<unsigned>(rng.uniformInt(7));
        const unsigned lsb = std::min(bit, 32u - width);
        cluster.bitMask = static_cast<uint32_t>(maskBits(width)) << lsb;
    } else {
        cluster.bitMask = 1u << bit;
    }
}

void
FaultGeometrySampler::sampleSingleRow(FaultRegion &region, Rng &rng) const
{
    RegionCluster &cluster = region.reuseClusters(1)[0];
    cluster.bankMask = 1u << rng.uniformInt(geometry_.banksPerDevice);
    cluster.rows.assignOne(static_cast<uint32_t>(
        rng.uniformInt(geometry_.rowsPerBank)));
    cluster.cols.assignAll();
    cluster.bitMask = 0xffffffffu;
}

void
FaultGeometrySampler::sampleSingleColumn(FaultRegion &region,
                                         Rng &rng) const
{
    // One bitline within one subarray: a single bit lane of a single
    // column block goes bad in some of the subarray's rows.
    RegionCluster &cluster = region.reuseClusters(1)[0];
    cluster.bankMask = 1u << rng.uniformInt(geometry_.banksPerDevice);
    const uint32_t subarrays = geometry_.rowsPerBank / params_.subarrayRows;
    const uint32_t base = static_cast<uint32_t>(
        rng.uniformInt(subarrays)) * params_.subarrayRows;
    const unsigned count = std::min<unsigned>(
        geometricCount(columnRows_, rng), params_.subarrayRows);
    cluster.rows.all = false;
    // Room for the cap (a whole subarray) at once, as for medium bank
    // extents: the geometric count's tail reaches it now and then.
    reserveReused(cluster.rows.rows, params_.subarrayRows);
    randomRows(count, base, params_.subarrayRows, rng, cluster.rows.rows);
    cluster.cols.assignOne(static_cast<uint16_t>(
        rng.uniformInt(geometry_.colBlocksPerRow)));
    cluster.bitMask = 1u << rng.uniformInt(32);
}

void
FaultGeometrySampler::sampleSingleBank(FaultRegion &region, Rng &rng) const
{
    const auto bank = static_cast<unsigned>(
        rng.uniformInt(geometry_.banksPerDevice));
    bankExtent(region.reuseClusters(1)[0], bank, rng);
}

void
FaultGeometrySampler::sampleMultiBank(FaultRegion &region, Rng &rng) const
{
    const unsigned max_banks =
        std::min(params_.multiBankMax, geometry_.banksPerDevice);
    const auto bank_count = static_cast<unsigned>(rng.uniformRange(
        params_.multiBankMin, max_banks));

    // Choose distinct banks.
    unsigned banks[kMaxBanks];
    const size_t bank_total = geometry_.banksPerDevice;
    for (unsigned i = 0; i < bank_total; ++i)
        banks[i] = i;
    const std::span<RegionCluster> clusters =
        region.reuseClusters(bank_count);
    for (unsigned i = 0; i < bank_count; ++i) {
        const auto j = i + static_cast<unsigned>(
            rng.uniformInt(bank_total - i));
        std::swap(banks[i], banks[j]);
        RegionCluster &cluster = clusters[i];
        if (rng.bernoulli(params_.multiBankMassiveProb)) {
            cluster.bankMask = 1u << banks[i];
            cluster.rows.assignAll();
            cluster.cols.assignAll();
            cluster.bitMask = 0xffffffffu;
        } else {
            bankExtent(cluster, banks[i], rng);
        }
    }
}

void
FaultGeometrySampler::sampleMultiRank(FaultRegion &region, Rng &rng) const
{
    if (rng.bernoulli(params_.multiRankMassiveProb)) {
        // Data-pin / shared-I/O fault: one bit lane of every access.
        RegionCluster &cluster = region.reuseClusters(1)[0];
        cluster.bankMask = static_cast<uint32_t>(
            maskBits(geometry_.banksPerDevice));
        cluster.rows.assignAll();
        cluster.cols.assignAll();
        cluster.bitMask = 1u << rng.uniformInt(32);
        return;
    }
    // Control glitch: a few rows in each bank.
    const std::span<RegionCluster> clusters =
        region.reuseClusters(geometry_.banksPerDevice);
    for (unsigned bank = 0; bank < geometry_.banksPerDevice; ++bank) {
        RegionCluster &cluster = clusters[bank];
        cluster.bankMask = 1u << bank;
        const unsigned count =
            geometricCount(multiRankRows_, rng);
        cluster.rows.all = false;
        randomRows(count, 0, geometry_.rowsPerBank, rng, cluster.rows.rows);
        cluster.cols.assignAll();
        cluster.bitMask = 0xffffffffu;
    }
}

FaultRegion
FaultGeometrySampler::sample(FaultMode mode, Rng &rng) const
{
    FaultRegion region;
    sampleInto(region, mode, rng);
    return region;
}

void
FaultGeometrySampler::sampleInto(FaultRegion &region, FaultMode mode,
                                 Rng &rng) const
{
    switch (mode) {
      case FaultMode::SingleBit:
        return sampleSingleBit(region, rng);
      case FaultMode::SingleRow:
        return sampleSingleRow(region, rng);
      case FaultMode::SingleColumn:
        return sampleSingleColumn(region, rng);
      case FaultMode::SingleBank:
        return sampleSingleBank(region, rng);
      case FaultMode::MultiBank:
        return sampleMultiBank(region, rng);
      case FaultMode::MultiRank:
        return sampleMultiRank(region, rng);
    }
    region.reuseClusters(0);
}

} // namespace relaxfault
