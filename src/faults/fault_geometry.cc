#include "faults/fault_geometry.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

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

/** A one-cluster region, built by move (no initializer_list copy). */
FaultRegion
singleCluster(RegionCluster &&cluster)
{
    std::vector<RegionCluster> clusters;
    clusters.push_back(std::move(cluster));
    return FaultRegion(std::move(clusters));
}

} // namespace

FaultGeometrySampler::FaultGeometrySampler(const DramGeometry &geometry,
                                           const FaultGeometryParams &params)
    : geometry_(geometry), params_(params),
      bankSmallRows_(params.bankSmallRowsMean),
      columnRows_(params.columnRowsMean),
      multiRankRows_(params.multiRankRowsMean)
{
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
    count = std::min(count, span);
    RowSet set;
    std::vector<uint32_t> &rows = set.rows;
    rows.reserve(count);
    const bool dense = count * 3 >= span;
    if (!dense && count <= kSortedInsertMax) {
        while (rows.size() < count) {
            const auto row = base + static_cast<uint32_t>(
                rng.uniformInt(span));
            const auto it = std::lower_bound(rows.begin(), rows.end(), row);
            if (it == rows.end() || *it != row)
                rows.insert(it, row);
        }
        return set;
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
    return set;
}

RegionCluster
FaultGeometrySampler::bankExtent(unsigned bank, Rng &rng) const
{
    RegionCluster cluster;
    cluster.bankMask = 1u << bank;
    cluster.cols = ColSet::allCols();
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
        cluster.rows = randomRows(count, base, params_.subarrayRows, rng);
    } else if (u < params_.bankSmallProb + params_.bankMediumProb) {
        const auto count = static_cast<unsigned>(rng.uniformRange(
            params_.bankMediumRowsMin, params_.bankMediumRowsMax));
        cluster.rows = randomRows(count, 0, geometry_.rowsPerBank, rng);
    } else {
        cluster.rows = RowSet::allRows();
    }
    return cluster;
}

FaultRegion
FaultGeometrySampler::sampleSingleBit(Rng &rng) const
{
    RegionCluster cluster;
    cluster.bankMask = 1u << rng.uniformInt(geometry_.banksPerDevice);
    cluster.rows = RowSet::of({static_cast<uint32_t>(
        rng.uniformInt(geometry_.rowsPerBank))});
    cluster.cols = ColSet::of({static_cast<uint16_t>(
        rng.uniformInt(geometry_.colBlocksPerRow))});
    const unsigned bit = static_cast<unsigned>(rng.uniformInt(32));
    if (rng.bernoulli(params_.wordFaultProb)) {
        // Word fault: a handful of adjacent bits in the same slice.
        const unsigned width = 2 + static_cast<unsigned>(rng.uniformInt(7));
        const unsigned lsb = std::min(bit, 32u - width);
        cluster.bitMask = static_cast<uint32_t>(maskBits(width)) << lsb;
    } else {
        cluster.bitMask = 1u << bit;
    }
    return singleCluster(std::move(cluster));
}

FaultRegion
FaultGeometrySampler::sampleSingleRow(Rng &rng) const
{
    RegionCluster cluster;
    cluster.bankMask = 1u << rng.uniformInt(geometry_.banksPerDevice);
    cluster.rows = RowSet::of({static_cast<uint32_t>(
        rng.uniformInt(geometry_.rowsPerBank))});
    cluster.cols = ColSet::allCols();
    cluster.bitMask = 0xffffffffu;
    return singleCluster(std::move(cluster));
}

FaultRegion
FaultGeometrySampler::sampleSingleColumn(Rng &rng) const
{
    // One bitline within one subarray: a single bit lane of a single
    // column block goes bad in some of the subarray's rows.
    RegionCluster cluster;
    cluster.bankMask = 1u << rng.uniformInt(geometry_.banksPerDevice);
    const uint32_t subarrays = geometry_.rowsPerBank / params_.subarrayRows;
    const uint32_t base = static_cast<uint32_t>(
        rng.uniformInt(subarrays)) * params_.subarrayRows;
    const unsigned count = std::min<unsigned>(
        geometricCount(columnRows_, rng), params_.subarrayRows);
    cluster.rows = randomRows(count, base, params_.subarrayRows, rng);
    cluster.cols = ColSet::of({static_cast<uint16_t>(
        rng.uniformInt(geometry_.colBlocksPerRow))});
    cluster.bitMask = 1u << rng.uniformInt(32);
    return singleCluster(std::move(cluster));
}

FaultRegion
FaultGeometrySampler::sampleSingleBank(Rng &rng) const
{
    const auto bank = static_cast<unsigned>(
        rng.uniformInt(geometry_.banksPerDevice));
    return singleCluster(bankExtent(bank, rng));
}

FaultRegion
FaultGeometrySampler::sampleMultiBank(Rng &rng) const
{
    const unsigned max_banks =
        std::min(params_.multiBankMax, geometry_.banksPerDevice);
    const auto bank_count = static_cast<unsigned>(rng.uniformRange(
        params_.multiBankMin, max_banks));

    // Choose distinct banks.
    std::vector<unsigned> banks(geometry_.banksPerDevice);
    for (unsigned i = 0; i < banks.size(); ++i)
        banks[i] = i;
    std::vector<RegionCluster> clusters;
    clusters.reserve(bank_count);
    for (unsigned i = 0; i < bank_count; ++i) {
        const auto j = i + static_cast<unsigned>(
            rng.uniformInt(banks.size() - i));
        std::swap(banks[i], banks[j]);
        RegionCluster cluster;
        if (rng.bernoulli(params_.multiBankMassiveProb)) {
            cluster.bankMask = 1u << banks[i];
            cluster.rows = RowSet::allRows();
            cluster.cols = ColSet::allCols();
            cluster.bitMask = 0xffffffffu;
        } else {
            cluster = bankExtent(banks[i], rng);
        }
        clusters.push_back(std::move(cluster));
    }
    return FaultRegion(std::move(clusters));
}

FaultRegion
FaultGeometrySampler::sampleMultiRank(Rng &rng) const
{
    if (rng.bernoulli(params_.multiRankMassiveProb)) {
        // Data-pin / shared-I/O fault: one bit lane of every access.
        RegionCluster cluster;
        cluster.bankMask = static_cast<uint32_t>(
            maskBits(geometry_.banksPerDevice));
        cluster.rows = RowSet::allRows();
        cluster.cols = ColSet::allCols();
        cluster.bitMask = 1u << rng.uniformInt(32);
        return singleCluster(std::move(cluster));
    }
    // Control glitch: a few rows in each bank.
    std::vector<RegionCluster> clusters;
    clusters.reserve(geometry_.banksPerDevice);
    for (unsigned bank = 0; bank < geometry_.banksPerDevice; ++bank) {
        RegionCluster cluster;
        cluster.bankMask = 1u << bank;
        const unsigned count =
            geometricCount(multiRankRows_, rng);
        cluster.rows = randomRows(count, 0, geometry_.rowsPerBank, rng);
        cluster.cols = ColSet::allCols();
        cluster.bitMask = 0xffffffffu;
        clusters.push_back(std::move(cluster));
    }
    return FaultRegion(std::move(clusters));
}

FaultRegion
FaultGeometrySampler::sample(FaultMode mode, Rng &rng) const
{
    switch (mode) {
      case FaultMode::SingleBit:
        return sampleSingleBit(rng);
      case FaultMode::SingleRow:
        return sampleSingleRow(rng);
      case FaultMode::SingleColumn:
        return sampleSingleColumn(rng);
      case FaultMode::SingleBank:
        return sampleSingleBank(rng);
      case FaultMode::MultiBank:
        return sampleMultiBank(rng);
      case FaultMode::MultiRank:
        return sampleMultiRank(rng);
    }
    return FaultRegion();
}

} // namespace relaxfault
