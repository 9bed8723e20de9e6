#include "faults/region.h"

#include <algorithm>
#include <bit>
#include <iterator>

namespace relaxfault {

RowSet
RowSet::of(std::vector<uint32_t> list)
{
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    return RowSet{false, std::move(list)};
}

uint64_t
RowSet::count(const DramGeometry &geometry) const
{
    return all ? geometry.rowsPerBank : rows.size();
}

bool
RowSet::contains(uint32_t row) const
{
    if (all)
        return true;
    return std::binary_search(rows.begin(), rows.end(), row);
}

uint64_t
RowSet::intersectCount(const RowSet &a, const RowSet &b,
                       const DramGeometry &geometry)
{
    if (a.all)
        return b.count(geometry);
    if (b.all)
        return a.count(geometry);
    uint64_t overlap = 0;
    auto it_a = a.rows.begin();
    auto it_b = b.rows.begin();
    while (it_a != a.rows.end() && it_b != b.rows.end()) {
        if (*it_a < *it_b) {
            ++it_a;
        } else if (*it_b < *it_a) {
            ++it_b;
        } else {
            ++overlap;
            ++it_a;
            ++it_b;
        }
    }
    return overlap;
}

ColSet
ColSet::of(std::vector<uint16_t> list)
{
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    return ColSet{false, std::move(list)};
}

uint64_t
ColSet::count(const DramGeometry &geometry) const
{
    return all ? geometry.colBlocksPerRow : cols.size();
}

bool
ColSet::contains(uint16_t col) const
{
    if (all)
        return true;
    return std::binary_search(cols.begin(), cols.end(), col);
}

uint64_t
ColSet::intersectCount(const ColSet &a, const ColSet &b,
                       const DramGeometry &geometry)
{
    if (a.all)
        return b.count(geometry);
    if (b.all)
        return a.count(geometry);
    uint64_t overlap = 0;
    auto it_a = a.cols.begin();
    auto it_b = b.cols.begin();
    while (it_a != a.cols.end() && it_b != b.cols.end()) {
        if (*it_a < *it_b) {
            ++it_a;
        } else if (*it_b < *it_a) {
            ++it_b;
        } else {
            ++overlap;
            ++it_a;
            ++it_b;
        }
    }
    return overlap;
}

FaultRegion::FaultRegion(std::vector<RegionCluster> clusters)
    : clusters_(std::move(clusters))
{
}

namespace {

/** Copy @p src over @p dst, keeping (and growing with reserveReused)
 * dst's buffer. */
template <typename T>
void
assignReused(std::vector<T> &dst, const std::vector<T> &src)
{
    reserveReused(dst, src.size());
    dst.assign(src.begin(), src.end());
}

void
assignReused(RowSet &dst, const RowSet &src)
{
    dst.all = src.all;
    assignReused(dst.rows, src.rows);
}

void
assignReused(ColSet &dst, const ColSet &src)
{
    dst.all = src.all;
    assignReused(dst.cols, src.cols);
}

void
assignReused(RegionCluster &dst, const RegionCluster &src)
{
    dst.bankMask = src.bankMask;
    assignReused(dst.rows, src.rows);
    assignReused(dst.cols, src.cols);
    dst.bitMask = src.bitMask;
}

} // namespace

FaultRegion &
FaultRegion::operator=(const FaultRegion &other)
{
    if (this == &other)
        return *this;
    const std::span<RegionCluster> clusters =
        reuseClusters(other.clusters_.size());
    for (size_t i = 0; i < clusters.size(); ++i)
        assignReused(clusters[i], other.clusters_[i]);
    return *this;
}

void
FaultRegion::append(const FaultRegion &other)
{
    for (const RegionCluster &cluster : other.clusters_)
        assignReused(addCluster(), cluster);
}

std::span<RegionCluster>
FaultRegion::reuseClusters(size_t count)
{
    while (clusters_.size() > count)
        popCluster();
    while (clusters_.size() < count)
        addCluster();
    return clusters_;
}

RegionCluster &
FaultRegion::addCluster()
{
    if (parked_.empty())
        return clusters_.emplace_back();
    clusters_.push_back(std::move(parked_.back()));
    parked_.pop_back();
    return clusters_.back();
}

void
FaultRegion::popCluster()
{
    // Room for every cluster the region owns, so parking never grows
    // the stack once the region has stopped gaining clusters.
    parked_.reserve(clusters_.size() + parked_.size());
    parked_.push_back(std::move(clusters_.back()));
    clusters_.pop_back();
}

bool
FaultRegion::massive() const
{
    for (const auto &cluster : clusters_) {
        if (cluster.rows.all)
            return true;
    }
    return false;
}

uint64_t
FaultRegion::clusterUnits(const RegionCluster &cluster,
                          const DramGeometry &geometry,
                          unsigned cols_per_unit)
{
    // Distinct colBlock / cols_per_unit values: for every column, or at
    // one column per unit, a division; otherwise a walk of the list.
    uint64_t units =
        (cluster.cols.count(geometry) + cols_per_unit - 1) / cols_per_unit;
    if (cols_per_unit > 1 && !cluster.cols.all) {
        units = 0;
        forEachColumnUnit(cluster.cols, cols_per_unit, 0,
                          [&](uint16_t) { ++units; });
    }
    return static_cast<uint64_t>(std::popcount(cluster.bankMask)) *
           cluster.rows.count(geometry) * units;
}

uint64_t
FaultRegion::lineSliceCount(const DramGeometry &geometry) const
{
    uint64_t total = 0;
    for (const auto &cluster : clusters_)
        total += clusterUnits(cluster, geometry, 1);
    return total;
}

uint64_t
FaultRegion::remapUnitCount(const DramGeometry &geometry) const
{
    uint64_t total = 0;
    for (const auto &cluster : clusters_)
        total += clusterUnits(cluster, geometry,
                              geometry.colBlocksPerRemapUnit());
    return total;
}

uint32_t
FaultRegion::sliceMask(unsigned bank, uint32_t row, uint16_t col_block)
    const
{
    uint32_t mask = 0;
    for (const auto &cluster : clusters_) {
        if (!(cluster.bankMask & (1u << bank)))
            continue;
        if (!cluster.rows.contains(row))
            continue;
        if (!cluster.cols.contains(col_block))
            continue;
        mask |= cluster.bitMask;
    }
    return mask;
}

double
FaultRegion::symbolFraction() const
{
    // An 8-bit chipkill symbol pairs two 4-bit beats; the 32-bit slice is
    // beats 0..7, so symbol s covers bits [8s, 8s+8).
    uint32_t united = 0;
    for (const auto &cluster : clusters_)
        united |= cluster.bitMask;
    unsigned symbols = 0;
    for (unsigned s = 0; s < 4; ++s) {
        if (united & (0xffu << (8 * s)))
            ++symbols;
    }
    return symbols / 4.0;
}

uint64_t
FaultRegion::distinctRowCount(const DramGeometry &geometry) const
{
    // Clusters produced by the samplers use disjoint banks or disjoint
    // rows, so summing per cluster is exact for sampled faults.
    uint64_t total = 0;
    for (const auto &cluster : clusters_) {
        total += static_cast<uint64_t>(std::popcount(cluster.bankMask)) *
                 cluster.rows.count(geometry);
    }
    return total;
}

unsigned
FaultRegion::bankCount() const
{
    uint32_t mask = 0;
    for (const auto &cluster : clusters_)
        mask |= cluster.bankMask;
    return static_cast<unsigned>(std::popcount(mask));
}

namespace {

/** Intersection of two row sets into @p out, reusing its buffer. */
void
intersectRowSets(const RowSet &a, const RowSet &b, RowSet &out)
{
    if (a.all) {
        assignReused(out, b);
    } else if (b.all) {
        assignReused(out, a);
    } else {
        out.all = false;
        out.rows.clear();
        reserveReused(out.rows, std::min(a.rows.size(), b.rows.size()));
        std::set_intersection(a.rows.begin(), a.rows.end(),
                              b.rows.begin(), b.rows.end(),
                              std::back_inserter(out.rows));
    }
}

/** Intersection of two column sets into @p out, reusing its buffer. */
void
intersectColSets(const ColSet &a, const ColSet &b, ColSet &out)
{
    if (a.all) {
        assignReused(out, b);
    } else if (b.all) {
        assignReused(out, a);
    } else {
        out.all = false;
        out.cols.clear();
        reserveReused(out.cols, std::min(a.cols.size(), b.cols.size()));
        std::set_intersection(a.cols.begin(), a.cols.end(),
                              b.cols.begin(), b.cols.end(),
                              std::back_inserter(out.cols));
    }
}

/** Expand each covered ECC symbol (byte lane) of @p mask to 0xff. */
uint32_t
symbolExpand(uint32_t mask)
{
    uint32_t expanded = 0;
    for (unsigned s = 0; s < 4; ++s) {
        if (mask & (0xffu << (8 * s)))
            expanded |= 0xffu << (8 * s);
    }
    return expanded;
}

} // namespace

bool
FaultRegion::sharesSymbol(uint32_t mask_a, uint32_t mask_b)
{
    return (symbolExpand(mask_a) & symbolExpand(mask_b)) != 0;
}

FaultRegion
FaultRegion::codewordIntersect(const FaultRegion &a, const FaultRegion &b,
                               const DramGeometry &geometry)
{
    (void)geometry;
    FaultRegion out;
    codewordIntersectInto(a, b, out);
    return out;
}

void
FaultRegion::codewordIntersectInto(const FaultRegion &a,
                                   const FaultRegion &b, FaultRegion &out)
{
    out.reuseClusters(0);
    for (const auto &ca : a.clusters_) {
        for (const auto &cb : b.clusters_) {
            const uint32_t shared =
                symbolExpand(ca.bitMask) & symbolExpand(cb.bitMask);
            if (shared == 0)
                continue;
            const uint32_t bank_mask = ca.bankMask & cb.bankMask;
            if (bank_mask == 0)
                continue;
            RegionCluster &cluster = out.addCluster();
            intersectRowSets(ca.rows, cb.rows, cluster.rows);
            if (!cluster.rows.all && cluster.rows.rows.empty()) {
                out.popCluster();
                continue;
            }
            intersectColSets(ca.cols, cb.cols, cluster.cols);
            if (!cluster.cols.all && cluster.cols.cols.empty()) {
                out.popCluster();
                continue;
            }
            cluster.bankMask = bank_mask;
            cluster.bitMask = shared;
        }
    }
}

uint64_t
FaultRegion::intersectLineCount(const FaultRegion &a, const FaultRegion &b,
                                const DramGeometry &geometry)
{
    uint64_t total = 0;
    for (const auto &ca : a.clusters_) {
        for (const auto &cb : b.clusters_) {
            const auto banks = static_cast<uint64_t>(
                std::popcount(ca.bankMask & cb.bankMask));
            if (banks == 0)
                continue;
            const uint64_t rows =
                RowSet::intersectCount(ca.rows, cb.rows, geometry);
            if (rows == 0)
                continue;
            const uint64_t cols =
                ColSet::intersectCount(ca.cols, cb.cols, geometry);
            total += banks * rows * cols;
        }
    }
    return total;
}

} // namespace relaxfault
