#include "sim/reliability.h"

#include <algorithm>
#include <cstddef>

namespace relaxfault {

ReliabilityClassifier::ReliabilityClassifier(
    const DramGeometry &geometry, const ReliabilityParams &params)
    : geometry_(geometry), params_(params)
{
}

namespace {

/** One other device's merged overlap with the new region. */
struct DeviceOverlap
{
    unsigned device = 0;
    FaultRegion region;
};

/**
 * classify's per-thread scratch, rebuilt in place each call
 * (FaultRegion::codewordIntersectInto). Entries are reused by position,
 * so each buffer serves the same role from call to call and a warm
 * classifier allocates nothing.
 */
struct ClassifyScratch
{
    std::vector<DeviceOverlap> overlaps;  ///< The first `used` are live.
    FaultRegion overlap;  ///< The current pairwise intersection.
    FaultRegion triple;   ///< The current triple intersection.
};

thread_local ClassifyScratch classifyScratch;

} // namespace

ErrorClassification
ReliabilityClassifier::classify(
    unsigned new_device, const FaultRegion &new_part,
    const std::vector<ActiveFaultPart> &active) const
{
    ErrorClassification result;
    ClassifyScratch &scratch = classifyScratch;

    // Pairwise: the new region against each other device. Overlaps are
    // merged per device so a device with several faults contributes one
    // combined overlap region to the triple scan.
    std::vector<DeviceOverlap> &pair_overlaps = scratch.overlaps;
    size_t used = 0;
    for (const auto &other : active) {
        if (other.device == new_device)
            continue;
        FaultRegion::codewordIntersectInto(new_part, *other.region,
                                           scratch.overlap);
        if (scratch.overlap.lineSliceCount(geometry_) == 0)
            continue;
        result.due = true;
        const auto live_end =
            pair_overlaps.begin() + static_cast<std::ptrdiff_t>(used);
        const auto merged = std::find_if(
            pair_overlaps.begin(), live_end,
            [&](const DeviceOverlap &entry) {
                return entry.device == other.device;
            });
        if (merged == live_end) {
            if (used == pair_overlaps.size())
                pair_overlaps.emplace_back();
            DeviceOverlap &entry = pair_overlaps[used++];
            entry.device = other.device;
            entry.region = scratch.overlap;
        } else {
            merged->region.append(scratch.overlap);
        }
    }

    // A double-device codeword error occasionally aliases a correctable
    // pattern and miscorrects silently.
    if (result.due)
        result.sdcExpectation += params_.pairMiscorrectProb;

    // Triples: two distinct other devices sharing a codeword with the
    // new region. Each such configuration may silently miscorrect.
    for (size_t i = 0; i < used; ++i) {
        for (size_t j = i + 1; j < used; ++j) {
            if (pair_overlaps[i].device == pair_overlaps[j].device)
                continue;
            FaultRegion::codewordIntersectInto(pair_overlaps[i].region,
                                               pair_overlaps[j].region,
                                               scratch.triple);
            if (scratch.triple.lineSliceCount(geometry_) > 0)
                result.sdcExpectation += params_.tripleMiscorrectProb;
        }
    }
    return result;
}

} // namespace relaxfault
