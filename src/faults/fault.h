/**
 * @file
 * Fault taxonomy: modes, persistence classes, and fault records.
 *
 * The taxonomy follows the field studies the paper builds on (Sridharan et
 * al., SC'12/SC'13/ASPLOS'15): a fault is an event on one DRAM device (or,
 * for multi-rank faults, a set of devices) that disables a structured
 * region of cells. Faults are transient (active once) or permanent; the
 * permanent class splits into hard-permanent (active on practically every
 * access) and hard-intermittent (active at some activation rate between
 * roughly once an hour and once a month, Sec. 2 of the paper).
 */

#ifndef RELAXFAULT_FAULTS_FAULT_H
#define RELAXFAULT_FAULTS_FAULT_H

#include <cstdint>
#include <string>
#include <vector>

#include "faults/region.h"

namespace relaxfault {

/** Fault modes of Table 2 (Cielo rates) / Fig. 2. */
enum class FaultMode : uint8_t
{
    SingleBit,     ///< One bit (or a few bits of one word).
    SingleRow,     ///< One wordline: a full device row.
    SingleColumn,  ///< One bitline: one column across rows of a subarray.
    SingleBank,    ///< Bank-level structure; extent varies widely.
    MultiBank,     ///< Several banks of one device.
    MultiRank,     ///< Shared-circuitry fault visible on several ranks.
};

/** Number of distinct fault modes. */
constexpr unsigned kFaultModeCount = 6;

/** Short human-readable mode name. */
const char *faultModeName(FaultMode mode);

/** Whether the fault persists after its first activation. */
enum class Persistence : uint8_t { Transient, Permanent };

/** One device's share of a fault: where it lives and what it disables. */
struct DevicePart
{
    unsigned dimm = 0;    ///< Global DIMM (rank) index within the node.
    unsigned device = 0;  ///< Device within the rank.
    FaultRegion region;

    bool operator==(const DevicePart &) const = default;
};

/**
 * A fault instance, as produced by the fault sampler.
 *
 * Most faults have a single DevicePart; multi-rank faults carry one part
 * per affected rank.
 */
struct FaultRecord
{
    FaultMode mode = FaultMode::SingleBit;
    Persistence persistence = Persistence::Permanent;
    double timeHours = 0.0;    ///< Arrival time within the mission.
    bool hardPermanent = true; ///< Permanent subclass (vs intermittent).
    /// Activations per hour for hard-intermittent faults (paper Sec. 2:
    /// roughly once a month to more than once an hour).
    double activationRatePerHour = 0.0;
    std::vector<DevicePart> parts;

    bool permanent() const { return persistence == Persistence::Permanent; }

    bool operator==(const FaultRecord &) const = default;
};

} // namespace relaxfault

#endif // RELAXFAULT_FAULTS_FAULT_H
