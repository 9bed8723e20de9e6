/**
 * @file
 * Deterministic fault injection into the repair machinery's own
 * metadata.
 *
 * Hardware/software fault-injection studies (Soyturk et al.) show that
 * perturbing the *protection* structures is the only way to validate
 * their containment claims. This injector produces exactly the
 * corruption classes the containment tests enumerate:
 *
 *  bit flips in repair metadata:
 *   - remap/tag keys (RelaxFault coalescer and FreeFault lock table),
 *   - faulty-bank-table bits (the hardware miss filter),
 *   - per-set locked-way counters,
 *   - serialized fault-log records (the durable boot log);
 *  state-machine perturbations:
 *   - duplicate arrival of an already-reported fault,
 *   - dropped / reordered scrub observations.
 *
 * Every choice the injector makes is drawn from `Rng::forkAt(seed, n)`
 * where n is the injection ordinal, so a seed pins the whole corruption
 * sequence regardless of call interleaving — tests replay the exact
 * same damage on every run. The tests then prove each class is either
 * *detected* (an InvariantAuditor violation, a fault-log checksum
 * mismatch) or *harmless* (idempotent duplicate handling, scrub
 * convergence).
 */

#ifndef RELAXFAULT_AUDIT_METADATA_INJECTOR_H
#define RELAXFAULT_AUDIT_METADATA_INJECTOR_H

#include <cstdint>
#include <optional>
#include <string>

#include "common/rng.h"
#include "faults/fault.h"

namespace relaxfault {

class LlcLineRepair;
class RelaxFaultRepair;
class RelaxFaultController;
class FaultScrubber;

/** Corruption classes the injector can produce. */
enum class MetadataCorruption : uint8_t
{
    RemapKeyBit,       ///< Flip one bit of one allocated repair key.
    BankTableBit,      ///< Flip one faulty-bank-table bit.
    SetLoadCounter,    ///< Flip one per-set locked-way counter bit.
    FaultLogRecord,    ///< Flip one character of a serialized log.
    DuplicateFault,    ///< Re-deliver an already-reported fault.
    DroppedScrubObservation,  ///< Erase one pending scrub observation.
};

/** Stable name of a corruption class (reports/tests). */
const char *metadataCorruptionName(MetadataCorruption corruption);

/** Deterministic injector over repair metadata and event streams. */
class MetadataFaultInjector
{
  public:
    /** One performed injection, for logging and assertions. */
    struct Injection
    {
        MetadataCorruption corruption;
        std::string detail;
    };

    explicit MetadataFaultInjector(uint64_t seed) : seed_(seed) {}

    /**
     * Flip one deterministic bit of one allocated repair key (tag RAM
     * of RelaxFault's coalescer or FreeFault's lock table). Returns
     * nullopt when no line is allocated or the flipped key collides
     * with an existing allocation.
     */
    std::optional<Injection> flipKeyBit(LlcLineRepair &repair);

    /** Flip one faulty-bank-table bit (set or clear at random). */
    std::optional<Injection> flipBankTableBit(RelaxFaultRepair &repair);

    /**
     * Flip one bit of one occupied set's locked-way counter. Returns
     * nullopt when no set is occupied.
     */
    std::optional<Injection> corruptSetLoad(LlcLineRepair &repair);

    /**
     * Flip one character of a serialized fault log in place (durable
     * storage corruption). Returns nullopt for an empty log.
     */
    std::optional<Injection> corruptFaultLogText(std::string &log);

    /**
     * Re-deliver @p fault to the controller, modeling a duplicate
     * arrival from a retried error report.
     */
    std::optional<Injection>
    duplicateFault(RelaxFaultController &controller,
                   const FaultRecord &fault);

    /**
     * Erase one pending scrub observation (a lost ECC event). Returns
     * nullopt when the scrubber has no pending observations.
     */
    std::optional<Injection> dropScrubObservation(FaultScrubber &scrubber);

    /** Number of injections performed (successful or not). */
    uint64_t injections() const { return count_; }

  private:
    /** Independent stream for the next injection. */
    Rng draw() { return Rng::forkAt(seed_, count_++); }

    uint64_t seed_;
    uint64_t count_ = 0;
};

} // namespace relaxfault

#endif // RELAXFAULT_AUDIT_METADATA_INJECTOR_H
