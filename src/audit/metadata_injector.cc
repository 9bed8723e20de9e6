#include "audit/metadata_injector.h"

#include <string>
#include <vector>

#include "core/relaxfault_controller.h"
#include "core/scrubber.h"
#include "repair/relaxfault_repair.h"

namespace relaxfault {

const char *
metadataCorruptionName(MetadataCorruption corruption)
{
    switch (corruption) {
    case MetadataCorruption::RemapKeyBit:
        return "remap_key_bit";
    case MetadataCorruption::BankTableBit:
        return "bank_table_bit";
    case MetadataCorruption::SetLoadCounter:
        return "set_load_counter";
    case MetadataCorruption::FaultLogRecord:
        return "fault_log_record";
    case MetadataCorruption::DuplicateFault:
        return "duplicate_fault";
    case MetadataCorruption::DroppedScrubObservation:
        return "dropped_scrub_observation";
    }
    return "unknown";
}

std::optional<MetadataFaultInjector::Injection>
MetadataFaultInjector::flipKeyBit(LlcLineRepair &repair)
{
    Rng rng = draw();
    RepairLineTracker &tracker = repair.trackerForInjection();
    const std::vector<uint64_t> keys = tracker.sortedKeys();
    if (keys.empty())
        return std::nullopt;
    // Two bits above the valid key width model a flip in unused tag RAM
    // cells — those must decode as out-of-image and be caught too.
    const unsigned width = repair.keyBits() + 2;
    // A flipped bit can land on another allocated key; that would model
    // two tag entries merging, which the tracker backdoor rejects. Retry
    // with fresh draws — collisions are rare, so a few attempts suffice.
    for (int attempt = 0; attempt < 8; ++attempt) {
        const uint64_t old_key = keys[rng.uniformInt(keys.size())];
        const uint64_t new_key =
            old_key ^ (uint64_t{1} << rng.uniformInt(width));
        if (tracker.corruptReplaceKey(old_key, new_key))
            return Injection{MetadataCorruption::RemapKeyBit,
                             "key " + std::to_string(old_key) + " -> " +
                                 std::to_string(new_key)};
    }
    return std::nullopt;
}

std::optional<MetadataFaultInjector::Injection>
MetadataFaultInjector::flipBankTableBit(RelaxFaultRepair &repair)
{
    Rng rng = draw();
    const DramGeometry &geometry = repair.geometry();
    const unsigned dimm = rng.uniformInt(geometry.dimmsPerNode());
    const unsigned bank = rng.uniformInt(geometry.banksPerDevice);
    repair.corruptBankTableBit(dimm, bank);
    return Injection{MetadataCorruption::BankTableBit,
                     "dimm " + std::to_string(dimm) + " bank " +
                         std::to_string(bank)};
}

std::optional<MetadataFaultInjector::Injection>
MetadataFaultInjector::corruptSetLoad(LlcLineRepair &repair)
{
    Rng rng = draw();
    RepairLineTracker &tracker = repair.trackerForInjection();
    std::vector<uint64_t> occupied;
    for (uint64_t set = 0; set < tracker.sets(); ++set) {
        if (tracker.setLoad(set) != 0)
            occupied.push_back(set);
    }
    if (occupied.empty())
        return std::nullopt;
    const uint64_t set = occupied[rng.uniformInt(occupied.size())];
    const uint16_t old_load = tracker.setLoad(set);
    const uint16_t new_load =
        old_load ^ uint16_t{1} << rng.uniformInt(4);
    tracker.corruptSetLoad(set, new_load);
    return Injection{MetadataCorruption::SetLoadCounter,
                     "set " + std::to_string(set) + " load " +
                         std::to_string(old_load) + " -> " +
                         std::to_string(new_load)};
}

std::optional<MetadataFaultInjector::Injection>
MetadataFaultInjector::corruptFaultLogText(std::string &log)
{
    Rng rng = draw();
    if (log.empty())
        return std::nullopt;
    // Keep the line structure intact: flip a data character, not a
    // newline, so the corruption models a flipped storage bit rather
    // than a truncated file.
    for (int attempt = 0; attempt < 16; ++attempt) {
        const size_t pos = rng.uniformInt(log.size());
        if (log[pos] == '\n')
            continue;
        const char flipped =
            static_cast<char>(log[pos] ^ (1 << rng.uniformInt(7)));
        if (flipped == '\n' || flipped == '\0')
            continue;
        log[pos] = flipped;
        return Injection{MetadataCorruption::FaultLogRecord,
                         "byte " + std::to_string(pos)};
    }
    return std::nullopt;
}

std::optional<MetadataFaultInjector::Injection>
MetadataFaultInjector::duplicateFault(RelaxFaultController &controller,
                                      const FaultRecord &fault)
{
    (void)draw();  // Consume an ordinal so injection sequences stay
                   // aligned across runs that mix corruption classes.
    controller.reportFault(fault);
    return Injection{MetadataCorruption::DuplicateFault,
                     "re-reported fault with " +
                         std::to_string(fault.parts.size()) + " part(s)"};
}

std::optional<MetadataFaultInjector::Injection>
MetadataFaultInjector::dropScrubObservation(FaultScrubber &scrubber)
{
    Rng rng = draw();
    const size_t count = scrubber.observationCount();
    if (count == 0)
        return std::nullopt;
    const size_t index = rng.uniformInt(count);
    scrubber.corruptDropObservation(index);
    return Injection{MetadataCorruption::DroppedScrubObservation,
                     "observation " + std::to_string(index) + " of " +
                         std::to_string(count)};
}

} // namespace relaxfault
