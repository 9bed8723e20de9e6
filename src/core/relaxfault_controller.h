/**
 * @file
 * RelaxFaultController — the library's primary public API.
 *
 * A functional model of the paper's Fig. 3 system: a FreeFault-aware
 * memory controller augmented with the RelaxFault coalescer and
 * faulty-bank table, sitting between 64B line reads/writes and a
 * fault-injected DRAM array with chipkill ECC.
 *
 * Datapath (paper Figs. 5-6):
 *  - read: fetch the line from DRAM (stuck cells corrupt it); if the
 *    faulty-bank table flags the (DIMM, bank), substitute every repaired
 *    device's 4B sub-block from the remap store (bitwise AND/OR merge);
 *    then chipkill-decode and return the corrected 64B of data;
 *  - write: encode check symbols, store to DRAM, and refresh the remap
 *    store's sub-blocks for repaired locations so they stay coherent;
 *  - reportFault: attempt RelaxFault repair (allocate coalesced LLC
 *    lines within the way/capacity budget); remap lines are filled
 *    lazily from ECC-corrected DRAM data on first touch.
 *
 * The result is testable end-to-end: data written before or after faults
 * are injected reads back intact whenever repair (or ECC alone) covers
 * the damage, and the tests assert exactly that.
 */

#ifndef RELAXFAULT_CORE_RELAXFAULT_CONTROLLER_H
#define RELAXFAULT_CORE_RELAXFAULT_CONTROLLER_H

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/cache_geometry.h"
#include "dram/address_map.h"
#include "dram/functional_dram.h"
#include "ecc/chipkill.h"
#include "faults/fault_set.h"
#include "repair/degradation.h"
#include "repair/page_retirement.h"
#include "repair/relaxfault_repair.h"

namespace relaxfault {

class MetricRegistry;
class TraceSink;

/** Static configuration of a RelaxFault node. */
struct ControllerConfig
{
    DramGeometry geometry;
    CacheGeometry llc{8 * 1024 * 1024, 16, 64};
    RepairBudget budget{1, 32 * 1024};
    bool xorFold = true;       ///< RelaxFault map tag fold (Fig. 8).
    bool bankXorHash = true;   ///< DRAM-map bank permutation (Table 3).
    /**
     * Extension (off by default, not part of the paper): treat tracked
     * unrepaired faulty devices as ECC erasures on reads, letting the
     * RS(18,16) code ride out up to two known-bad devices per line at
     * the cost of detection margin.
     */
    bool erasureDecoding = false;
    /**
     * What to do when the repair budget is exhausted (or repair fails
     * for any other reason). The default, CountDue, matches the paper's
     * evaluation: the fault stays unrepaired and shows up as detected
     * uncorrectable errors. See DegradationPolicy.
     */
    DegradationPolicy degradation = DegradationPolicy::CountDue;
    /** OS frame size for the RetirePages fallback. */
    uint64_t retirePageBytes = 4096;
    /** Retirement-capacity cap for the RetirePages fallback. */
    uint64_t retireMaxBytes = 4ull * 1024 * 1024;
};

/** Table 1: on-chip metadata the mechanism adds. */
struct StorageOverhead
{
    uint64_t faultyBankTableBytes = 0;
    uint64_t coalescerBytes = 0;
    uint64_t llcTagExtensionBytes = 0;

    uint64_t totalBytes() const
    {
        return faultyBankTableBytes + coalescerBytes +
               llcTagExtensionBytes;
    }
};

/** Event counters of the datapath. */
struct ControllerStats
{
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t correctedReads = 0;     ///< ECC fixed >=1 codeword.
    uint64_t uncorrectableReads = 0; ///< DUE returned to the requester.
    uint64_t remapMerges = 0;        ///< Reads merged with remap data.
    uint64_t remapFills = 0;         ///< Remap lines filled (lazily).
    uint64_t erasureDecodes = 0;     ///< Reads decoded with erasures.
    uint64_t bankFilterHits = 0;     ///< Faulty-bank table said "maybe".
    uint64_t faultsReported = 0;
    uint64_t faultsRepaired = 0;
    uint64_t duplicateFaults = 0;    ///< Re-reports of tracked faults.
    uint64_t budgetExhausted = 0;    ///< Repair attempts that failed.
    uint64_t degradedToRetirement = 0;  ///< Fell back to page retirement.
    uint64_t degradedDues = 0;       ///< Left unrepaired, counted as DUE.
    uint64_t failStops = 0;          ///< Fail-stop transitions (0 or 1).
};

/** Functional RelaxFault memory controller over one node's memory. */
class RelaxFaultController
{
  public:
    static constexpr unsigned kLineBytes = 64;

    explicit RelaxFaultController(const ControllerConfig &config);

    /** Write one 64B line at a (line-aligned) physical address. */
    void write(uint64_t pa, const uint8_t data[kLineBytes]);

    /**
     * Read one 64B line; repaired locations are merged from the LLC and
     * residual errors go through chipkill. Returns the ECC outcome (data
     * is valid unless Uncorrectable).
     */
    EccStatus read(uint64_t pa, uint8_t data[kLineBytes]);

    /**
     * Read one 64B line by DRAM coordinates, skipping the physical-
     * address round trip — the scrubber's walk path, which iterates
     * coordinates directly. Identical outcome and stats to
     * `read(addressMap().encode(coord), data)`.
     */
    EccStatus readLine(const LineCoord &coord, uint8_t data[kLineBytes]);

    /**
     * Report a discovered fault (e.g., from a scrubber or the ECC error
     * path). Permanent faults are injected into the DRAM array and
     * repair is attempted. Returns true if the fault was fully remapped.
     */
    bool reportFault(const FaultRecord &fault);

    /**
     * Attempt repair of a region *without* injecting it as a new fault —
     * used when the damage already exists in the array and was merely
     * discovered (the scrubber's path). Remap lines are filled eagerly
     * through ECC. Returns true if fully remapped.
     */
    bool requestRepair(const FaultRecord &fault);

    /** Table 1 metadata accounting for a configuration. */
    static StorageOverhead storageOverhead(const ControllerConfig &config);

    /**
     * Observer of ECC events on the read path: receives the line's DRAM
     * coordinates, the mask of devices whose symbols were corrected,
     * and the decode status. This is the error log a scrubber clusters
     * into fault records (see FaultScrubber).
     */
    using ErrorObserver = std::function<void(
        const LineCoord &, uint32_t device_mask, EccStatus status)>;

    /** Install (or clear, with {}) the ECC-event observer. */
    void setErrorObserver(ErrorObserver observer);

    /**
     * Install (or clear, with nullptr) the causal trace sink: fault
     * reports, repair decisions, and degradation actions are recorded
     * with parent links (see `src/tracing/tracer.h`). Null costs one
     * branch per reported fault and nothing on the read/write path.
     */
    void setTraceSink(TraceSink *trace) { trace_ = trace; }

    /**
     * Snapshot-publish the datapath counters as `controller.*` gauges
     * and the repair engine's occupancy histograms. Publishing reads
     * existing counters — the read/write hot path is untouched, so this
     * costs nothing until called.
     */
    void publishTelemetry(MetricRegistry &registry) const;

    const ControllerStats &stats() const { return stats_; }
    const RelaxFaultRepair &repair() const { return repair_; }
    const FaultSet &faults() const { return faults_; }
    const DramAddressMap &addressMap() const { return addressMap_; }
    const ControllerConfig &config() const { return config_; }

    /**
     * True once the FailStop degradation policy has tripped: reads
     * return Uncorrectable and writes are dropped (the node is down, by
     * design, rather than silently running with unrepaired faults).
     */
    bool failedStop() const { return failedStop_; }

    /** The RetirePages fallback engine (null under other policies). */
    const PageRetirement *retirement() const { return retirement_.get(); }

    /** Remap-store keys in ascending order (audit walks). */
    std::vector<uint64_t> remapStoreKeys() const;

    /** Backdoor for tests: the underlying DRAM array. */
    FunctionalDram &dram() { return dram_; }

  private:
    using RemapLine = std::array<uint8_t, kLineBytes>;

    /** Remap-store key of a unit. */
    uint64_t unitKey(const RemapUnit &unit) const;

    /**
     * Ensure the remap line for @p unit exists, filling it from
     * ECC-corrected DRAM (the paper's first-access fill, Sec. 3.1).
     */
    RemapLine &ensureFilled(const RemapUnit &unit);

    /** Read one raw line and chipkill-decode it in place. */
    EccStatus fetchAndDecode(const LineCoord &coord,
                             uint8_t line[LineCodec::kLineBytes],
                             bool count_stats);

    /**
     * Index of a tracked permanent fault with the same mode and parts
     * as @p fault, or npos. Retried error reports deliver the same
     * damage twice; repairing it twice would burn budget for nothing.
     */
    size_t findDuplicate(const FaultRecord &fault) const;

    /** Apply the configured degradation after a failed repair. */
    void applyDegradation(const FaultRecord &fault);

    ControllerConfig config_;
    DramAddressMap addressMap_;
    FunctionalDram dram_;
    FaultSet faults_;
    RelaxFaultRepair repair_;
    std::unordered_map<uint64_t, RemapLine> remapStore_;
    ControllerStats stats_;
    ErrorObserver errorObserver_;
    TraceSink *trace_ = nullptr;
    std::unique_ptr<PageRetirement> retirement_;
    bool failedStop_ = false;
};

} // namespace relaxfault

#endif // RELAXFAULT_CORE_RELAXFAULT_CONTROLLER_H
