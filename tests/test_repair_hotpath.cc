/**
 * @file
 * Differential tests for the repair hot path: the coset-factored
 * RepairLineTracker (per-row index entries, per-coset row loads, O(1)
 * whole-row stage/rollback/reset) with streamed stage()/stageRow()/
 * finish() adds, the pigeonhole pre-check and the factored row
 * footprint (XOR-delta lines and coset reductions) in FreeFault and
 * RelaxFault tryRepair, and PPR's spare-row pigeonhole.
 *
 * The oracles are the implementations those replaced, kept here only:
 * an unordered_set tracker with a whole-request staging pass and a
 * full-array reset; mechanisms that translate every line in full and
 * enumerate it; and PPR's O(n^2) pending scan with a group map. The
 * suites require:
 *
 *  - identical observable state between the tracker and the oracle
 *    over seeded random op sequences of single lines (shared and
 *    duplicate keys, line-cap and way-cap rejects, index growth, reset,
 *    both corruption backdoors);
 *  - the same over random sequences of row ops on the mechanisms'
 *    footprints (FreeFault at m = 1 and m > 1, RelaxFault, hash-only
 *    RelaxFault; {1,4,16} ways): whole rows, partly locked rows,
 *    explicit columns, single lines and rows overlapping locked lines,
 *    rejects in the middle of a fault, reset, index growth and both
 *    backdoors, with allocatedKeys() in per-line staging order;
 *  - that a pigeonhole reject never rejects a fault the full
 *    enumeration would accept, for sampled faults of every mode at
 *    {1,4,16} ways with and without set hashing;
 *  - that every XOR-delta line equals the full encode + setIndex
 *    (FreeFault, every registered address map, an 8MiB and a 256-set
 *    LLC, hashing on and off) or locate (RelaxFault, both structured
 *    modes), and that a row's lines make one key coset, unit by unit,
 *    and m lines in each set of one set coset;
 *  - that every tryRepair makes the enumeration's decision with the
 *    same key order, loads, line count and ways: sampled faults of
 *    every mode, {1,4,16} ways, every scheme, m = 1 and m > 1, on
 *    trackers empty, holding some of the fault's own lines, or with its
 *    sets filled near the ceiling; hash-only RelaxFault, and faults
 *    whose rows may share lines (shared banks, explicit columns),
 *    included;
 *  - that PPR's pigeonhole never rejects what row enumeration accepts,
 *    and PPR decides, counts spares and marks rows as it did (DDR3 and
 *    DDR4 bank groups, 1/2/4 spares);
 *  - identical per-fault repair decisions when a 10x-FIT node stream
 *    replays through the production mechanisms and through the
 *    enumerate-everything mechanisms built on the oracle tracker.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "faults/fault_geometry.h"
#include "faults/fault_model.h"
#include "repair/freefault_repair.h"
#include "repair/line_tracker.h"
#include "repair/ppr_repair.h"
#include "repair/relaxfault_repair.h"
#include "repair/row_footprint.h"
#include "telemetry/metrics.h"

namespace relaxfault {
namespace {

using Lines = std::vector<std::pair<uint64_t, uint64_t>>;

/** The unordered-container tracker, kept as the reference. */
class OracleLineTracker
{
  public:
    OracleLineTracker(uint64_t sets, const RepairBudget &budget)
        : budget_(budget), load_(sets, 0)
    {
    }

    bool tryAdd(const Lines &lines)
    {
        std::unordered_map<uint64_t, unsigned> set_increase;
        std::unordered_set<uint64_t> new_keys;
        for (const auto &[set, key] : lines) {
            if (allocated_.count(key) || new_keys.count(key))
                continue;
            new_keys.insert(key);
            ++set_increase[set];
        }
        if (usedLines_ + new_keys.size() > budget_.maxLines)
            return false;
        for (const auto &[set, increase] : set_increase) {
            if (load_[set] + increase > budget_.maxWaysPerSet)
                return false;
        }
        for (const auto &[set, key] : lines) {
            if (!new_keys.count(key))
                continue;
            new_keys.erase(key);
            allocated_.insert(key);
            ++load_[set];
            maxWaysUsed_ = std::max<unsigned>(maxWaysUsed_, load_[set]);
            ++usedLines_;
        }
        return true;
    }

    bool contains(uint64_t key) const { return allocated_.count(key) != 0; }
    uint64_t usedLines() const { return usedLines_; }
    unsigned maxWaysUsed() const { return maxWaysUsed_; }
    unsigned setLoad(uint64_t set) const { return load_[set]; }

    std::vector<uint64_t> sortedKeys() const
    {
        std::vector<uint64_t> keys(allocated_.begin(), allocated_.end());
        std::sort(keys.begin(), keys.end());
        return keys;
    }

    bool corruptReplaceKey(uint64_t old_key, uint64_t new_key)
    {
        if (allocated_.count(old_key) == 0 || allocated_.count(new_key) != 0)
            return false;
        allocated_.erase(old_key);
        allocated_.insert(new_key);
        return true;
    }

    void corruptSetLoad(uint64_t set, uint16_t value) { load_[set] = value; }

    void reset()
    {
        std::fill(load_.begin(), load_.end(), 0);
        allocated_.clear();
        usedLines_ = 0;
        maxWaysUsed_ = 0;
    }

  private:
    RepairBudget budget_;
    std::vector<uint16_t> load_;
    std::unordered_set<uint64_t> allocated_;
    uint64_t usedLines_ = 0;
    unsigned maxWaysUsed_ = 0;
};

void
expectSameState(const RepairLineTracker &flat,
                const OracleLineTracker &oracle, const std::string &where)
{
    ASSERT_EQ(flat.usedLines(), oracle.usedLines()) << where;
    ASSERT_EQ(flat.maxWaysUsed(), oracle.maxWaysUsed()) << where;
    for (uint64_t set = 0; set < flat.sets(); ++set)
        ASSERT_EQ(flat.setLoad(set), oracle.setLoad(set))
            << where << " set " << set;
    const std::vector<uint64_t> keys = oracle.sortedKeys();
    ASSERT_EQ(flat.sortedKeys(), keys) << where;
    ASSERT_EQ(flat.allocatedKeys().size(), keys.size()) << where;
    for (const uint64_t key : keys)
        ASSERT_TRUE(flat.contains(key)) << where << " key " << key;
    // publishSetLoads walks only the occupied sets: it must still see
    // every one once, also after the load-corruption backdoor.
    Log2Histogram hist;
    uint64_t occupied = 0;
    uint64_t sum = 0;
    for (uint64_t set = 0; set < flat.sets(); ++set) {
        occupied += oracle.setLoad(set) != 0;
        sum += oracle.setLoad(set);
    }
    ASSERT_EQ(flat.publishSetLoads(hist), occupied) << where;
    ASSERT_EQ(hist.snapshot().count, occupied) << where;
    ASSERT_EQ(hist.snapshot().sum, sum) << where;
}

// ---------------------------------------------------------------------
// Tracker vs oracle over random op sequences.

/** One random tryAdd request against the keys locked so far. */
Lines
randomRequest(Rng &rng, const std::vector<uint64_t> &locked,
              uint64_t sets, uint64_t key_space, unsigned max_lines)
{
    Lines lines;
    const unsigned count = static_cast<unsigned>(rng.uniformInt(max_lines + 1));
    for (unsigned i = 0; i < count; ++i) {
        const uint64_t pick = rng.uniformInt(10);
        uint64_t key;
        if (pick < 2 && !locked.empty()) {
            key = locked[rng.uniformInt(locked.size())];  // Shared.
        } else if (pick < 4 && !lines.empty()) {
            key = lines[rng.uniformInt(lines.size())].second;  // In-call dup.
        } else {
            key = rng.uniformInt(key_space);
        }
        // Mostly a fixed key -> set function, as the mechanisms have;
        // sometimes an arbitrary set.
        const uint64_t set =
            rng.uniformInt(10) == 0 ? rng.uniformInt(sets) : key % sets;
        lines.emplace_back(set, key);
    }
    return lines;
}

TEST(LineTrackerDifferential, MatchesOracleOverRandomOpSequences)
{
    constexpr unsigned kSequences = 10000;
    unsigned index_growths = 0;
    unsigned line_cap_rejects = 0;
    unsigned way_rejects = 0;
    for (unsigned seq = 0; seq < kSequences; ++seq) {
        Rng rng(0x5eed0000u + seq);
        const uint64_t sets = 1 + rng.uniformInt(96);
        RepairBudget budget;
        budget.maxWaysPerSet = 1 + static_cast<unsigned>(rng.uniformInt(6));
        // Every 8th sequence allows far more lines than the index starts
        // with, so the index has to grow mid-request.
        budget.maxLines = seq % 8 == 0 ? 1200 : 1 + rng.uniformInt(160);
        const uint64_t key_space = 8 + rng.uniformInt(4000);
        const unsigned big = seq % 8 == 0 ? 600 : 40;
        RepairLineTracker flat(sets, budget);
        OracleLineTracker oracle(sets, budget);
        const std::string tag = "sequence " + std::to_string(seq);

        for (unsigned op = 0; op < 24; ++op) {
            const std::string where = tag + " op " + std::to_string(op);
            const uint64_t kind = rng.uniformInt(20);
            if (kind < 14) {
                const Lines lines = randomRequest(
                    rng, oracle.sortedKeys(), sets, key_space,
                    rng.uniformInt(4) == 0 ? big : 12);
                const uint64_t before = oracle.usedLines();
                const bool expect = oracle.tryAdd(lines);
                ASSERT_EQ(flat.tryAdd(lines), expect) << where;
                if (expect && before <= 128 && oracle.usedLines() > 128)
                    ++index_growths;
                if (!expect) {
                    std::unordered_set<uint64_t> fresh;
                    for (const auto &line : lines) {
                        if (!oracle.contains(line.second))
                            fresh.insert(line.second);
                    }
                    if (before + fresh.size() > budget.maxLines)
                        ++line_cap_rejects;
                    else
                        ++way_rejects;
                }
            } else if (kind < 16) {
                flat.reset();
                oracle.reset();
            } else if (kind < 18) {
                const std::vector<uint64_t> keys = oracle.sortedKeys();
                const uint64_t old_key = keys.empty()
                    ? rng.uniformInt(key_space)
                    : keys[rng.uniformInt(keys.size())];
                const uint64_t new_key =
                    old_key ^ (uint64_t{1} << rng.uniformInt(13));
                ASSERT_EQ(flat.corruptReplaceKey(old_key, new_key),
                          oracle.corruptReplaceKey(old_key, new_key))
                    << where;
            } else {
                const uint64_t set = rng.uniformInt(sets);
                const auto value =
                    static_cast<uint16_t>(rng.uniformInt(budget.maxWaysPerSet + 3));
                flat.corruptSetLoad(set, value);
                oracle.corruptSetLoad(set, value);
                if (rng.uniformInt(2) == 0) {
                    flat.reset();
                    oracle.reset();
                }
            }
            expectSameState(flat, oracle, where);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
    // The sequences must actually reach every interesting path.
    EXPECT_GT(index_growths, 100u);
    EXPECT_GT(line_cap_rejects, 1000u);
    EXPECT_GT(way_rejects, 1000u);
}

TEST(LineTrackerDifferential, StageStopsAtTheFirstOverflow)
{
    RepairLineTracker tracker(4, RepairBudget{2, 100});
    ASSERT_TRUE(tracker.stage(1, 10));
    ASSERT_TRUE(tracker.stage(1, 11));
    ASSERT_TRUE(tracker.stage(1, 10));   // Staged already: shared.
    EXPECT_FALSE(tracker.stage(1, 12));  // Third way of set 1.
    EXPECT_FALSE(tracker.finish(false));
    EXPECT_EQ(tracker.usedLines(), 0u);
    EXPECT_EQ(tracker.setLoad(1), 0u);
    EXPECT_FALSE(tracker.contains(10));

    ASSERT_TRUE(tracker.stage(2, 20));
    EXPECT_TRUE(tracker.finish(true));
    EXPECT_EQ(tracker.usedLines(), 1u);
    EXPECT_EQ(tracker.maxWaysUsed(), 1u);
    EXPECT_TRUE(tracker.contains(20));
}

TEST(LineTrackerDifferential, RegionVisitorStopsTheWalk)
{
    const DramGeometry geometry;
    RegionCluster cluster;
    cluster.bankMask = 0b101;
    cluster.rows = RowSet::of({3, 4, 5});
    cluster.cols = ColSet::allCols();
    const FaultRegion region({cluster});
    unsigned visits = 0;
    EXPECT_FALSE(region.forEachUnit(
        geometry, 1, [&](unsigned, uint32_t, uint16_t) { return ++visits < 7; }));
    EXPECT_EQ(visits, 7u);
    visits = 0;
    EXPECT_TRUE(region.forEachUnit(geometry,
                                   geometry.colBlocksPerRemapUnit(),
                                   [&](unsigned, uint32_t, uint16_t) {
                                       ++visits;
                                   }));
    EXPECT_EQ(visits, region.remapUnitCount(geometry));
}

// ---------------------------------------------------------------------
// The mechanisms as they were: enumerate every line, then tryAdd.

const CacheGeometry kLlc{8 * 1024 * 1024, 16, 64};
constexpr uint64_t kMaxLines = 2 * 1024 * 1024 / 64;

/** FreeFault decision procedure on the oracle tracker. */
class OracleFreeFault
{
  public:
    explicit OracleFreeFault(const FreeFaultRepair &twin)
        : twin_(twin), tracker_(twin.tracker().sets(), twin.tracker().budget())
    {
    }

    bool tryRepair(const FaultRecord &fault)
    {
        const DramGeometry &geometry = twin_.addressMap().geometry();
        uint64_t total_lines = 0;
        for (const auto &part : fault.parts) {
            if (part.region.massive())
                return false;
            total_lines += part.region.lineSliceCount(geometry);
        }
        if (total_lines > kMaxLines)
            return false;
        return tracker_.tryAdd(lines(fault));
    }

    /** Every (set, key) line of @p fault. */
    Lines lines(const FaultRecord &fault) const
    {
        const DramGeometry &geometry = twin_.addressMap().geometry();
        Lines out;
        for (const auto &part : fault.parts) {
            LineCoord coord;
            coord.channel = part.dimm / geometry.ranksPerChannel;
            coord.rank = part.dimm % geometry.ranksPerChannel;
            part.region.forEachUnit(
                geometry, 1, [&](unsigned bank, uint32_t row, uint16_t col) {
                    coord.bank = bank;
                    coord.row = row;
                    coord.colBlock = col;
                    const uint64_t pa = twin_.addressMap().encode(coord);
                    out.emplace_back(twin_.indexer().setIndex(pa),
                                     pa >> geometry.offsetBits());
                });
        }
        return out;
    }

    const OracleLineTracker &tracker() const { return tracker_; }
    const DramGeometry &geometry() const
    {
        return twin_.addressMap().geometry();
    }
    void reset() { tracker_.reset(); }

  private:
    const FreeFaultRepair &twin_;
    OracleLineTracker tracker_;
};

/** RelaxFault decision procedure on the oracle tracker. */
class OracleRelaxFault
{
  public:
    explicit OracleRelaxFault(const RelaxFaultRepair &twin)
        : twin_(twin), tracker_(twin.tracker().sets(), twin.tracker().budget())
    {
    }

    bool tryRepair(const FaultRecord &fault)
    {
        const DramGeometry &geometry = twin_.map().geometry();
        uint64_t total_units = 0;
        for (const auto &part : fault.parts) {
            if (part.region.massive())
                return false;
            total_units += part.region.remapUnitCount(geometry);
        }
        if (total_units > kMaxLines)
            return false;
        return tracker_.tryAdd(lines(fault));
    }

    Lines lines(const FaultRecord &fault) const
    {
        const RelaxFaultMap &map = twin_.map();
        const DramGeometry &geometry = map.geometry();
        Lines out;
        for (const auto &part : fault.parts) {
            RemapUnit unit;
            unit.dimm = part.dimm;
            unit.device = part.device;
            part.region.forEachUnit(
                geometry, geometry.colBlocksPerRemapUnit(),
                [&](unsigned bank, uint32_t row, uint16_t g) {
                    unit.bank = bank;
                    unit.row = row;
                    unit.colGroup = g;
                    const RemapLocation loc = map.locate(unit);
                    out.emplace_back(loc.set, loc.key(map.setBits()));
                });
        }
        return out;
    }

    const OracleLineTracker &tracker() const { return tracker_; }
    const DramGeometry &geometry() const { return twin_.map().geometry(); }
    void reset() { tracker_.reset(); }

  private:
    const RelaxFaultRepair &twin_;
    OracleLineTracker tracker_;
};

/** The pre-check's verdict, recomputed from its definition. */
bool
pigeonholeRejects(const FaultRecord &fault, const DramGeometry &geometry,
                  const RepairBudget &budget, uint64_t sets, bool units)
{
    const unsigned cols = units ? geometry.colBlocksPerRemapUnit() : 1;
    uint64_t largest = 0;
    for (const auto &part : fault.parts) {
        for (const auto &cluster : part.region.clusters()) {
            largest = std::max(
                largest, FaultRegion::clusterUnits(cluster, geometry, cols));
        }
    }
    return largest > sets * budget.maxWaysPerSet;
}

/** Sampled faults: every mode from the geometry sampler, plus nodes. */
std::vector<FaultRecord>
sampledFaults(const DramGeometry &geometry = DramGeometry{})
{
    FaultModelConfig config;
    config.geometry = geometry;
    config.fitScale = 10.0;
    const FaultGeometrySampler regions(config.geometry,
                                       config.geometryParams);
    std::vector<FaultRecord> faults;
    Rng rng(2016);
    for (unsigned mode = 0; mode < kFaultModeCount; ++mode) {
        for (unsigned i = 0; i < 60; ++i) {
            FaultRecord fault;
            fault.mode = static_cast<FaultMode>(mode);
            const auto dimm = static_cast<unsigned>(
                rng.uniformInt(config.geometry.dimmsPerNode()));
            const auto device = static_cast<unsigned>(
                rng.uniformInt(config.geometry.devicesPerRank()));
            fault.parts.push_back(
                {dimm, device, regions.sample(fault.mode, rng)});
            faults.push_back(std::move(fault));
        }
    }
    const NodeFaultSampler nodes(config);
    for (unsigned n = 0; n < 64; ++n) {
        for (FaultRecord &fault : nodes.sampleNode(rng).faults) {
            if (fault.permanent())
                faults.push_back(std::move(fault));
        }
    }
    return faults;
}

TEST(PigeonholeDifferential, RejectImpliesFullEnumerationRejects)
{
    const std::vector<FaultRecord> faults = sampledFaults();
    const DramGeometry geometry;
    const DramAddressMap address_map = makeAddressMap("fig7a", geometry);
    unsigned fired = 0;
    for (const unsigned ways : {1u, 4u, 16u}) {
        for (const bool hash : {true, false}) {
            const RepairBudget budget{ways, kMaxLines};
            for (const FaultRecord &fault : faults) {
                // Fresh mechanisms: the pre-check must hold with nothing
                // locked, and a fault that fails it can never fit later.
                FreeFaultRepair free_repair(address_map, kLlc, budget, hash);
                OracleFreeFault free_oracle(free_repair);
                const bool free_ph = pigeonholeRejects(
                    fault, geometry, budget, kLlc.sets(), false);
                const bool free_full = free_oracle.tryRepair(fault);
                EXPECT_FALSE(free_ph && free_full)
                    << "FreeFault " << ways << "way hash=" << hash;
                EXPECT_EQ(free_repair.tryRepair(fault), free_full);

                RelaxFaultRepair relax_repair(geometry, kLlc, budget, hash);
                OracleRelaxFault relax_oracle(relax_repair);
                const bool relax_ph = pigeonholeRejects(
                    fault, geometry, budget, kLlc.sets(), true);
                const bool relax_full = relax_oracle.tryRepair(fault);
                EXPECT_FALSE(relax_ph && relax_full)
                    << "RelaxFault " << ways << "way hash=" << hash;
                EXPECT_EQ(relax_repair.tryRepair(fault), relax_full);
                fired += free_ph + relax_ph;
            }
        }
    }
    // The sample must contain faults the pre-check actually rejects.
    EXPECT_GT(fired, 0u);
}

/** @p copies identical clusters of @p rows whole rows in bank 1. */
FaultRecord
repeatedRowsFault(unsigned rows, unsigned copies)
{
    std::vector<uint32_t> list;
    for (unsigned i = 0; i < rows; ++i)
        list.push_back(2048 + i);
    RegionCluster cluster;
    cluster.bankMask = 1u << 1;
    cluster.rows = RowSet::of(std::move(list));
    cluster.cols = ColSet::allCols();
    FaultRecord fault;
    fault.parts.push_back(
        {2, 5, FaultRegion(std::vector<RegionCluster>(copies, cluster))});
    return fault;
}

TEST(PigeonholeDifferential, BoundUsesTheLargestClusterAndIsTight)
{
    const DramGeometry geometry;
    const DramAddressMap address_map = makeAddressMap("fig7a", geometry);
    const RepairBudget one_way{1, kMaxLines};
    for (const bool hash : {true, false}) {
        // 520 copies of one row: 8,320 summed units, 16 distinct. A sum
        // bound (> 8,192 = sets x 1 way) would reject a fault that fits.
        RelaxFaultRepair relax(geometry, kLlc, one_way, hash);
        OracleRelaxFault relax_oracle(relax);
        const FaultRecord overlapping = repeatedRowsFault(1, 520);
        ASSERT_TRUE(relax_oracle.tryRepair(overlapping));
        EXPECT_TRUE(relax.tryRepair(overlapping)) << "hash=" << hash;

        // 512 whole rows: exactly sets x 1 way units. The structured
        // map gives each its own set, so the fault fits with every set
        // full; a bound of >= instead of > would reject it.
        RelaxFaultRepair exact(geometry, kLlc, one_way, hash);
        OracleRelaxFault exact_oracle(exact);
        const FaultRecord full = repeatedRowsFault(512, 1);
        ASSERT_EQ(FaultRegion::clusterUnits(
                      full.parts[0].region.clusters()[0], geometry,
                      geometry.colBlocksPerRemapUnit()),
                  kLlc.sets());
        const bool fits = exact_oracle.tryRepair(full);
        EXPECT_EQ(exact.tryRepair(full), fits) << "hash=" << hash;
        if (!hash) {
            EXPECT_TRUE(fits);
        }
    }
    // FreeFault: 33 copies of one row are 8,448 summed lines, 256
    // distinct ones.
    FreeFaultRepair free_repair(address_map, kLlc, one_way, true);
    OracleFreeFault free_oracle(free_repair);
    const FaultRecord overlapping = repeatedRowsFault(1, 33);
    ASSERT_TRUE(free_oracle.tryRepair(overlapping));
    EXPECT_TRUE(free_repair.tryRepair(overlapping));
}

// ---------------------------------------------------------------------
// The factored footprint: XOR-delta lines and the coset pre-check.

/** 256 sets: a row's 256 column blocks fold m > 1 deep into a set. */
const CacheGeometry kSmallLlc{256 * 1024, 16, 64};

/** FreeFault's line of @p coord by the full translation. */
RepairLine
encodedLine(const FreeFaultRepair &repair, const LineCoord &coord)
{
    const uint64_t pa = repair.addressMap().encode(coord);
    return {repair.indexer().setIndex(pa),
            pa >> repair.addressMap().geometry().offsetBits()};
}

/** RelaxFault's line of @p unit by the full translation. */
RepairLine
locatedLine(const RelaxFaultRepair &repair, const RemapUnit &unit)
{
    const RemapLocation loc = repair.map().locate(unit);
    return {loc.set, loc.key(repair.map().setBits())};
}

/** Column block 0 of (part, bank, row) on @p repair's rank layout. */
LineCoord
rowCoord(const FreeFaultRepair &repair, const DevicePart &part,
         unsigned bank, uint32_t row)
{
    const DramGeometry &geometry = repair.addressMap().geometry();
    LineCoord coord;
    coord.channel = part.dimm / geometry.ranksPerChannel;
    coord.rank = part.dimm % geometry.ranksPerChannel;
    coord.bank = bank;
    coord.row = row;
    return coord;
}

/**
 * The row whose unit 0 is @p base, by the footprint's coset reductions:
 * its keys are one key coset, unit c being entry unit c ^ (base's
 * unit), and its sets one set coset holding m of its lines each.
 */
void
expectRowCosets(const RowFootprint &footprint, const RepairLine &base,
                const std::string &where)
{
    const RowFootprint::KeyCoset row = footprint.keyCoset(base.key);
    const uint64_t set_coset = footprint.setCoset(base.set);
    std::unordered_map<uint64_t, unsigned> per_set;
    for (unsigned unit = 0; unit < footprint.units(); ++unit) {
        const RepairLine line = footprint.line(base, unit);
        const RowFootprint::KeyCoset key = footprint.keyCoset(line.key);
        ASSERT_EQ(key.coset, row.coset) << where << " unit " << unit;
        ASSERT_EQ(key.unit, unit ^ row.unit) << where << " unit " << unit;
        ASSERT_EQ(footprint.setCoset(line.set), set_coset)
            << where << " unit " << unit;
        ++per_set[line.set];
    }
    ASSERT_EQ(per_set.size(), footprint.setSpan().size()) << where;
    for (const auto &[set, lines] : per_set) {
        ASSERT_EQ(lines, footprint.linesPerSet()) << where << " set " << set;
        ASSERT_EQ(footprint.setCoset(set), set_coset) << where;
    }
}

TEST(RowFootprintDifferential, XorDeltaLinesMatchTheFullTranslation)
{
    const DramGeometry geometry;
    Rng rng(77);
    unsigned folded = 0;
    for (const std::string &scheme : addressMapNames()) {
        const DramAddressMap map = makeAddressMap(scheme, geometry);
        for (const CacheGeometry &llc : {kLlc, kSmallLlc}) {
            for (const bool hash : {true, false}) {
                const FreeFaultRepair repair(map, llc,
                                             RepairBudget{1, kMaxLines}, hash);
                const RowFootprint &footprint = repair.footprint();
                const std::string where = scheme + " sets " +
                    std::to_string(llc.sets()) + " hash=" +
                    std::to_string(hash);
                ASSERT_EQ(footprint.units(), geometry.colBlocksPerRow);
                ASSERT_GT(footprint.linesPerSet(), 0u) << where;
                folded += footprint.linesPerSet() > 1;
                for (unsigned sample = 0; sample < 24; ++sample) {
                    const DevicePart part{static_cast<unsigned>(
                        rng.uniformInt(geometry.dimmsPerNode())), 0, {}};
                    LineCoord coord = rowCoord(
                        repair, part,
                        static_cast<unsigned>(
                            rng.uniformInt(geometry.banksPerDevice)),
                        static_cast<uint32_t>(
                            rng.uniformInt(geometry.rowsPerBank)));
                    const RepairLine base = encodedLine(repair, coord);
                    for (unsigned col = 0; col < footprint.units(); ++col) {
                        coord.colBlock = col;
                        ASSERT_EQ(footprint.line(base, col),
                                  encodedLine(repair, coord))
                            << where << " col " << col;
                    }
                    expectRowCosets(footprint, base, where);
                }
            }
        }
    }
    // The small LLC must exercise m > 1 somewhere.
    EXPECT_GT(folded, 0u);

    for (const CacheGeometry &llc : {kLlc, kSmallLlc}) {
        for (const auto mode : {RelaxFaultMap::IndexMode::Structured,
                                RelaxFaultMap::IndexMode::StructuredFolded}) {
            const RelaxFaultRepair repair(geometry, llc,
                                          RepairBudget{1, kMaxLines}, mode);
            const RowFootprint &footprint = repair.footprint();
            ASSERT_EQ(footprint.units(), geometry.colBlocksPerRow / 16);
            EXPECT_EQ(footprint.linesPerSet(), 1u);
            for (unsigned sample = 0; sample < 200; ++sample) {
                RemapUnit unit;
                unit.dimm = static_cast<unsigned>(
                    rng.uniformInt(geometry.dimmsPerNode()));
                unit.device = static_cast<unsigned>(
                    rng.uniformInt(geometry.devicesPerRank()));
                unit.bank = static_cast<unsigned>(
                    rng.uniformInt(geometry.banksPerDevice));
                unit.row = static_cast<uint32_t>(
                    rng.uniformInt(geometry.rowsPerBank));
                const RepairLine base = locatedLine(repair, unit);
                for (unsigned group = 0; group < footprint.units(); ++group) {
                    unit.colGroup = static_cast<uint16_t>(group);
                    ASSERT_EQ(footprint.line(base, group),
                              locatedLine(repair, unit))
                        << repair.name() << " group " << group;
                }
                expectRowCosets(footprint, base, repair.name());
            }
        }
    }
    // Hash-only placement is not linear: one-unit rows, locate per unit.
    const RelaxFaultRepair hash_only(geometry, kLlc,
                                     RepairBudget{1, kMaxLines},
                                     RelaxFaultMap::IndexMode::HashOnly);
    EXPECT_EQ(hash_only.footprint().units(), 1u);
    EXPECT_EQ(hash_only.footprint().linesPerSet(), 1u);
}

// ---------------------------------------------------------------------
// Row ops on the mechanisms' footprints vs the oracle and line staging.

/** One staged item of a fault: a row's units or a single line. */
struct RowItem
{
    RepairLine base;  ///< The row's unit 0, or the line itself.
    ColSet cols;      ///< The row's columns; unused for a line.
    bool line = false;
};

/** What the row-op sequences reached. */
struct RowOpCounts
{
    unsigned wholeRows = 0;      ///< Whole rows in accepted faults.
    unsigned partialRows = 0;    ///< Rows met partly locked.
    unsigned columnRows = 0;     ///< Explicit-column rows.
    unsigned midRejects = 0;     ///< Rejects after a staged item.
    unsigned capRejects = 0;     ///< Rejects at the line cap.
    unsigned growths = 0;        ///< Sequences past 128 key cosets.
    unsigned replaced = 0;       ///< Tag-flip backdoor hits.
};

/**
 * One seeded sequence of faults, resets and backdoor flips through a
 * tracker keyed by @p footprint, an oracle fed each fault's lines as one
 * request, and a one-unit tracker staging them line by line. Decisions,
 * state and allocatedKeys() order must agree throughout.
 */
template <typename RowBase>
void
runRowOpSequence(const RowFootprint &footprint, uint64_t sets,
                 unsigned ways, uint64_t seed, RowBase &&row_base,
                 RowOpCounts &counts, const std::string &tag)
{
    const DramGeometry geometry;
    Rng rng(seed);
    const bool one_unit = footprint.units() == 1;
    RepairBudget budget{ways, kMaxLines};
    if (rng.uniformInt(4) == 0)
        budget.maxLines = 1 + rng.uniformInt(24 * footprint.units());
    RepairLineTracker rows(sets, budget, footprint);
    RepairLineTracker lines_only(sets, budget);
    OracleLineTracker oracle(sets, budget);

    const auto random_row = [&] {
        RemapUnit unit;
        unit.dimm = static_cast<unsigned>(rng.uniformInt(2));
        unit.device = static_cast<unsigned>(rng.uniformInt(2));
        unit.bank = static_cast<unsigned>(rng.uniformInt(2));
        unit.row = static_cast<uint32_t>(rng.uniformInt(geometry.rowsPerBank));
        unit.colGroup = static_cast<uint16_t>(
            one_unit ? rng.uniformInt(geometry.colBlocksPerRow / 16) : 0);
        return row_base(unit);
    };
    // Rows recur from a small pool, so faults overlap locked lines.
    std::vector<RepairLine> pool;
    for (unsigned i = 0; i < 10; ++i)
        pool.push_back(random_row());

    const auto random_item = [&] {
        RowItem item;
        item.base = pool[rng.uniformInt(pool.size())];
        const uint64_t kind = one_unit ? 0 : rng.uniformInt(6);
        if (kind < 3) {
            item.cols = ColSet::allCols();
        } else if (kind < 5) {
            std::vector<uint16_t> cols;
            const auto count = 1 + rng.uniformInt(6);
            for (uint64_t i = 0; i < count; ++i)
                cols.push_back(static_cast<uint16_t>(
                    rng.uniformInt(geometry.colBlocksPerRow)));
            item.cols = ColSet::of(std::move(cols));
        } else {
            item.base = footprint.line(
                item.base,
                static_cast<unsigned>(rng.uniformInt(footprint.units())));
            item.line = true;
        }
        return item;
    };

    for (unsigned op = 0; op < 16; ++op) {
        const std::string where = tag + " op " + std::to_string(op);
        const uint64_t kind = rng.uniformInt(20);
        if (kind < 15) {
            std::vector<RowItem> items;
            if (kind == 0) {
                // Many fresh whole rows: grows the index, and often
                // overflows a coset or the cap midway.
                const auto count = 40 + rng.uniformInt(200);
                for (uint64_t i = 0; i < count; ++i)
                    items.push_back({random_row(), ColSet::allCols(), false});
            } else {
                const auto count = 1 + rng.uniformInt(6);
                for (uint64_t i = 0; i < count; ++i)
                    items.push_back(random_item());
            }
            Lines lines;
            for (const RowItem &item : items) {
                if (item.line) {
                    lines.emplace_back(item.base.set, item.base.key);
                    continue;
                }
                FaultRegion::forEachColumnUnit(
                    item.cols, footprint.colsPerUnit(), footprint.units(),
                    [&](uint16_t unit) {
                        const RepairLine line = footprint.line(item.base, unit);
                        lines.emplace_back(line.set, line.key);
                    });
            }
            const uint64_t before = oracle.usedLines();
            const bool expect = oracle.tryAdd(lines);
            ASSERT_EQ(lines_only.tryAdd(lines), expect) << where;

            bool fits = true;
            size_t staged = 0;
            for (const RowItem &item : items) {
                if (!item.line && !item.cols.all)
                    ++counts.columnRows;
                if (!item.line && item.cols.all) {
                    unsigned locked = 0;
                    for (unsigned unit = 0; unit < footprint.units(); ++unit)
                        locked += oracle.contains(
                            footprint.line(item.base, unit).key);
                    counts.partialRows +=
                        locked > 0 && locked < footprint.units();
                }
                fits = item.line ? rows.stage(item.base.set, item.base.key)
                                 : rows.stageRow(item.base, item.cols);
                if (!fits)
                    break;
                ++staged;
            }
            ASSERT_EQ(rows.finish(fits), expect) << where;
            if (!expect) {
                counts.midRejects += staged > 0;
                std::unordered_set<uint64_t> fresh;
                for (const auto &line : lines) {
                    if (!oracle.contains(line.second))
                        fresh.insert(line.second);
                }
                counts.capRejects += before + fresh.size() > budget.maxLines;
            } else {
                for (const RowItem &item : items)
                    counts.wholeRows += !item.line && item.cols.all;
            }
        } else if (kind < 16) {
            rows.reset();
            lines_only.reset();
            oracle.reset();
        } else if (kind < 18) {
            // Flip a locked key, sometimes onto a pool row's line.
            const std::vector<uint64_t> keys = oracle.sortedKeys();
            if (keys.empty())
                continue;
            const uint64_t old_key = keys[rng.uniformInt(keys.size())];
            const uint64_t new_key = rng.uniformInt(2) == 0
                ? old_key ^ (uint64_t{1} << rng.uniformInt(13))
                : footprint.line(pool[rng.uniformInt(pool.size())],
                                 static_cast<unsigned>(rng.uniformInt(
                                     footprint.units()))).key;
            const bool done = oracle.corruptReplaceKey(old_key, new_key);
            ASSERT_EQ(rows.corruptReplaceKey(old_key, new_key), done)
                << where;
            ASSERT_EQ(lines_only.corruptReplaceKey(old_key, new_key), done)
                << where;
            counts.replaced += done;
        } else {
            // Flip a load in a pool row's coset, or anywhere.
            const uint64_t set = rng.uniformInt(2) == 0
                ? footprint.line(pool[rng.uniformInt(pool.size())], 0).set
                : rng.uniformInt(sets);
            const auto value =
                static_cast<uint16_t>(rng.uniformInt(ways + 3));
            rows.corruptSetLoad(set, value);
            lines_only.corruptSetLoad(set, value);
            oracle.corruptSetLoad(set, value);
        }
        expectSameState(rows, oracle, where);
        ASSERT_EQ(rows.allocatedKeys(), lines_only.allocatedKeys()) << where;
        if (::testing::Test::HasFatalFailure())
            return;
    }
    std::unordered_set<uint64_t> cosets;
    for (const uint64_t key : oracle.sortedKeys())
        cosets.insert(footprint.keyCoset(key).coset);
    counts.growths += cosets.size() > 128;
}

TEST(LineTrackerDifferential, RowOpsMatchOracleOverRandomSequences)
{
    const DramGeometry geometry;
    const DramAddressMap address_map = makeAddressMap("fig7a", geometry);
    RowOpCounts counts;
    unsigned multi_line_sets = 0;
    uint64_t seed = 0x70770000u;
    for (const CacheGeometry &llc : {kLlc, kSmallLlc}) {
        const RepairBudget budget{1, kMaxLines};
        const FreeFaultRepair free_repair(address_map, llc, budget);
        const RelaxFaultRepair relax(geometry, llc, budget);
        const RelaxFaultRepair hash_only(geometry, llc, budget,
                                         RelaxFaultMap::IndexMode::HashOnly);
        multi_line_sets += free_repair.footprint().linesPerSet() > 1;
        for (const unsigned ways : {1u, 4u, 16u}) {
            const std::string where = "sets " + std::to_string(llc.sets()) +
                " " + std::to_string(ways) + "way ";
            for (unsigned seq = 0; seq < 24; ++seq, ++seed) {
                runRowOpSequence(
                    free_repair.footprint(), llc.sets(), ways, seed,
                    [&](const RemapUnit &unit) {
                        return encodedLine(
                            free_repair,
                            rowCoord(free_repair, DevicePart{unit.dimm, 0, {}},
                                     unit.bank, unit.row));
                    },
                    counts, where + "FreeFault seq " + std::to_string(seq));
                runRowOpSequence(
                    relax.footprint(), llc.sets(), ways, seed,
                    [&](const RemapUnit &unit) {
                        return locatedLine(relax, unit);
                    },
                    counts, where + "RelaxFault seq " + std::to_string(seq));
                runRowOpSequence(
                    hash_only.footprint(), llc.sets(), ways, seed,
                    [&](const RemapUnit &unit) {
                        return locatedLine(hash_only, unit);
                    },
                    counts, where + "hash-only seq " + std::to_string(seq));
                if (::testing::Test::HasFatalFailure())
                    return;
            }
        }
    }
    // m > 1 must be covered, and the sequences must reach every path.
    EXPECT_GT(multi_line_sets, 0u);
    EXPECT_GT(counts.wholeRows, 1000u);
    EXPECT_GT(counts.partialRows, 100u);
    EXPECT_GT(counts.columnRows, 1000u);
    EXPECT_GT(counts.midRejects, 100u);
    EXPECT_GT(counts.capRejects, 20u);
    EXPECT_GT(counts.growths, 10u);
    EXPECT_GT(counts.replaced, 100u);
}

/**
 * Lock lines a fault is about to need: none (scenario 0), a few of its
 * own lines (1), or some of its sets filled to 0-2 ways below the
 * ceiling with foreign keys, sometimes plus the fault's line there (2).
 */
void
preload(RepairLineTracker &tracker, const Lines &fault_lines,
        unsigned scenario, Rng &rng)
{
    if (scenario == 0 || fault_lines.empty())
        return;
    const unsigned ways = tracker.budget().maxWaysPerSet;
    uint64_t foreign = uint64_t{1} << 62;
    const auto picks = 1 + static_cast<unsigned>(rng.uniformInt(
        std::min<size_t>(fault_lines.size(), 48)));
    for (unsigned i = 0; i < picks; ++i) {
        const auto [set, key] =
            fault_lines[rng.uniformInt(fault_lines.size())];
        if (scenario == 2) {
            const unsigned target = ways -
                std::min<unsigned>(ways, static_cast<unsigned>(
                                             rng.uniformInt(3)));
            while (tracker.setLoad(set) < target &&
                   tracker.tryAdd({{set, foreign++}})) {
            }
            if (rng.uniformInt(2) == 0)
                continue;
        }
        tracker.tryAdd({{set, key}});
    }
}

/** What the tryRepairs of one suite showed. */
struct PrecheckCounts
{
    unsigned decisions = 0;
    unsigned rejects = 0;
    unsigned wholeRows = 0;        ///< Faults of whole rows only.
    unsigned wayOverflows = 0;     ///< ...whose enumeration overflows.
    unsigned loadOverflows = 0;    ///< ...only on top of locked lines.
    unsigned sharedAccepts = 0;    ///< Accepts reusing locked lines.
};

/**
 * One tryRepair on @p repair (tracker preloaded) against a copy of its
 * tracker fed the fully enumerated @p oracle lines one at a time: same
 * decision, same key order, loads, line count and ways. Counts, for a
 * fault of whole rows, whether the enumeration overflows a way ceiling
 * and whether it would on an empty tracker.
 */
template <typename Repair, typename Oracle>
void
expectSameAsEnumeration(Repair &repair, const Oracle &oracle,
                        const FaultRecord &fault, bool per_device,
                        unsigned scenario, Rng &rng, PrecheckCounts &counts,
                        const std::string &where)
{
    repair.reset();
    bool massive = false;
    bool whole_rows = true;
    for (const auto &part : fault.parts) {
        massive = massive || part.region.massive();
        for (const auto &cluster : part.region.clusters())
            whole_rows = whole_rows && cluster.cols.all;
    }
    const Lines lines = massive ? Lines{} : oracle.lines(fault);
    preload(repair.trackerForInjection(), lines, scenario, rng);

    RepairLineTracker reference = repair.tracker();
    const RepairBudget &budget = reference.budget();
    uint64_t total = 0;
    for (const auto &part : fault.parts) {
        total += per_device
            ? part.region.remapUnitCount(oracle.geometry())
            : part.region.lineSliceCount(oracle.geometry());
    }

    if (!massive && whole_rows &&
        reference.usedLines() + total <= budget.maxLines) {
        // Within the line cap, a reject is a way overflow.
        RepairLineTracker empty(reference.sets(), budget);
        const bool overflow = !RepairLineTracker(reference).tryAdd(lines);
        const bool alone = empty.tryAdd(lines);
        ++counts.wholeRows;
        counts.wayOverflows += overflow;
        counts.loadOverflows += overflow && alone;
    }

    const bool expect =
        !massive && total <= budget.maxLines && reference.tryAdd(lines);
    const uint64_t used_before = repair.usedLines();
    ASSERT_EQ(repair.tryRepair(fault), expect) << where;
    ASSERT_EQ(repair.tracker().allocatedKeys(), reference.allocatedKeys())
        << where;
    ASSERT_EQ(repair.usedLines(), reference.usedLines()) << where;
    ASSERT_EQ(repair.maxWaysUsed(), reference.maxWaysUsed()) << where;
    for (const auto &[set, key] : lines) {
        ASSERT_EQ(repair.tracker().setLoad(set), reference.setLoad(set))
            << where << " set " << set;
        ASSERT_EQ(repair.tracker().contains(key), reference.contains(key))
            << where << " key " << key;
    }
    ++counts.decisions;
    counts.rejects += !expect;
    counts.sharedAccepts += expect && used_before > 0 &&
        repair.usedLines() - used_before < lines.size();
}

TEST(CosetPrecheckDifferential, FreeFaultMatchesEnumerationAtEveryScheme)
{
    const DramGeometry geometry;
    const std::vector<FaultRecord> faults = sampledFaults();
    PrecheckCounts counts;
    Rng rng(31);
    for (const std::string &scheme : addressMapNames()) {
        const DramAddressMap map = makeAddressMap(scheme, geometry);
        // The default map sees every fault; the others every third.
        const size_t stride = scheme == "fig7a" ? 1 : 3;
        for (const CacheGeometry &llc : {kLlc, kSmallLlc}) {
            for (const unsigned ways : {1u, 4u, 16u}) {
                for (const bool hash : {true, false}) {
                    FreeFaultRepair repair(map, llc,
                                           RepairBudget{ways, kMaxLines}, hash);
                    const OracleFreeFault oracle(repair);
                    const std::string where = scheme + " sets " +
                        std::to_string(llc.sets()) + " " +
                        std::to_string(ways) + "way hash=" +
                        std::to_string(hash) + " fault ";
                    for (size_t f = 0; f < faults.size(); f += stride) {
                        expectSameAsEnumeration(
                            repair, oracle, faults[f], false, f % 3, rng,
                            counts, where + std::to_string(f));
                        if (::testing::Test::HasFatalFailure())
                            return;
                    }
                }
            }
        }
    }
    // Every path must be reached: whole-row faults that fit, ones that
    // overflow alone, ones that overflow only on locked lines, and
    // accepts that share locked lines.
    EXPECT_GT(counts.wholeRows, 1000u);
    EXPECT_GT(counts.wayOverflows - counts.loadOverflows, 100u);
    EXPECT_GT(counts.loadOverflows, 20u);
    EXPECT_GT(counts.sharedAccepts, 100u);
    EXPECT_GT(counts.decisions - counts.rejects, 1000u);
}

TEST(CosetPrecheckDifferential, RelaxFaultMatchesEnumerationInEveryMode)
{
    const DramGeometry geometry;
    const std::vector<FaultRecord> faults = sampledFaults();
    PrecheckCounts counts;
    Rng rng(37);
    for (const CacheGeometry &llc : {kLlc, kSmallLlc}) {
        for (const unsigned ways : {1u, 4u, 16u}) {
            for (const auto mode : {RelaxFaultMap::IndexMode::Structured,
                                    RelaxFaultMap::IndexMode::StructuredFolded,
                                    RelaxFaultMap::IndexMode::HashOnly}) {
                RelaxFaultRepair repair(geometry, llc,
                                        RepairBudget{ways, kMaxLines}, mode);
                const OracleRelaxFault oracle(repair);
                const std::string where = repair.name() + " sets " +
                    std::to_string(llc.sets()) + " " +
                    std::to_string(ways) + "way fault ";
                for (size_t f = 0; f < faults.size(); ++f) {
                    // Hash-only locates every unit into one-unit rows and
                    // must still decide the same.
                    expectSameAsEnumeration(repair, oracle, faults[f], true,
                                            f % 3, rng, counts,
                                            where + std::to_string(f));
                    if (::testing::Test::HasFatalFailure())
                        return;
                }
            }
        }
    }
    EXPECT_GT(counts.wholeRows, 1000u);
    EXPECT_GT(counts.wayOverflows - counts.loadOverflows, 50u);
    EXPECT_GT(counts.loadOverflows, 20u);
    EXPECT_GT(counts.sharedAccepts, 100u);
}

/** Whole rows 4096.. of @p banks on (dimm, device), one cluster. */
DevicePart
wholeRowsPart(unsigned dimm, unsigned device, uint32_t banks, unsigned rows,
              uint32_t first_row = 4096)
{
    std::vector<uint32_t> list;
    for (unsigned i = 0; i < rows; ++i)
        list.push_back(first_row + 97 * i);
    RegionCluster cluster;
    cluster.bankMask = banks;
    cluster.rows = RowSet::of(std::move(list));
    cluster.cols = ColSet::allCols();
    return {dimm, device, FaultRegion({cluster})};
}

TEST(CosetPrecheckDifferential, OverlappingFaultsBypassItWithSameDecisions)
{
    // Faults whose whole rows may share lines, so counting whole rows per
    // coset could double-count them: a row met again, or partly locked,
    // must go line by line and decide exactly as the enumeration.
    const DevicePart base = wholeRowsPart(2, 5, 1u << 1, 24);
    std::vector<FaultRecord> cases;
    const auto add = [&](std::vector<DevicePart> parts) {
        FaultRecord fault;
        fault.parts = std::move(parts);
        cases.push_back(std::move(fault));
    };
    // One part: disjoint banks, and one bank twice.
    add({wholeRowsPart(2, 5, 0b0110, 24)});
    {
        DevicePart twice = base;
        std::vector<RegionCluster> clusters = twice.region.clusters();
        clusters.push_back(wholeRowsPart(2, 5, 0b0011, 16, 4000)
                               .region.clusters()[0]);
        twice.region = FaultRegion(std::move(clusters));
        add({twice});
    }
    // Same rank, other device, same bank: FreeFault lines are shared,
    // RelaxFault units are not.
    add({base, wholeRowsPart(2, 6, 1u << 1, 24)});
    // Same rank and device twice, or the partner rank.
    add({base, wholeRowsPart(2, 5, 1u << 1, 8, 9000)});
    add({base, wholeRowsPart(3, 5, 1u << 1, 24)});
    // Explicit columns, then the same rows whole.
    {
        DevicePart columns = base;
        std::vector<RegionCluster> clusters = columns.region.clusters();
        clusters[0].cols = ColSet::of({3, 17, 200});
        clusters.push_back(base.region.clusters()[0]);
        columns.region = FaultRegion(std::move(clusters));
        add({columns});
    }

    const DramGeometry geometry;
    Rng rng(41);
    PrecheckCounts counts;
    for (const std::string &scheme : addressMapNames()) {
        const DramAddressMap map = makeAddressMap(scheme, geometry);
        for (const CacheGeometry &llc : {kLlc, kSmallLlc}) {
            for (const unsigned ways : {1u, 4u, 16u}) {
                FreeFaultRepair free_repair(map, llc,
                                            RepairBudget{ways, kMaxLines});
                const OracleFreeFault free_oracle(free_repair);
                RelaxFaultRepair relax_repair(geometry, llc,
                                              RepairBudget{ways, kMaxLines});
                const OracleRelaxFault relax_oracle(relax_repair);
                for (size_t c = 0; c < cases.size(); ++c) {
                    for (unsigned scenario = 0; scenario < 3; ++scenario) {
                        const std::string where = scheme + " " +
                            std::to_string(ways) + "way case " +
                            std::to_string(c);
                        expectSameAsEnumeration(
                            free_repair, free_oracle, cases[c], false,
                            scenario, rng, counts, "FreeFault " + where);
                        expectSameAsEnumeration(
                            relax_repair, relax_oracle, cases[c], true,
                            scenario, rng, counts, "RelaxFault " + where);
                        if (::testing::Test::HasFatalFailure())
                            return;
                    }
                }
            }
        }
    }
    EXPECT_GT(counts.rejects, 0u);
    EXPECT_GT(counts.decisions - counts.rejects, 0u);
}

// ---------------------------------------------------------------------
// PPR: the spare-row pigeonhole against the enumerate-every-row check.

/** PprRepair as it was: an O(n^2) pending scan and a group map. */
class OraclePpr
{
  public:
    OraclePpr(const DramGeometry &dram, unsigned spares_per_group)
        : dram_(dram), banksPerGroup_(dram.banksPerDevice / 4),
          spares_(spares_per_group)
    {
    }

    bool tryRepair(const FaultRecord &fault)
    {
        std::vector<std::pair<uint64_t, uint64_t>> new_rows;
        std::unordered_map<uint64_t, unsigned> group_need;
        for (const auto &part : fault.parts) {
            if (part.region.massive())
                return false;
            for (const auto &cluster : part.region.clusters()) {
                for (unsigned bank = 0; bank < dram_.banksPerDevice; ++bank) {
                    if (!(cluster.bankMask & (1u << bank)))
                        continue;
                    for (const auto row : cluster.rows.rows) {
                        const uint64_t rkey =
                            rowKey(part.dimm, part.device, bank, row);
                        if (repaired_.count(rkey))
                            continue;
                        bool pending = false;
                        for (const auto &[existing, gkey] : new_rows)
                            pending = pending || existing == rkey;
                        if (pending)
                            continue;
                        const uint64_t gkey =
                            (uint64_t{part.dimm} * dram_.devicesPerRank() +
                             part.device) * 4 + bank / banksPerGroup_;
                        new_rows.emplace_back(rkey, gkey);
                        ++group_need[gkey];
                    }
                }
            }
        }
        for (const auto &[gkey, need] : group_need) {
            if (groupUse_[gkey] + need > spares_)
                return false;
        }
        for (const auto &[rkey, gkey] : new_rows) {
            repaired_.insert(rkey);
            ++groupUse_[gkey];
        }
        return true;
    }

    uint64_t sparesUsed() const { return repaired_.size(); }
    bool rowRepaired(unsigned dimm, unsigned device, unsigned bank,
                     uint32_t row) const
    {
        return repaired_.count(rowKey(dimm, device, bank, row)) != 0;
    }
    void reset()
    {
        repaired_.clear();
        groupUse_.clear();
    }

    uint64_t rowKey(unsigned dimm, unsigned device, unsigned bank,
                    uint32_t row) const
    {
        return ((uint64_t{dimm} * dram_.devicesPerRank() + device) *
                    dram_.banksPerDevice + bank) * dram_.rowsPerBank + row;
    }

  private:
    DramGeometry dram_;
    unsigned banksPerGroup_;
    unsigned spares_;
    std::unordered_set<uint64_t> repaired_;
    std::unordered_map<uint64_t, unsigned> groupUse_;
};

/** The pigeonhole verdict, recomputed from its definition. */
bool
pprPigeonholeRejects(const FaultRecord &fault, const DramGeometry &geometry,
                     unsigned spares)
{
    const unsigned per_group = geometry.banksPerDevice / 4;
    for (const auto &part : fault.parts) {
        for (const auto &cluster : part.region.clusters()) {
            if (cluster.rows.all)
                continue;
            for (unsigned group = 0; group < 4; ++group) {
                unsigned banks = 0;
                for (unsigned b = 0; b < per_group; ++b)
                    banks += (cluster.bankMask >> (group * per_group + b)) & 1;
                if (cluster.rows.rows.size() * banks > spares)
                    return true;
            }
        }
    }
    return false;
}

TEST(PprPigeonholeDifferential, MatchesRowEnumeration)
{
    unsigned fired = 0;
    unsigned accepts = 0;
    for (const DramGeometry &geometry :
         {DramGeometry::ddr3Dimm(), DramGeometry::ddr4Dimm()}) {
        const std::vector<FaultRecord> faults = sampledFaults(geometry);
        for (const unsigned spares : {1u, 2u, 4u}) {
            PprRepair ppr(geometry, 4, spares);
            OraclePpr oracle(geometry, spares);
            Rng rng(spares);
            for (size_t f = 0; f < faults.size(); ++f) {
                // Nodes of ~6 faults; some faults twice, so rows repaired
                // already are shared.
                if (f % 6 == 0) {
                    ppr.reset();
                    oracle.reset();
                }
                const FaultRecord &fault =
                    rng.uniformInt(4) == 0 && f > 0 ? faults[f - 1]
                                                    : faults[f];
                const std::string where = "banks " +
                    std::to_string(geometry.banksPerDevice) + " spares " +
                    std::to_string(spares) + " fault " + std::to_string(f);
                const bool expect = oracle.tryRepair(fault);
                const bool pigeonhole =
                    pprPigeonholeRejects(fault, geometry, spares);
                ASSERT_FALSE(pigeonhole && expect) << where;
                ASSERT_EQ(ppr.tryRepair(fault), expect) << where;
                ASSERT_EQ(ppr.sparesUsed(), oracle.sparesUsed()) << where;
                fired += pigeonhole;
                accepts += expect;
                for (const auto &part : fault.parts) {
                    for (const auto &cluster : part.region.clusters()) {
                        if (cluster.rows.all)
                            continue;
                        const auto bank = static_cast<unsigned>(
                            std::countr_zero(cluster.bankMask));
                        for (const uint32_t row : cluster.rows.rows) {
                            ASSERT_EQ(ppr.rowRepaired(part.dimm, part.device,
                                                      bank, row),
                                      oracle.rowRepaired(part.dimm,
                                                         part.device, bank,
                                                         row))
                                << where;
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(fired, 100u);
    EXPECT_GT(accepts, 100u);
}

// ---------------------------------------------------------------------
// Node-stream replay: production mechanisms vs the oracle procedures.

TEST(RepairReplayDifferential, Fig12TenXStreamSameDecisions)
{
    FaultModelConfig config;
    config.fitScale = 10.0;
    const NodeFaultSampler sampler(config);
    const DramGeometry &geometry = config.geometry;
    const DramAddressMap address_map = makeAddressMap("fig7a", geometry);

    std::vector<std::unique_ptr<FreeFaultRepair>> free_repairs;
    std::vector<std::unique_ptr<RelaxFaultRepair>> relax_repairs;
    for (const unsigned ways : {1u, 4u}) {
        for (const bool hash : {true, false}) {
            const RepairBudget budget{ways, kMaxLines};
            free_repairs.push_back(std::make_unique<FreeFaultRepair>(
                address_map, kLlc, budget, hash));
            relax_repairs.push_back(std::make_unique<RelaxFaultRepair>(
                geometry, kLlc, budget, hash));
        }
    }
    std::vector<OracleFreeFault> free_oracles;
    std::vector<OracleRelaxFault> relax_oracles;
    for (const auto &repair : free_repairs)
        free_oracles.emplace_back(*repair);
    for (const auto &repair : relax_repairs)
        relax_oracles.emplace_back(*repair);

    Rng rng(12);
    uint64_t decisions = 0;
    uint64_t rejects = 0;
    for (unsigned node = 0; node < 512; ++node) {
        const NodeSample sample = sampler.sampleNode(rng);
        for (size_t m = 0; m < free_repairs.size(); ++m) {
            free_repairs[m]->reset();
            free_oracles[m].reset();
            relax_repairs[m]->reset();
            relax_oracles[m].reset();
        }
        for (const FaultRecord &fault : sample.faults) {
            if (!fault.permanent())
                continue;
            for (size_t m = 0; m < free_repairs.size(); ++m) {
                const bool free_ok = free_oracles[m].tryRepair(fault);
                ASSERT_EQ(free_repairs[m]->tryRepair(fault), free_ok)
                    << free_repairs[m]->name() << " node " << node;
                const bool relax_ok = relax_oracles[m].tryRepair(fault);
                ASSERT_EQ(relax_repairs[m]->tryRepair(fault), relax_ok)
                    << relax_repairs[m]->name() << " node " << node;
                decisions += 2;
                rejects += !free_ok + !relax_ok;
            }
        }
        for (size_t m = 0; m < free_repairs.size(); ++m) {
            const std::string where = "node " + std::to_string(node);
            ASSERT_EQ(free_repairs[m]->usedLines(),
                      free_oracles[m].tracker().usedLines()) << where;
            ASSERT_EQ(free_repairs[m]->maxWaysUsed(),
                      free_oracles[m].tracker().maxWaysUsed()) << where;
            ASSERT_EQ(free_repairs[m]->tracker().sortedKeys(),
                      free_oracles[m].tracker().sortedKeys()) << where;
            ASSERT_EQ(relax_repairs[m]->usedLines(),
                      relax_oracles[m].tracker().usedLines()) << where;
            ASSERT_EQ(relax_repairs[m]->maxWaysUsed(),
                      relax_oracles[m].tracker().maxWaysUsed()) << where;
            ASSERT_EQ(relax_repairs[m]->tracker().sortedKeys(),
                      relax_oracles[m].tracker().sortedKeys()) << where;
        }
    }
    EXPECT_GT(decisions, 1000u);
    EXPECT_GT(rejects, 0u);
}

} // namespace
} // namespace relaxfault
