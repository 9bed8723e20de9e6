/**
 * @file
 * Differential tests for the LLC-repair hot path: the open-addressing
 * RepairLineTracker with streamed stage()/finish() adds, and the
 * pigeonhole pre-check in FreeFault/RelaxFault tryRepair.
 *
 * The oracle is the straightforward tracker the flat one replaced: an
 * unordered_set of keys, a whole-request staging pass through an
 * unordered_map of per-set increases, and a full-array reset. It lives
 * here only. The suites require:
 *
 *  - identical observable state between the two trackers over seeded
 *    random op sequences (shared and duplicate keys, line-cap and
 *    way-cap rejects, index growth, reset, both corruption backdoors);
 *  - that a pigeonhole reject never rejects a fault the full
 *    enumeration would accept, for sampled faults of every mode at
 *    {1,4,16} ways with and without set hashing;
 *  - identical per-fault repair decisions when a 10x-FIT node stream
 *    replays through the production mechanisms and through the
 *    enumerate-everything mechanisms built on the oracle tracker.
 */

#include <gtest/gtest.h>

#include <algorithm>
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
#include "repair/relaxfault_repair.h"

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
    EXPECT_FALSE(region.forEachSlice(
        geometry, [&](unsigned, uint32_t, uint16_t) { return ++visits < 7; }));
    EXPECT_EQ(visits, 7u);
    visits = 0;
    EXPECT_TRUE(region.forEachRemapUnit(
        geometry, [&](unsigned, uint32_t, uint16_t) { ++visits; }));
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
            part.region.forEachSlice(
                geometry, [&](unsigned bank, uint32_t row, uint16_t col) {
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
        Lines out;
        for (const auto &part : fault.parts) {
            RemapUnit unit;
            unit.dimm = part.dimm;
            unit.device = part.device;
            part.region.forEachRemapUnit(
                map.geometry(), [&](unsigned bank, uint32_t row, uint16_t g) {
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
    uint64_t largest = 0;
    for (const auto &part : fault.parts) {
        for (const auto &cluster : part.region.clusters()) {
            largest = std::max(
                largest, units ? FaultRegion::clusterRemapUnits(cluster, geometry)
                               : FaultRegion::clusterLineSlices(cluster, geometry));
        }
    }
    return largest > sets * budget.maxWaysPerSet;
}

/** Sampled faults: every mode from the geometry sampler, plus nodes. */
std::vector<FaultRecord>
sampledFaults()
{
    FaultModelConfig config;
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
        ASSERT_EQ(FaultRegion::clusterRemapUnits(
                      full.parts[0].region.clusters()[0], geometry),
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
