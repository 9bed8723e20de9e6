/**
 * @file
 * Fault-containment tests: every corruption class the
 * MetadataFaultInjector produces is either *detected* (an
 * InvariantAuditor violation, a fault-log checksum mismatch) or proven
 * *harmless* (idempotent duplicate handling, scrub convergence), and
 * the auditor itself is invisible — an audit-enabled lifetime run is
 * bit-identical to an audit-off run at any thread count, with zero
 * violations when nothing was injected.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "audit/invariants.h"
#include "audit/metadata_injector.h"
#include "core/fault_log.h"
#include "core/scrubber.h"
#include "lifetime_expect.h"
#include "repair/freefault_repair.h"
#include "repair/relaxfault_repair.h"
#include "sim/lifetime.h"
#include "telemetry/metrics.h"

namespace relaxfault {
namespace {

DramGeometry
geom()
{
    return DramGeometry{};
}

CacheGeometry
llc()
{
    return CacheGeometry{8 * 1024 * 1024, 16, 64};
}

FaultRecord
makeFault(FaultRegion region, unsigned dimm = 0, unsigned device = 0)
{
    FaultRecord fault;
    fault.persistence = Persistence::Permanent;
    fault.parts.push_back({dimm, device, std::move(region)});
    return fault;
}

FaultRegion
rowRegion(unsigned bank, uint32_t row)
{
    RegionCluster cluster;
    cluster.bankMask = 1u << bank;
    cluster.rows = RowSet::of({row});
    cluster.cols = ColSet::allCols();
    return FaultRegion({cluster});
}

FaultRegion
bitRegion(unsigned bank, uint32_t row, uint16_t col)
{
    RegionCluster cluster;
    cluster.bankMask = 1u << bank;
    cluster.rows = RowSet::of({row});
    cluster.cols = ColSet::of({col});
    cluster.bitMask = 1;
    return FaultRegion({cluster});
}

/** The LLC-line mechanisms, as the benches name their 4-way rows. */
const char *const kLlcMechanisms[] = {"RelaxFault-4way", "FreeFault-4way"};

/** A 4-way, 2MiB-capped LLC-line mechanism named in kLlcMechanisms. */
std::unique_ptr<LlcLineRepair>
makeLlcRepair(const std::string &mechanism)
{
    const RepairBudget budget{4, 32768};
    if (mechanism == "FreeFault-4way")
        return std::make_unique<FreeFaultRepair>(
            makeAddressMap("fig7a", geom()), llc(), budget);
    return std::make_unique<RelaxFaultRepair>(geom(), llc(), budget);
}

/** An LLC-line mechanism with a few repaired faults, plus their records. */
struct RepairedState
{
    std::unique_ptr<LlcLineRepair> repair;
    std::vector<FaultRecord> faults;
    std::vector<bool> covered;

    explicit RepairedState(const std::string &mechanism = "RelaxFault-4way")
        : repair(makeLlcRepair(mechanism))
    {
        faults.push_back(makeFault(rowRegion(1, 500), 0, 6));
        faults.push_back(makeFault(bitRegion(3, 42, 7), 1, 9));
        faults.push_back(makeFault(rowRegion(5, 8000), 2, 14));
        for (const FaultRecord &fault : faults) {
            EXPECT_TRUE(repair->tryRepair(fault));
            covered.push_back(true);
        }
    }

    AuditReport audit(const InvariantAuditor &auditor = {}) const
    {
        return auditor.auditMechanism(*repair, faults, covered);
    }
};

uint64_t
counterValue(const MetricsSnapshot &snapshot, const std::string &name)
{
    for (const auto &[key, value] : snapshot.counters) {
        if (key == name)
            return value;
    }
    return 0;
}

// ---------------------------------------------------------------------
// Baseline: uncorrupted state audits clean.

TEST(InvariantAuditor, CleanRepairStateAuditsClean)
{
    for (const char *mechanism : kLlcMechanisms) {
        SCOPED_TRACE(mechanism);
        const RepairedState state(mechanism);
        const AuditReport report = state.audit();
        EXPECT_GT(report.checks, 0u);
        EXPECT_EQ(report.violations, 0u);
        EXPECT_TRUE(report.clean());
    }
}

TEST(InvariantAuditor, KeySetDecodesExactlyTheKeysOfTheNode)
{
    // The key-decode check rests on keySet: a unit's key gives back the
    // unit's set, and a key one bit above the valid width gives none.
    for (const char *mechanism : kLlcMechanisms) {
        SCOPED_TRACE(mechanism);
        const RepairedState state(mechanism);
        const LlcLineRepair &repair = *state.repair;
        for (const FaultRecord &fault : state.faults) {
            for (const auto &part : fault.parts) {
                part.region.forEachUnit(
                    repair.geometry(), repair.colsPerUnit(),
                    [&](unsigned bank, uint32_t row, uint16_t unit) {
                        const RepairLine line =
                            repair.unitLine(part, bank, row, unit);
                        EXPECT_EQ(repair.keySet(line.key), line.set);
                        EXPECT_EQ(repair.keySet(
                                      line.key |
                                      uint64_t{1} << repair.keyBits()),
                                  std::nullopt);
                    });
            }
        }
    }
}

TEST(InvariantAuditor, CleanControllerAuditsClean)
{
    ControllerConfig config;
    config.budget = RepairBudget{4, 32768};
    RelaxFaultController controller(config);
    ASSERT_TRUE(controller.reportFault(makeFault(rowRegion(1, 500), 0, 6)));
    ASSERT_TRUE(controller.reportFault(makeFault(bitRegion(2, 9, 3), 0, 2)));

    const InvariantAuditor auditor;
    const AuditReport report = auditor.auditController(controller);
    EXPECT_GT(report.checks, 0u);
    EXPECT_TRUE(report.clean()) << (report.details.empty()
                                        ? std::string()
                                        : report.details[0].invariant +
                                              ": " +
                                              report.details[0].detail);
}

TEST(InvariantAuditor, DetailListIsCappedButCountersAreExact)
{
    RepairedState state;
    // Corrupt many set-load counters so violations exceed the cap.
    MetadataFaultInjector injector(7);
    for (int i = 0; i < 40; ++i)
        injector.corruptSetLoad(*state.repair);

    InvariantAuditor::Config config;
    config.maxDetails = 2;
    const AuditReport report = state.audit(InvariantAuditor(config));
    EXPECT_GT(report.violations, 2u);
    EXPECT_LE(report.details.size(), 2u);
}

// ---------------------------------------------------------------------
// Detected corruption classes.

TEST(MetadataInjection, RemapKeyBitFlipIsDetected)
{
    for (const char *mechanism : kLlcMechanisms) {
        SCOPED_TRACE(mechanism);
        RepairedState state(mechanism);
        MetadataFaultInjector injector(11);
        const auto injection = injector.flipKeyBit(*state.repair);
        ASSERT_TRUE(injection.has_value());
        EXPECT_EQ(injection->corruption, MetadataCorruption::RemapKeyBit);
        EXPECT_GT(state.audit().violations, 0u)
            << "tag-RAM bit flip not detected";
    }
}

TEST(MetadataInjection, EveryRemapKeyBitPositionIsDetected)
{
    // Not just one lucky bit: replay many deterministic seeds, each
    // choosing a different (line, bit); every flip that lands must be
    // caught by the audit walk.
    for (const char *mechanism : kLlcMechanisms) {
        for (uint64_t seed = 1; seed <= 32; ++seed) {
            RepairedState state(mechanism);
            MetadataFaultInjector injector(seed);
            const auto injection = injector.flipKeyBit(*state.repair);
            if (!injection.has_value())
                continue;  // Collision retry exhausted for this seed.
            EXPECT_GT(state.audit().violations, 0u)
                << mechanism << ": undetected flip, seed " << seed << ": "
                << injection->detail;
        }
    }
}

TEST(MetadataInjection, BankTableBitFlipIsDetected)
{
    RepairedState state;
    MetadataFaultInjector injector(13);
    const auto injection = injector.flipBankTableBit(
        dynamic_cast<RelaxFaultRepair &>(*state.repair));
    ASSERT_TRUE(injection.has_value());
    EXPECT_GT(state.audit().violations, 0u) << "bank-table SEU not detected";
}

TEST(MetadataInjection, SetLoadCounterFlipIsDetected)
{
    for (const char *mechanism : kLlcMechanisms) {
        SCOPED_TRACE(mechanism);
        RepairedState state(mechanism);
        MetadataFaultInjector injector(17);
        const auto injection = injector.corruptSetLoad(*state.repair);
        ASSERT_TRUE(injection.has_value());
        EXPECT_GT(state.audit().violations, 0u)
            << "locked-way counter flip not detected";
    }
}

TEST(MetadataInjection, FreeFaultLockKeyBitFlipIsDetected)
{
    const DramAddressMap map = makeAddressMap("fig7a", geom());
    FreeFaultRepair repair(map, llc(), RepairBudget{4, 32768});
    std::vector<FaultRecord> faults = {makeFault(bitRegion(3, 42, 7), 0, 9)};
    ASSERT_TRUE(repair.tryRepair(faults[0]));
    const std::vector<bool> covered = {true};

    MetadataFaultInjector injector(19);
    const auto injection = injector.flipKeyBit(repair);
    ASSERT_TRUE(injection.has_value());
    EXPECT_EQ(injection->corruption, MetadataCorruption::RemapKeyBit);

    const InvariantAuditor auditor;
    const AuditReport report = auditor.auditMechanism(repair, faults, covered);
    EXPECT_GT(report.violations, 0u)
        << "FreeFault lock-key flip not detected";
}

TEST(MetadataInjection, FaultLogCharacterFlipIsDetected)
{
    std::ostringstream os;
    writeFaultLog({makeFault(rowRegion(1, 500), 0, 6)}, os);

    for (uint64_t seed = 1; seed <= 16; ++seed) {
        std::string log = os.str();
        MetadataFaultInjector injector(seed);
        const auto injection = injector.corruptFaultLogText(log);
        ASSERT_TRUE(injection.has_value());

        std::istringstream is(log);
        unsigned malformed = 0;
        readFaultLog(is, &malformed);
        EXPECT_GE(malformed, 1u)
            << "undetected log corruption, seed " << seed << ": "
            << injection->detail;
    }
}

// ---------------------------------------------------------------------
// Harmless corruption classes.

TEST(MetadataInjection, DuplicateFaultArrivalIsIdempotent)
{
    ControllerConfig config;
    config.budget = RepairBudget{4, 32768};
    RelaxFaultController controller(config);
    const FaultRecord fault = makeFault(rowRegion(1, 500), 0, 6);
    ASSERT_TRUE(controller.reportFault(fault));

    const uint64_t lines_before = controller.repair().usedLines();
    const size_t tracked_before = controller.faults().faults().size();

    MetadataFaultInjector injector(23);
    const auto injection = injector.duplicateFault(controller, fault);
    ASSERT_TRUE(injection.has_value());

    // The duplicate is recognized: no budget burned, no double
    // tracking, the repair still reports success, and the state still
    // audits clean.
    EXPECT_EQ(controller.repair().usedLines(), lines_before);
    EXPECT_EQ(controller.faults().faults().size(), tracked_before);
    EXPECT_EQ(controller.stats().duplicateFaults, 1u);
    EXPECT_EQ(controller.stats().faultsRepaired, 1u);
    EXPECT_EQ(controller.stats().budgetExhausted, 0u);

    const InvariantAuditor auditor;
    EXPECT_TRUE(auditor.auditController(controller).clean());
}

TEST(MetadataInjection, DroppedScrubObservationConverges)
{
    // A lost ECC event delays inference by one scrub pass, it never
    // loses the fault: the next patrol re-observes the damage.
    ControllerConfig config;
    config.budget = RepairBudget{4, 32768};
    RelaxFaultController controller(config);
    FaultScrubber scrubber(controller);

    Rng rng(99);
    uint8_t data[64];
    for (unsigned col = 0; col < config.geometry.colBlocksPerRow; ++col) {
        for (auto &byte : data)
            byte = static_cast<uint8_t>(rng.uniformInt(256));
        LineCoord coord{0, 0, 1, 500, col};
        controller.write(controller.addressMap().encode(coord), data);
    }
    FaultRecord fault = makeFault(rowRegion(1, 500), 0, 6);
    const_cast<FaultSet &>(controller.faults()).addFault(fault);

    scrubber.scrub(0, 0, 1, 500, 1);
    ASSERT_GT(scrubber.observationCount(), 0u);

    MetadataFaultInjector injector(29);
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(injector.dropScrubObservation(scrubber).has_value());
    scrubber.inferAndRepair();

    // Re-scrub until quiescent; the row must end up fully repaired.
    for (int pass = 0; pass < 4; ++pass) {
        scrubber.scrub(0, 0, 1, 500, 1);
        if (scrubber.observationCount() == 0)
            break;
        scrubber.inferAndRepair();
    }
    FaultScrubber verify(controller);
    verify.scrub(0, 0, 1, 500, 1);
    EXPECT_EQ(verify.observationCount(), 0u)
        << "scrub did not converge after a dropped observation";

    // The only acceptable violation is fault_accounting, tripped by
    // this test's silent FaultSet backdoor (damage the controller was
    // never told about) — the repair structures themselves are intact.
    const InvariantAuditor auditor;
    const AuditReport report = auditor.auditController(controller);
    for (const auto &violation : report.details)
        EXPECT_EQ(violation.invariant, "fault_accounting")
            << violation.detail;
    EXPECT_TRUE(auditor.auditScrubber(scrubber).clean());
}

TEST(MetadataInjection, ScrubOrderReorderingIsHarmless)
{
    // Observations live in an ordered set keyed by coordinates, so the
    // patrol order (a reordered event stream) cannot change inference.
    auto run = [](bool reversed) {
        ControllerConfig config;
        config.budget = RepairBudget{4, 32768};
        RelaxFaultController controller(config);
        FaultScrubber scrubber(controller);

        Rng rng(99);
        uint8_t data[64];
        for (uint32_t row : {500u, 501u}) {
            for (unsigned col = 0;
                 col < config.geometry.colBlocksPerRow; ++col) {
                for (auto &byte : data)
                    byte = static_cast<uint8_t>(rng.uniformInt(256));
                LineCoord coord{0, 0, 1, row, col};
                controller.write(controller.addressMap().encode(coord),
                                 data);
            }
        }
        FaultRecord fault = makeFault(rowRegion(1, 500), 0, 6);
        const_cast<FaultSet &>(controller.faults()).addFault(fault);
        FaultRecord other = makeFault(bitRegion(1, 501, 3), 0, 9);
        const_cast<FaultSet &>(controller.faults()).addFault(other);

        if (reversed) {
            scrubber.scrub(0, 0, 1, 501, 1);
            scrubber.scrub(0, 0, 1, 500, 1);
        } else {
            scrubber.scrub(0, 0, 1, 500, 1);
            scrubber.scrub(0, 0, 1, 501, 1);
        }
        const auto report = scrubber.inferAndRepair();
        return std::make_pair(report.faultsInferred,
                              report.faultsRepaired);
    };

    EXPECT_EQ(run(false), run(true));
}

TEST(MetadataInjection, InjectionSequenceIsDeterministic)
{
    auto sequence = [](uint64_t seed) {
        RepairedState state;
        MetadataFaultInjector injector(seed);
        std::vector<std::string> details;
        for (int i = 0; i < 4; ++i) {
            if (const auto injection =
                    injector.corruptSetLoad(*state.repair))
                details.push_back(injection->detail);
        }
        return details;
    };
    EXPECT_EQ(sequence(42), sequence(42));
    EXPECT_NE(sequence(42), sequence(43));
}

// ---------------------------------------------------------------------
// Scrubber observation-log bounds.

TEST(InvariantAuditor, ScrubberObservationCapIsEnforcedAndAuditsClean)
{
    ControllerConfig config;
    RelaxFaultController controller(config);
    ScrubberConfig scrub_config;
    scrub_config.maxObservations = 16;
    FaultScrubber scrubber(controller, scrub_config);

    Rng rng(99);
    uint8_t data[64];
    for (unsigned col = 0; col < config.geometry.colBlocksPerRow; ++col) {
        for (auto &byte : data)
            byte = static_cast<uint8_t>(rng.uniformInt(256));
        LineCoord coord{0, 0, 1, 500, col};
        controller.write(controller.addressMap().encode(coord), data);
    }
    FaultRecord fault = makeFault(rowRegion(1, 500), 0, 6);
    const_cast<FaultSet &>(controller.faults()).addFault(fault);

    scrubber.scrub(0, 0, 1, 500, 1);
    EXPECT_LE(scrubber.observationCount(), 16u);
    EXPECT_GT(scrubber.pending().droppedObservations, 0u);

    const InvariantAuditor auditor;
    EXPECT_TRUE(auditor.auditScrubber(scrubber).clean());
}

// ---------------------------------------------------------------------
// The auditor is invisible: audit-on == audit-off, bit for bit.

TEST(LifetimeAudit, AuditedRunIsBitIdenticalWithZeroViolations)
{
    LifetimeConfig config;
    config.nodesPerSystem = 128;
    config.faultModel.fitScale = 10.0;
    const LifetimeSimulator simulator(config);
    constexpr unsigned kTrials = 8;
    constexpr uint64_t kSeed = 314;
    // Checks of one strict audit pass: five budget and load-accounting
    // checks, key decoding, load recompute, coverage and orphans, plus
    // RelaxFault's two bank-table directions.
    const std::pair<const char *, uint64_t> kChecksPerPass[] = {
        {"RelaxFault-4way", 11}, {"FreeFault-4way", 9}};

    const InvariantAuditor auditor;
    for (const auto &[mechanism, per_pass] : kChecksPerPass) {
        SCOPED_TRACE(mechanism);
        const auto factory = [&]() -> std::unique_ptr<RepairMechanism> {
            return makeLlcRepair(mechanism);
        };
        EXPECT_EQ(auditor.auditMechanism(*factory(), {}, {}).checks,
                  per_pass);

        TrialRunOptions off;
        off.parallel.threads = 1;
        const LifetimeSummary baseline =
            simulator.runTrials(kTrials, factory, kSeed, off);

        for (const unsigned threads : {1u, 4u}) {
            MetricRegistry metrics;
            TrialRunOptions on;
            on.parallel.threads = threads;
            on.metrics = &metrics;
            on.audit.enabled = true;
            const LifetimeSummary audited =
                simulator.runTrials(kTrials, factory, kSeed, on);

            // Every statistic identical — the audit consumed no RNG and
            // touched no simulation state.
            expectIdentical(audited, baseline);

            // The audit actually ran, whole passes only, and found
            // nothing (no injector here).
            const MetricsSnapshot snapshot = metrics.snapshot();
            const uint64_t checks = counterValue(snapshot, "audit.checks");
            EXPECT_GT(checks, 0u);
            EXPECT_EQ(checks % per_pass, 0u);
            EXPECT_EQ(counterValue(snapshot, "audit.violations"), 0u);
        }
    }
}

TEST(LifetimeAudit, CadenceReducesChecksButNotResults)
{
    LifetimeConfig config;
    config.nodesPerSystem = 64;
    config.faultModel.fitScale = 10.0;
    const LifetimeSimulator simulator(config);
    const auto factory = []() -> std::unique_ptr<RepairMechanism> {
        return std::make_unique<RelaxFaultRepair>(
            geom(), llc(), RepairBudget{4, 32768});
    };

    auto run = [&](unsigned every) {
        MetricRegistry metrics;
        TrialRunOptions options;
        options.parallel.threads = 1;
        options.metrics = &metrics;
        options.audit.enabled = true;
        options.audit.everyFaults = every;
        const LifetimeSummary summary =
            simulator.runTrials(4, factory, 77, options);
        return std::make_pair(
            summary.dues.sum(),
            counterValue(metrics.snapshot(), "audit.checks"));
    };

    const auto [dues_every1, checks_every1] = run(1);
    const auto [dues_every8, checks_every8] = run(8);
    EXPECT_EQ(dues_every1, dues_every8);
    EXPECT_GT(checks_every1, 0u);
    EXPECT_GT(checks_every8, 0u);
    EXPECT_LT(checks_every8, checks_every1);
}

} // namespace
} // namespace relaxfault
