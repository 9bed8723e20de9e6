/**
 * @file
 * Shared helpers for the figure/table benches: standard configurations,
 * mechanism factories, and run-scale handling (`--trials`, `--seed`,
 * `--faulty-nodes` let a laptop run shrink or grow every experiment
 * without recompiling).
 */

#ifndef RELAXFAULT_BENCH_BENCH_UTIL_H
#define RELAXFAULT_BENCH_BENCH_UTIL_H

#include <memory>
#include <string>

#include "cache/cache_geometry.h"
#include "common/cli.h"
#include "common/log.h"
#include "dram/address_map.h"
#include "repair/degradation.h"
#include "repair/freefault_repair.h"
#include "repair/no_repair.h"
#include "repair/ppr_repair.h"
#include "repair/relaxfault_repair.h"
#include "sim/lifetime.h"

namespace relaxfault::bench {

/**
 * Parse `--mapping=NAME` (default "fig7a", the paper's Fig. 7a scheme).
 * A typo'd name is fatal with the registry's known-names list. The
 * chosen mapping changes simulation results, so callers must fold the
 * returned name into their campaign fingerprint.
 */
inline std::string
mappingFlag(const CliOptions &options)
{
    const std::string name = options.getString("mapping", "fig7a");
    if (!isAddressMapName(name))
        fatal("--mapping=" + name + " is not a mapping scheme (expected " +
              addressMapNamesHint() + ")");
    return name;
}

/** The paper's LLC: 8MiB, 16-way, 64B lines. */
inline CacheGeometry
paperLlc()
{
    return CacheGeometry{8 * 1024 * 1024, 16, 64};
}

/** Capacity cap used for the coverage curves (x-axis of Fig. 10). */
inline constexpr uint64_t kCoverageCapBytes = 2 * 1024 * 1024;

/** Which repair mechanism a bench row evaluates. */
struct MechanismSpec
{
    enum class Kind { None, RelaxFault, FreeFault, Ppr };
    Kind kind = Kind::None;
    unsigned ways = 1;      ///< Per-set way ceiling (LLC mechanisms).
    bool hash = true;       ///< LLC set hash / RelaxFault tag fold.
    std::string label;

    static MechanismSpec none() { return {Kind::None, 0, true, "none"}; }

    static MechanismSpec
    relaxFault(unsigned ways, bool hash = true)
    {
        return {Kind::RelaxFault, ways, hash,
                std::string("RelaxFault-") + std::to_string(ways) + "way" +
                    (hash ? "" : "-nohash")};
    }

    static MechanismSpec
    freeFault(unsigned ways, bool hash = true)
    {
        return {Kind::FreeFault, ways, hash,
                std::string("FreeFault-") + std::to_string(ways) + "way" +
                    (hash ? "" : "-nohash")};
    }

    static MechanismSpec ppr() { return {Kind::Ppr, 0, true, "PPR"}; }
};

/**
 * Build a mechanism factory for a spec against a node geometry, routing
 * DRAM-coordinate-aware mechanisms through @p map (which must be built
 * against the same geometry).
 */
inline LifetimeSimulator::MechanismFactory
makeFactory(const MechanismSpec &spec, const DramGeometry &geometry,
            const DramAddressMap &map)
{
    const CacheGeometry llc = paperLlc();
    const RepairBudget budget{spec.ways,
                              kCoverageCapBytes / llc.lineBytes};
    switch (spec.kind) {
      case MechanismSpec::Kind::None:
        return [] { return std::make_unique<NoRepair>(); };
      case MechanismSpec::Kind::RelaxFault:
        return [geometry, llc, budget, spec] {
            return std::make_unique<RelaxFaultRepair>(geometry, llc,
                                                      budget, spec.hash);
        };
      case MechanismSpec::Kind::FreeFault:
        return [map, llc, budget, spec] {
            return std::make_unique<FreeFaultRepair>(map, llc, budget,
                                                     spec.hash);
        };
      case MechanismSpec::Kind::Ppr:
        return [geometry] { return std::make_unique<PprRepair>(geometry); };
    }
    return {};
}

/** Factory with the paper's default Fig. 7a address map. */
inline LifetimeSimulator::MechanismFactory
makeFactory(const MechanismSpec &spec, const DramGeometry &geometry)
{
    return makeFactory(spec, geometry, makeAddressMap("fig7a", geometry));
}

} // namespace relaxfault::bench

#endif // RELAXFAULT_BENCH_BENCH_UTIL_H
