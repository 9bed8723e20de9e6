/**
 * @file
 * Allocation pins of the per-node pipeline: once warm, a node is sampled
 * and simulated without touching the heap.
 *
 * This binary replaces the global `operator new` with a counting one.
 * Each case walks the first 16,384-node trial of the Fig. 12 10x-FIT
 * configuration on one engine (the classic `sampleNodeInto` walk off one
 * stream, or the fleet engine's per-node `FleetNodeSampler` walk),
 * simulating every node with one mechanism under one replacement
 * policy; telemetry, audit and tracing are off. The walk runs twice
 * through the same `NodeSample`, mechanism and per-thread scratch: the
 * first pass grows the pools to what the trial needs, and the second
 * pass over the same nodes must allocate nothing at all and reproduce
 * the first pass's metrics exactly.
 *
 * The warm-up is the same trial because a pool bounded by need must
 * grow when a node needs more than every node before it, and a trial's
 * heaviest node (some 30-45 faults on an accelerated node, against ~3
 * on average) falls in its second half as often as in its first.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <ostream>
#include <vector>

#include "bench_util.h"
#include "faults/fault_model.h"
#include "fleet/fleet_sim.h"
#include "sim/lifetime.h"

namespace {

std::atomic<uint64_t> allocations{0};

void *
countedAlloc(std::size_t size, std::size_t align)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    void *ptr = align <= alignof(std::max_align_t)
        ? std::malloc(size)
        : std::aligned_alloc(align, (size + align - 1) / align * align);
    if (ptr == nullptr)
        throw std::bad_alloc();
    return ptr;
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size, 0); }
void *operator new[](std::size_t size) { return countedAlloc(size, 0); }
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void *ptr) noexcept { std::free(ptr); }
void operator delete[](void *ptr) noexcept { std::free(ptr); }
void operator delete(void *ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void *ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void *ptr, std::align_val_t) noexcept { std::free(ptr); }
void
operator delete[](void *ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}
void
operator delete(void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}
void
operator delete[](void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}

namespace relaxfault {
namespace {

using bench::MechanismSpec;

constexpr unsigned kNodes = 16384;
constexpr uint64_t kSeed = 2016;

enum class Engine { Classic, Fleet };

struct Case
{
    Engine engine;
    ReplacePolicy policy;
    MechanismSpec spec;
};

/**
 * A case prints as its name, e.g. "classic_ReplA_none": gtest shows it
 * with a failure, and ctest names the test after it (the default
 * printer would dump the label string's heap pointer).
 */
void
PrintTo(const Case &c, std::ostream *os)
{
    *os << (c.engine == Engine::Classic ? "classic_" : "fleet_")
        << (c.policy == ReplacePolicy::AfterDue ? "ReplA_" : "ReplB_")
        << c.spec.label;
}

std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    for (const Engine engine : {Engine::Classic, Engine::Fleet}) {
        for (const ReplacePolicy policy : {ReplacePolicy::AfterDue,
                                           ReplacePolicy::OnFrequentErrors}) {
            for (const MechanismSpec &spec :
                 {MechanismSpec::none(), MechanismSpec::ppr(),
                  MechanismSpec::freeFault(1), MechanismSpec::relaxFault(4)})
                cases.push_back({engine, policy, spec});
        }
    }
    return cases;
}

LifetimeConfig
tenXConfig(ReplacePolicy policy)
{
    LifetimeConfig config;
    config.faultModel.fitScale = 10.0;
    config.nodesPerSystem = kNodes;
    config.policy = policy;
    return config;
}

class NodeAllocations : public ::testing::TestWithParam<Case>
{
};

/** One pass over trial 0's nodes; returns the heap allocations made. */
uint64_t
walkTrial(Engine engine, const FleetSimulator &sim,
          const NodeFaultSampler &sampler, RepairMechanism &mechanism,
          NodeSample &node, LifetimeMetrics &metrics)
{
    const uint64_t before = allocations.load(std::memory_order_relaxed);
    Rng trial_rng = Rng::forkAt(kSeed, 0);
    for (unsigned n = 0; n < kNodes; ++n) {
        if (engine == Engine::Classic) {
            sampler.sampleNodeInto(node, trial_rng);
            sim.simulateNode(node, &mechanism, nullptr, metrics, trial_rng,
                             nullptr, nullptr, nullptr);
            continue;
        }
        Rng rng = Rng::forkAt(kSeed, sim.nodeStreamIndex(0, n));
        if (sim.sampler().sampleNodeInto(node, rng) > 0) {
            sim.simulateNode(node, &mechanism, nullptr, metrics, rng,
                             nullptr, nullptr, nullptr);
        }
    }
    return allocations.load(std::memory_order_relaxed) - before;
}

TEST_P(NodeAllocations, WarmReplayOfTenXTrialAllocatesNothing)
{
    const auto &[engine, policy, spec] = GetParam();
    const LifetimeConfig config = tenXConfig(policy);
    const FleetSimulator sim(config);
    const NodeFaultSampler sampler(config.faultModel);
    const auto mechanism =
        bench::makeFactory(spec, config.faultModel.geometry)();

    NodeSample node;
    LifetimeMetrics warm;
    const uint64_t warm_allocations =
        walkTrial(engine, sim, sampler, *mechanism, node, warm);
    LifetimeMetrics replay;
    const uint64_t replay_allocations =
        walkTrial(engine, sim, sampler, *mechanism, node, replay);

    // The walk did real work: thousands of faulty nodes, DUEs, and (with
    // a mechanism) repairs; and the warm-up pass did allocate.
    EXPECT_GT(warm.faultyNodes, 2000.0);
    EXPECT_GT(warm.dues, 0.0);
    if (spec.kind != MechanismSpec::Kind::None) {
        EXPECT_GT(warm.repairedFaults, 0.0);
    }
    EXPECT_GT(warm_allocations, 0u);

    EXPECT_EQ(replay_allocations, 0u)
        << "heap allocations over a warm pass of " << kNodes << " nodes";
    for (const LifetimeField &field : kLifetimeFields)
        EXPECT_EQ(replay.*field.metric, warm.*field.metric) << field.counter;
}

INSTANTIATE_TEST_SUITE_P(TenX, NodeAllocations,
                         ::testing::ValuesIn(allCases()));

/** The counter sees the allocations it must: a guard on the pins above. */
TEST(NodeAllocationsCounter, CountsVectorGrowth)
{
    const uint64_t before = allocations.load(std::memory_order_relaxed);
    std::vector<int> grown;
    for (int i = 0; i < 100; ++i)
        grown.push_back(i);
    EXPECT_EQ(grown.back(), 99);
    EXPECT_GT(allocations.load(std::memory_order_relaxed) - before, 1u);
}

} // namespace
} // namespace relaxfault
