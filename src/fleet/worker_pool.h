/**
 * @file
 * Old names of the worker executor, kept only because the benchmark
 * program (perfbench/) still spells them; they go with the next
 * benchmark change. Everything else uses `CampaignRunner` and
 * `CampaignOptions` (campaign/campaign.h), where `workers > 0` runs a
 * unit over forked worker processes.
 */

#ifndef RELAXFAULT_FLEET_WORKER_POOL_H
#define RELAXFAULT_FLEET_WORKER_POOL_H

#include "campaign/campaign.h"
#include "fleet/fleet_sim.h"

namespace relaxfault {

/** Kept only for perfbench: the one runner at `workers > 0`. */
using WorkerCampaignRunner = CampaignRunner;

/** Kept only for perfbench: the one options struct. */
using WorkerOptions = CampaignOptions;

/** Kept only for perfbench: forwards to `runUnit`. */
inline CampaignResult
CampaignRunner::runUnitFleet(const std::string &unit,
                             const LifetimeSimulator &simulator,
                             const LifetimeSimulator::MechanismFactory &factory,
                             unsigned trials, uint64_t seed,
                             const TrialRunOptions &run_options)
{
    return runUnit(unit, simulator, factory, trials, seed, run_options);
}

} // namespace relaxfault

#endif // RELAXFAULT_FLEET_WORKER_POOL_H
