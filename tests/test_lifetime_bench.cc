/**
 * @file
 * Tests for `LifetimeBench`, the harness of the lifetime Monte Carlo
 * benches (bench/lifetime_bench.h).
 *
 *  - The campaign fingerprints it builds at default flags are pinned: a
 *    change to them orphans every existing checkpoint, so it must be a
 *    deliberate edit here, never a side effect of a refactor.
 *  - A rejected flag combination exits before any runner, temporary
 *    directory or stats plane exists.
 */

#include <gtest/gtest.h>

#include <string>
#include <unistd.h>
#include <vector>

#include "common/fs.h"
#include "lifetime_bench.h"

namespace relaxfault {
namespace {

using bench::LifetimeBench;

/** Run @p body with a mutable argv built from @p args ("prog" first). */
template <typename Body>
void
withArgv(std::vector<std::string> args, const Body &body)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    body(static_cast<int>(argv.size()), argv.data());
}

CampaignFingerprint
fingerprintAtDefaults(const bench::LifetimeBenchSpec &spec)
{
    CampaignFingerprint fingerprint;
    withArgv({}, [&](int argc, char **argv) {
        const LifetimeBench harness(argc, argv, spec);
        fingerprint = harness.fingerprint();
    });
    return fingerprint;
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "relaxfault_bench_" + name + "_" +
           std::to_string(::getpid());
}

TEST(LifetimeBenchFingerprint, Fig09AtDefaultFlags)
{
    const CampaignFingerprint fp = fingerprintAtDefaults(bench::kFig09Bench);
    EXPECT_EQ(fp.campaign, "fig09_fault_model_sensitivity");
    EXPECT_EQ(fp.seed, 909u);
    EXPECT_EQ(fp.trials, 15u);
    EXPECT_EQ(fp.shards, 1u);
    EXPECT_EQ(fp.config, "nodes=16384,mapping=fig7a");
}

TEST(LifetimeBenchFingerprint, Fig12AtDefaultFlags)
{
    const CampaignFingerprint fp = fingerprintAtDefaults(bench::kFig12Bench);
    EXPECT_EQ(fp.campaign, "fig12_due_rates");
    EXPECT_EQ(fp.seed, 1206u);
    EXPECT_EQ(fp.trials, 25u);
    EXPECT_EQ(fp.shards, 1u);
    EXPECT_EQ(fp.config, "nodes=16384,degrade=due,mapping=fig7a");
}

TEST(LifetimeBenchFingerprint, FleetScaleAtDefaultFlags)
{
    const CampaignFingerprint fp =
        fingerprintAtDefaults(bench::kFleetScaleBench);
    EXPECT_EQ(fp.campaign, "fleet_scale");
    EXPECT_EQ(fp.seed, 1206u);
    EXPECT_EQ(fp.trials, 8u);
    EXPECT_EQ(fp.shards, 1u);
    // The fleet engine has no modes any more; the suffix stays so
    // checkpoints written while it had them still resume.
    EXPECT_EQ(fp.config, "nodes=1000000,mode=lazy");
}

TEST(LifetimeBenchFingerprint, InProcessFleetScaleTakesShards)
{
    CampaignFingerprint fp;
    withArgv({"--shards=3"}, [&](int argc, char **argv) {
        const LifetimeBench harness(argc, argv, bench::kFleetScaleBench);
        EXPECT_EQ(harness.runner().workers(), 0u);
        fp = harness.fingerprint();
    });
    EXPECT_EQ(fp.shards, 3u);
    EXPECT_EQ(fp.config, "nodes=1000000,mode=lazy");
}

TEST(LifetimeBenchDeathTest, RejectedComboLeavesNoStatsPlane)
{
    // The pool would create the plane (and its temp checkpoint dir)
    // before the --profile check if validation ran late.
    const std::string plane = tempPath("p.plane");
    withArgv({"--workers=2", "--profile", "--stats-plane=" + plane},
             [](int argc, char **argv) {
                 EXPECT_EXIT(LifetimeBench(argc, argv, bench::kFig12Bench),
                             ::testing::ExitedWithCode(1),
                             "--profile does not support --workers");
             });
    EXPECT_FALSE(fileExists(plane));
}

} // namespace
} // namespace relaxfault
