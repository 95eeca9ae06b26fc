/** @file Tests for DRAM energy accounting. */

#include "dram/energy.hh"

#include <gtest/gtest.h>

#include "core/system.hh"

namespace refsched::dram
{
namespace
{

TEST(EnergyTest, BackgroundScalesWithTimeAndRanks)
{
    EnergyParams p;
    p.backgroundMwPerRank = 100.0;
    // 100 mW over 1 us = 100 nJ = 1e5 pJ.
    EXPECT_DOUBLE_EQ(backgroundPj(p, 1, microseconds(1.0)), 1e5);
    EXPECT_DOUBLE_EQ(backgroundPj(p, 2, microseconds(1.0)), 2e5);
    EXPECT_DOUBLE_EQ(backgroundPj(p, 1, 0), 0.0);
}

TEST(EnergyBreakdownTest, TotalsAndShares)
{
    EnergyBreakdown b;
    b.activatePj = 10.0;
    b.readWritePj = 20.0;
    b.refreshPj = 30.0;
    b.backgroundPj = 40.0;
    EXPECT_DOUBLE_EQ(b.totalPj(), 100.0);
    EXPECT_DOUBLE_EQ(b.refreshShare(), 0.3);
    EXPECT_FALSE(b.summary().empty());

    EnergyBreakdown empty;
    EXPECT_DOUBLE_EQ(empty.refreshShare(), 0.0);
}

core::Metrics
runPolicy(core::Policy policy)
{
    core::SystemConfig cfg;
    cfg.numCores = 2;
    cfg.tasksPerCore = 2;
    cfg.timeScale = 512;
    cfg.applyPolicy(policy);
    cfg.benchmarks = {"GemsFDTD", "GemsFDTD", "GemsFDTD", "GemsFDTD"};
    core::System sys(cfg);
    return sys.run(8, 16);
}

TEST(EnergyIntegrationTest, RefreshEnergyMatchesRowsRefreshed)
{
    // Refresh pJ must equal refreshRowPj * rows actually refreshed,
    // and be (near-)identical across refreshing policies.
    const auto ab = runPolicy(core::Policy::AllBank);
    const auto pb = runPolicy(core::Policy::PerBank);
    const auto nr = runPolicy(core::Policy::NoRefresh);

    EXPECT_GT(ab.energy.refreshPj, 0.0);
    EXPECT_DOUBLE_EQ(nr.energy.refreshPj, 0.0);
    // Same measured window, same row-coverage obligation: within a
    // couple of boundary commands of each other.
    EXPECT_NEAR(ab.energy.refreshPj, pb.energy.refreshPj,
                ab.energy.refreshPj * 0.05);
}

TEST(EnergyIntegrationTest, EnergyPerInstructionImprovesWithCoDesign)
{
    const auto ab = runPolicy(core::Policy::AllBank);
    const auto cd = runPolicy(core::Policy::CoDesign);
    EXPECT_GT(ab.energyPerInstructionPj, 0.0);
    // More instructions in the same window, nearly equal energy.
    EXPECT_LT(cd.energyPerInstructionPj, ab.energyPerInstructionPj);
}

TEST(EnergyIntegrationTest, BackgroundDominatesIdleSystems)
{
    core::SystemConfig cfg;
    cfg.numCores = 1;
    cfg.tasksPerCore = 1;
    cfg.timeScale = 512;
    cfg.applyPolicy(core::Policy::AllBank);
    cfg.benchmarks = {"povray"};  // nearly cache-resident
    core::System sys(cfg);
    const auto m = sys.run(4, 8);
    EXPECT_GT(m.energy.backgroundPj, m.energy.activatePj);
}

} // namespace
} // namespace refsched::dram
