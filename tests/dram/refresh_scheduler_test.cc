/** @file Tests for the refresh scheduling policies.
 *
 * The central invariant: every policy refreshes every row of every
 * bank exactly once per tREFW window, no matter what the controller
 * state looks like.
 */

#include "dram/refresh_scheduler.hh"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "simcore/logging.hh"
#include "simcore/rng.hh"

namespace refsched::dram
{
namespace
{

/** A controllable McRefreshView for driving the policies. */
class FakeView : public McRefreshView
{
  public:
    int
    queuedToBank(int channel, int rank, int bank) const override
    {
        (void)channel;
        auto it = queued.find({rank, bank});
        return it == queued.end() ? 0 : it->second;
    }

    double channelUtilization(int) const override { return util; }

    std::map<std::pair<int, int>, int> queued;
    double util = 0.0;
};

DramDeviceConfig
cfg(unsigned timeScale = 64)
{
    return makeDdr3_1600(DensityGb::d32, milliseconds(64.0), timeScale);
}

/**
 * Pop commands from @p sched, tallying refreshed rows per bank,
 * until every bank reached @p targetRows (cap guards runaways).
 */
std::vector<std::uint64_t>
popUntilCovered(RefreshScheduler &sched, const DramDeviceConfig &dev,
                const McRefreshView &view,
                std::vector<std::uint64_t> rows,
                std::uint64_t targetRows)
{
    const std::uint64_t cap = 64 * dev.timings.refreshCommandsPerWindow
        * static_cast<std::uint64_t>(dev.org.banksTotal());
    std::uint64_t pops = 0;
    auto allCovered = [&] {
        for (const auto r : rows)
            if (r < targetRows)
                return false;
        return true;
    };
    while (!allCovered() && pops++ < cap) {
        const auto cmd = sched.pop(0, view);
        if (cmd.isAllBank()) {
            for (int b = 0; b < dev.org.banksPerRank; ++b) {
                rows[static_cast<std::size_t>(
                    cmd.rank * dev.org.banksPerRank + b)] += cmd.rows;
            }
        } else {
            rows[static_cast<std::size_t>(
                cmd.rank * dev.org.banksPerRank + cmd.bank)] += cmd.rows;
        }
    }
    return rows;
}

/** Convenience wrapper: tally one window's worth of coverage. */
std::vector<std::uint64_t>
runOneWindow(RefreshScheduler &sched, const DramDeviceConfig &dev,
             const McRefreshView &view)
{
    std::vector<std::uint64_t> rows(
        static_cast<std::size_t>(dev.org.banksTotal()), 0);
    return popUntilCovered(sched, dev, view, std::move(rows),
                           dev.org.rowsPerBank);
}

class CoveragePolicyTest
    : public ::testing::TestWithParam<RefreshPolicy>
{
};

TEST_P(CoveragePolicyTest, EveryBankFullyRefreshedEachWindow)
{
    const auto dev = cfg();
    auto sched = makeRefreshScheduler(GetParam(), dev);
    FakeView view;

    // Three windows of coverage, tallied cumulatively: when the last
    // bank reaches w*rowsPerBank, every bank must sit at EXACTLY
    // w*rowsPerBank (no over- or under-refresh), and the schedule
    // must not have run past the window (plus one interval's slack).
    std::vector<std::uint64_t> rows(
        static_cast<std::size_t>(dev.org.banksTotal()), 0);
    for (std::uint64_t window = 1; window <= 3; ++window) {
        rows = popUntilCovered(*sched, dev, view, std::move(rows),
                               window * dev.org.rowsPerBank);
        for (std::size_t b = 0; b < rows.size(); ++b) {
            EXPECT_EQ(rows[b], window * dev.org.rowsPerBank)
                << toString(GetParam()) << " bank " << b << " window "
                << window;
        }
        EXPECT_LE(sched->nextDue(0),
                  window * dev.timings.tREFW + dev.timings.tREFIab)
            << toString(GetParam());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllRefreshingPolicies, CoveragePolicyTest,
    ::testing::Values(RefreshPolicy::AllBank,
                      RefreshPolicy::PerBankRoundRobin,
                      RefreshPolicy::SequentialPerBank,
                      RefreshPolicy::OooPerBank,
                      RefreshPolicy::Adaptive));

TEST(NoRefreshTest, NeverDue)
{
    const auto dev = cfg();
    auto sched = makeRefreshScheduler(RefreshPolicy::NoRefresh, dev);
    EXPECT_EQ(sched->nextDue(0), kMaxTick);
    FakeView view;
    EXPECT_THROW(sched->pop(0, view), PanicError);
}

TEST(AllBankTest, RanksStaggered)
{
    const auto dev = cfg();
    AllBankRefresh sched(dev);
    FakeView view;

    EXPECT_EQ(sched.nextDue(0), 0u);
    const auto first = sched.pop(0, view);
    EXPECT_TRUE(first.isAllBank());
    EXPECT_EQ(first.rank, 0);
    EXPECT_EQ(first.tRFC, dev.timings.tRFCab);

    EXPECT_EQ(sched.nextDue(0), dev.timings.tREFIab / 2);
    const auto second = sched.pop(0, view);
    EXPECT_EQ(second.rank, 1);

    // Each rank's own cadence is tREFI.
    EXPECT_EQ(sched.nextDue(0), dev.timings.tREFIab);
    EXPECT_EQ(sched.pop(0, view).rank, 0);
}

TEST(PerBankRoundRobinTest, RotatesOverAllBanks)
{
    const auto dev = cfg();
    PerBankRoundRobin sched(dev);
    FakeView view;
    const Tick tREFIpb =
        dev.timings.tREFIpb(dev.org.banksTotal());

    for (int i = 0; i < 2 * dev.org.banksTotal(); ++i) {
        // The cadence re-anchors at every tREFI_ab boundary so the
        // truncation of tREFI_ab / banksTotal cannot accumulate
        // across windows (the pre-fix `i * tREFIpb` drifted early).
        const int bpc = dev.org.banksTotal();
        const Tick due =
            static_cast<Tick>(i / bpc) * dev.timings.tREFIab
            + static_cast<Tick>(i % bpc) * tREFIpb;
        EXPECT_EQ(sched.nextDue(0), due);
        const auto cmd = sched.pop(0, view);
        EXPECT_FALSE(cmd.isAllBank());
        const int expected = i % dev.org.banksTotal();
        EXPECT_EQ(cmd.rank, expected / dev.org.banksPerRank);
        EXPECT_EQ(cmd.bank, expected % dev.org.banksPerRank);
        EXPECT_EQ(cmd.tRFC, dev.timings.tRFCpb);
    }
}

TEST(SequentialPerBankTest, RefreshesOneBankToCompletionFirst)
{
    const auto dev = cfg();
    SequentialPerBank sched(dev);
    FakeView view;

    const auto cmdsPerBank = dev.org.rowsPerBank
        / dev.timings.rowsPerRefresh;

    // Algorithm 1: the first cmdsPerBank commands all hit (rank 0,
    // bank 0); the next batch moves to bank 1.
    for (std::uint64_t i = 0; i < cmdsPerBank; ++i) {
        const auto cmd = sched.pop(0, view);
        ASSERT_EQ(cmd.rank, 0);
        ASSERT_EQ(cmd.bank, 0);
    }
    const auto next = sched.pop(0, view);
    EXPECT_EQ(next.rank, 0);
    EXPECT_EQ(next.bank, 1);
}

TEST(SequentialPerBankTest, RankAdvancesAfterLastBank)
{
    const auto dev = cfg();
    SequentialPerBank sched(dev);
    FakeView view;
    const auto cmdsPerBank =
        dev.org.rowsPerBank / dev.timings.rowsPerRefresh;

    // Skip through rank 0 entirely.
    for (std::uint64_t i = 0;
         i < cmdsPerBank * static_cast<std::uint64_t>(
                 dev.org.banksPerRank);
         ++i) {
        sched.pop(0, view);
    }
    const auto cmd = sched.pop(0, view);
    EXPECT_EQ(cmd.rank, 1);
    EXPECT_EQ(cmd.bank, 0);
}

TEST(SequentialPerBankTest, SlotLengthIsWindowOverBanks)
{
    const auto dev = cfg();
    SequentialPerBank sched(dev);
    EXPECT_EQ(sched.slotLength(),
              dev.timings.tREFW
                  / static_cast<Tick>(dev.org.banksTotal()));
}

TEST(SequentialPerBankTest, AnalyticSlotMatchesActualCommands)
{
    // The co-design contract: banksUnderRefreshAt(t) must contain
    // the bank the command stream actually refreshes at time t.
    const auto dev = cfg();
    SequentialPerBank sched(dev);
    EXPECT_FALSE(sched.rankParallel());
    FakeView view;

    for (int i = 0; i < 4096; ++i) {
        const Tick due = sched.nextDue(0);
        const auto predicted = sched.banksUnderRefreshAt(0, due);
        const auto cmd = sched.pop(0, view);
        ASSERT_EQ(predicted.size(), 1u);
        EXPECT_EQ(predicted[0],
                  cmd.rank * dev.org.banksPerRank + cmd.bank)
            << "command " << i << " due " << due;
    }
}

TEST(SequentialPerBankTest, SlotQueryCoversWholeWindow)
{
    const auto dev = cfg();
    SequentialPerBank sched(dev);
    const Tick slot = sched.slotLength();
    for (int s = 0; s < dev.org.banksTotal(); ++s) {
        EXPECT_EQ(sched.banksUnderRefreshAt(
                      0, static_cast<Tick>(s) * slot),
                  std::vector<int>{s});
        // Mid-slot queries agree.
        EXPECT_EQ(sched.banksUnderRefreshAt(
                      0, static_cast<Tick>(s) * slot + slot / 2),
                  std::vector<int>{s});
    }
    // Next window wraps around.
    EXPECT_EQ(sched.banksUnderRefreshAt(0, dev.timings.tREFW),
              std::vector<int>{0});
}

TEST(SequentialPerBankTest, RankParallelFallbackAt32ms32Gb)
{
    // 32 ms retention at 32 Gb: tREFI_pb (244 ns) < tRFC_pb
    // (387 ns), so the global schedule is infeasible and the
    // sequential scheduler runs one Algorithm 1 walk per rank.
    const auto dev = makeDdr3_1600(DensityGb::d32, milliseconds(32.0),
                                   64);
    SequentialPerBank sched(dev);
    EXPECT_TRUE(sched.rankParallel());
    EXPECT_EQ(sched.slotLength(),
              dev.timings.tREFW
                  / static_cast<Tick>(dev.org.banksPerRank));

    FakeView view;
    // Consecutive pops alternate ranks, so same-bank commands are a
    // full per-rank interval apart.
    const auto first = sched.pop(0, view);
    const auto second = sched.pop(0, view);
    EXPECT_EQ(first.rank, 0);
    EXPECT_EQ(second.rank, 1);
    EXPECT_EQ(first.bank, second.bank);

    // The analytic query names one bank per rank (same bank-id).
    const auto banks = sched.banksUnderRefreshAt(0, 0);
    ASSERT_EQ(banks.size(),
              static_cast<std::size_t>(dev.org.ranksPerChannel));
    EXPECT_EQ(banks[0] % dev.org.banksPerRank,
              banks[1] % dev.org.banksPerRank);
}

TEST(SequentialPerBankTest, RankParallelCoversAllRows)
{
    const auto dev = makeDdr3_1600(DensityGb::d32, milliseconds(32.0),
                                   64);
    SequentialPerBank sched(dev);
    FakeView view;
    const auto rows = runOneWindow(sched, dev, view);
    for (std::size_t b = 0; b < rows.size(); ++b)
        EXPECT_EQ(rows[b], dev.org.rowsPerBank) << "bank " << b;
}

TEST(OooPerBankTest, PrefersBankWithFewestQueuedRequests)
{
    const auto dev = cfg();
    OooPerBank sched(dev);
    FakeView view;
    // Load every bank except (rank 1, bank 5).
    for (int r = 0; r < dev.org.ranksPerChannel; ++r) {
        for (int b = 0; b < dev.org.banksPerRank; ++b)
            view.queued[{r, b}] = 10;
    }
    view.queued[{1, 5}] = 0;

    const auto cmd = sched.pop(0, view);
    EXPECT_EQ(cmd.rank, 1);
    EXPECT_EQ(cmd.bank, 5);
}

TEST(OooPerBankTest, ExhaustedBankNotChosenAgain)
{
    const auto dev = cfg();
    OooPerBank sched(dev);
    FakeView view;
    // Every other bank stays busy; bank (0,0) is always idle and
    // therefore always the most attractive refresh target.
    for (int r = 0; r < dev.org.ranksPerChannel; ++r) {
        for (int b = 0; b < dev.org.banksPerRank; ++b)
            view.queued[{r, b}] = 5;
    }
    view.queued[{0, 0}] = 0;
    const auto perBank = dev.timings.refreshCommandsPerWindow;

    std::uint64_t toBank0 = 0;
    for (std::uint64_t i = 0; i < perBank + 10; ++i) {
        const auto cmd = sched.pop(0, view);
        if (cmd.rank == 0 && cmd.bank == 0)
            ++toBank0;
    }
    // Bank 0 got exactly its quota, then the policy moved on.
    EXPECT_EQ(toBank0, perBank);
}

TEST(AdaptiveRefreshTest, SwitchesModeWithUtilization)
{
    const auto dev = cfg();
    AdaptiveRefresh sched(dev);
    FakeView view;

    view.util = 0.9;  // saturated channel -> coarse 1x mode
    auto cmd = sched.pop(0, view);
    EXPECT_EQ(sched.currentMode(0), FgrMode::x1);
    EXPECT_EQ(cmd.tRFC, dev.timings.tRFCab);

    view.util = 0.01;  // near-idle channel (< 2 %) -> fine 4x mode
    cmd = sched.pop(0, view);
    EXPECT_EQ(sched.currentMode(0), FgrMode::x4);
    EXPECT_EQ(cmd.tRFC,
              static_cast<Tick>(
                  static_cast<double>(dev.timings.tRFCab) / 1.63));
}

TEST(AdaptiveRefreshTest, FourXModeQuadruplesCadence)
{
    const auto dev = cfg();
    AdaptiveRefresh sched(dev);
    FakeView view;
    view.util = 0.0;

    const Tick before = sched.nextDue(0);
    sched.pop(0, view);
    const Tick after = sched.nextDue(0);
    EXPECT_EQ(after - before,
              dev.timings.tREFIab / 4
                  / static_cast<Tick>(dev.org.ranksPerChannel));
}

TEST(FactoryTest, CreatesEveryPolicy)
{
    const auto dev = cfg();
    for (auto p : {RefreshPolicy::NoRefresh, RefreshPolicy::AllBank,
                   RefreshPolicy::PerBankRoundRobin,
                   RefreshPolicy::SequentialPerBank,
                   RefreshPolicy::OooPerBank, RefreshPolicy::Adaptive}) {
        auto sched = makeRefreshScheduler(p, dev);
        ASSERT_NE(sched, nullptr);
        EXPECT_EQ(sched->policy(), p);
        EXPECT_FALSE(sched->name().empty());
    }
}

/**
 * Long-horizon cadence exactness (>= 4 x tREFW): bucket every
 * command by the wall-clock window its DUE TICK falls in and demand
 * per-bank row totals be exact in every window.
 *
 * This is strictly stronger than cumulative coverage: the pre-fix
 * `cmdIndex * step` cadences drifted EARLY (truncation of
 * tREFI / N accumulates), so commands meant for window w+1 leaked
 * into window w while cumulative tallies still balanced.  The
 * coverage tests above cannot see that; wall-clock bucketing can.
 */
std::vector<std::vector<std::uint64_t>>
rowsPerWallClockWindow(RefreshScheduler &sched,
                       const DramDeviceConfig &dev,
                       const McRefreshView &view,
                       std::uint64_t numWindows)
{
    const int banksTotal = dev.org.banksTotal();
    std::vector<std::vector<std::uint64_t>> rows(
        numWindows,
        std::vector<std::uint64_t>(
            static_cast<std::size_t>(banksTotal), 0));
    const Tick horizon =
        static_cast<Tick>(numWindows) * dev.timings.tREFW;
    while (sched.nextDue(0) < horizon) {
        const auto window = static_cast<std::size_t>(
            sched.nextDue(0) / dev.timings.tREFW);
        const auto cmd = sched.pop(0, view);
        auto &bucket = rows[window];
        if (cmd.isAllBank()) {
            for (int b = 0; b < dev.org.banksPerRank; ++b)
                bucket[static_cast<std::size_t>(
                    cmd.rank * dev.org.banksPerRank + b)] += cmd.rows;
        } else {
            bucket[static_cast<std::size_t>(
                cmd.rank * dev.org.banksPerRank + cmd.bank)]
                += cmd.rows;
        }
    }
    return rows;
}

class LongHorizonCadenceTest
    : public ::testing::TestWithParam<RefreshPolicy>
{
};

TEST_P(LongHorizonCadenceTest, ExactRowsPerBankPerWindow)
{
    const auto dev = cfg(/*timeScale=*/1024);
    auto sched = makeRefreshScheduler(GetParam(), dev);
    FakeView view;

    constexpr std::uint64_t kWindows = 4;
    const auto rows =
        rowsPerWallClockWindow(*sched, dev, view, kWindows);
    const std::uint64_t expected =
        GetParam() == RefreshPolicy::NoRefresh ? 0
                                               : dev.org.rowsPerBank;
    for (std::uint64_t w = 0; w < kWindows; ++w)
        for (std::size_t b = 0; b < rows[w].size(); ++b)
            EXPECT_EQ(rows[w][b], expected)
                << toString(GetParam()) << " window " << w
                << " bank " << b;
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, LongHorizonCadenceTest,
    ::testing::Values(RefreshPolicy::NoRefresh, RefreshPolicy::AllBank,
                      RefreshPolicy::PerBankRoundRobin,
                      RefreshPolicy::SequentialPerBank,
                      RefreshPolicy::OooPerBank,
                      RefreshPolicy::Adaptive));

TEST(LongHorizonCadenceRanks3Test, AllBankNonDividingStagger)
{
    // ranks=3 does not divide tREFI_ab: the truncated stagger loses
    // (tREFIab - 3 * stagger) ticks per interval, so the pre-fix
    // cadence pulled every window-boundary command into the previous
    // wall-clock window (rank 0 over-refreshed in window w, under-
    // refreshed in the last).  Only the policy layer is exercised:
    // full-System organizations require power-of-two ranks.
    auto dev = cfg(/*timeScale=*/1024);
    dev.org.ranksPerChannel = 3;
    ASSERT_NE(dev.timings.tREFIab % 3, 0u);

    AllBankRefresh sched(dev);
    FakeView view;
    constexpr std::uint64_t kWindows = 4;
    const auto rows =
        rowsPerWallClockWindow(sched, dev, view, kWindows);
    for (std::uint64_t w = 0; w < kWindows; ++w)
        for (std::size_t b = 0; b < rows[w].size(); ++b)
            EXPECT_EQ(rows[w][b], dev.org.rowsPerBank)
                << "window " << w << " bank " << b;
}

TEST(LongHorizonCadenceRanks3Test, PerBankNonDividingInterval)
{
    auto dev = cfg(/*timeScale=*/1024);
    dev.org.ranksPerChannel = 3;
    ASSERT_NE(dev.timings.tREFIab
                  % static_cast<Tick>(dev.org.banksTotal()),
              0u);

    PerBankRoundRobin sched(dev);
    FakeView view;
    constexpr std::uint64_t kWindows = 4;
    const auto rows =
        rowsPerWallClockWindow(sched, dev, view, kWindows);
    for (std::uint64_t w = 0; w < kWindows; ++w)
        for (std::size_t b = 0; b < rows[w].size(); ++b)
            EXPECT_EQ(rows[w][b], dev.org.rowsPerBank)
                << "window " << w << " bank " << b;
}

TEST(MultiChannelTest, ChannelsHaveIndependentCursors)
{
    auto dev = cfg();
    dev.org.channels = 2;
    SequentialPerBank sched(dev);
    FakeView view;

    sched.pop(0, view);
    sched.pop(0, view);
    // Channel 1 untouched: still due at 0.
    EXPECT_EQ(sched.nextDue(1), 0u);
    EXPECT_GT(sched.nextDue(0), 0u);
}

} // namespace
} // namespace refsched::dram
