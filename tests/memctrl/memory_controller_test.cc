/** @file Tests for the FR-FCFS memory controller. */

#include "memctrl/memory_controller.hh"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "simcore/logging.hh"
#include "simcore/rng.hh"

namespace refsched::memctrl
{
namespace
{

using dram::DensityGb;
using dram::RefreshPolicy;

/**
 * Callee test double: cookie0 carries the address of an
 * std::optional<Tick> completion slot, which fire() stamps with the
 * data-ready tick.  The slot must outlive the scheduled completion
 * (tests hold them in shared_ptrs until after runUntil).
 */
struct CompletionSink : Callee
{
    void
    fire(Tick now, std::uint64_t slotAddr, std::uint64_t) override
    {
        *reinterpret_cast<std::optional<Tick> *>(slotAddr) = now;
    }
};

struct Harness
{
    explicit Harness(RefreshPolicy policy = RefreshPolicy::NoRefresh,
                     unsigned timeScale = 64,
                     const ControllerParams &params = {})
        : dev(dram::makeDdr3_1600(DensityGb::d32, milliseconds(64.0),
                                  timeScale)),
          mc(eq, dev, dram::makeRefreshScheduler(policy, dev), params)
    {
    }

    /** Enqueue a read; returns a slot that records completion. */
    std::shared_ptr<std::optional<Tick>>
    read(Addr addr)
    {
        auto done = std::make_shared<std::optional<Tick>>();
        doneSlots.push_back(done);  // keep alive past caller scope
        Request r;
        r.paddr = addr;
        r.type = Request::Type::Read;
        r.completion = &sink;
        r.cookie0 = reinterpret_cast<std::uint64_t>(done.get());
        EXPECT_TRUE(mc.enqueue(std::move(r)));
        return done;
    }

    bool
    write(Addr addr)
    {
        Request r;
        r.paddr = addr;
        r.type = Request::Type::Write;
        return mc.enqueue(std::move(r));
    }

    /** Compose an address for (rank, bank, row, column). */
    Addr
    addrOf(int rank, int bank, std::uint64_t row,
           std::uint64_t col = 0) const
    {
        dram::DramCoord c;
        c.rank = rank;
        c.bank = bank;
        c.row = row;
        c.column = col;
        return mc.mapping().compose(c);
    }

    EventQueue eq;
    dram::DramDeviceConfig dev;
    MemoryController mc;
    CompletionSink sink;
    std::vector<std::shared_ptr<std::optional<Tick>>> doneSlots;
};

TEST(MemoryControllerTest, UnloadedReadLatencyIsActPlusCasPlusBurst)
{
    Harness h;
    auto done = h.read(h.addrOf(0, 0, 10));
    h.eq.runUntil(microseconds(1));
    ASSERT_TRUE(done->has_value());
    const auto &t = h.dev.timings;
    EXPECT_EQ(done->value(), t.tRCD + t.tCL + t.tBURST);
    EXPECT_EQ(h.mc.channelStats(0).rowMisses.value(), 1.0);
}

TEST(MemoryControllerTest, RowHitSkipsActivation)
{
    Harness h;
    auto first = h.read(h.addrOf(0, 0, 10, 0));
    // Stay within the idle-row auto-close timeout so row 10 is
    // still latched when the second request arrives.
    h.eq.runUntil(nanoseconds(100));
    ASSERT_TRUE(first->has_value());

    const Tick start = h.eq.now();
    auto second = h.read(h.addrOf(0, 0, 10, 1));
    h.eq.runUntil(start + microseconds(1));
    ASSERT_TRUE(second->has_value());

    const auto &t = h.dev.timings;
    // The open-row policy kept row 10 latched: CAS-only latency,
    // rounded up to the next clock edge.
    const Tick expected =
        divCeil(0, 1) /* keep clang happy */ + t.tCL + t.tBURST;
    EXPECT_LE(second->value() - start, expected + t.tCK);
    EXPECT_EQ(h.mc.channelStats(0).rowHits.value(), 1.0);
}

TEST(MemoryControllerTest, RowConflictPrechargesAndReopens)
{
    Harness h;
    auto first = h.read(h.addrOf(0, 0, 10));
    // Within the idle-close timeout: row 10 is still open, so the
    // second request is a genuine conflict.
    h.eq.runUntil(nanoseconds(100));

    const Tick start = h.eq.now();
    auto second = h.read(h.addrOf(0, 0, 99));
    h.eq.runUntil(start + microseconds(1));
    ASSERT_TRUE(second->has_value());

    const auto &t = h.dev.timings;
    // PRE + ACT + CAS: at least tRP + tRCD + tCL + tBURST.
    EXPECT_GE(second->value() - start,
              t.tRP + t.tRCD + t.tCL + t.tBURST);
    EXPECT_EQ(h.mc.channelStats(0).rowMisses.value(), 2.0);
}

TEST(MemoryControllerTest, FrFcfsPrioritisesRowHitsOverOlderMisses)
{
    Harness h;
    // Open row 5 in bank 0 (and stay inside the idle-close timeout
    // so it is still open when the contenders arrive).
    auto warm = h.read(h.addrOf(0, 0, 5));
    h.eq.runUntil(nanoseconds(100));
    ASSERT_TRUE(warm->has_value());

    // Older conflicting request to bank 0 row 7, then a younger
    // row hit to row 5 in the same bank.
    const Tick start = h.eq.now();
    auto conflict = h.read(h.addrOf(0, 0, 7));
    auto hit = h.read(h.addrOf(0, 0, 5, 3));
    h.eq.runUntil(start + microseconds(2));
    ASSERT_TRUE(conflict->has_value());
    ASSERT_TRUE(hit->has_value());
    // First-ready wins: the row hit completes before the conflict.
    EXPECT_LT(hit->value(), conflict->value());
}

TEST(MemoryControllerTest, BanksServeInParallel)
{
    Harness h;
    const Tick start = 0;
    auto a = h.read(h.addrOf(0, 0, 1));
    auto b = h.read(h.addrOf(0, 1, 1));
    h.eq.runUntil(microseconds(1));
    ASSERT_TRUE(a->has_value() && b->has_value());
    const auto &t = h.dev.timings;
    // Second bank's ACT is only tRRD + command-slot behind; both
    // finish far sooner than serialised tRC would allow.
    EXPECT_LE(b->value() - start,
              t.tRRD + t.tRCD + t.tCL + 2 * t.tBURST + 2 * t.tCK);
}

TEST(MemoryControllerTest, ReadQueueFillsAndRejects)
{
    Harness h;
    // All to one bank+row-conflicting rows so nothing completes
    // until we run the queue.
    for (std::uint64_t i = 0; i < 64; ++i)
        h.read(h.addrOf(0, 0, i));
    Request extra;
    extra.paddr = h.addrOf(0, 0, 64);
    extra.type = Request::Type::Read;
    EXPECT_FALSE(h.mc.enqueue(std::move(extra)));
    EXPECT_EQ(h.mc.readQueueSize(0), 64u);
}

TEST(MemoryControllerTest, RetryNotificationFiresWhenSpaceFrees)
{
    Harness h;
    for (std::uint64_t i = 0; i < 64; ++i)
        h.read(h.addrOf(0, 0, i));
    // Two waiters: both fire once, synchronously at the freeing
    // tick, in registration order, with their own arguments.
    struct RetryLog final : Callee
    {
        void
        fire(Tick now, std::uint64_t a0, std::uint64_t a1) override
        {
            log.push_back({now, a0, a1});
        }
        std::vector<std::vector<std::uint64_t>> log;
    } retries;
    h.mc.requestRetryNotification(retries, 7, 8);
    h.mc.requestRetryNotification(retries, 9, 10);
    h.eq.runUntil(microseconds(2));
    ASSERT_EQ(retries.log.size(), 2u);
    EXPECT_EQ(retries.log[0][0], retries.log[1][0]);
    EXPECT_GT(retries.log[0][0], 0u);
    EXPECT_EQ(retries.log[0][1], 7u);
    EXPECT_EQ(retries.log[0][2], 8u);
    EXPECT_EQ(retries.log[1][1], 9u);
    EXPECT_EQ(retries.log[1][2], 10u);
}

TEST(MemoryControllerTest, WritesArePostedAndDrainAtHighWatermark)
{
    Harness h;
    // Stay below the high watermark: nothing drains (reads absent,
    // opportunistic threshold is low-watermark + 4).
    for (std::uint64_t i = 0; i < 20; ++i)
        EXPECT_TRUE(h.write(h.addrOf(0, static_cast<int>(i % 8), i)));
    h.eq.runUntil(microseconds(5));
    EXPECT_EQ(h.mc.writeQueueSize(0), 20u);
    EXPECT_EQ(h.mc.channelStats(0).writeDrainBatches.value(), 0.0);

    // Push past the high watermark: batch-drain down to the low one.
    for (std::uint64_t i = 20; i < 54; ++i)
        EXPECT_TRUE(h.write(h.addrOf(0, static_cast<int>(i % 8), i)));
    h.eq.runUntil(microseconds(50));
    EXPECT_EQ(h.mc.writeQueueSize(0), 32u);
    EXPECT_GE(h.mc.channelStats(0).writeDrainBatches.value(), 1.0);
    EXPECT_EQ(h.mc.channelStats(0).writes.value(), 54.0 - 32.0);
}

TEST(MemoryControllerTest, ReadForwardedFromWriteQueue)
{
    Harness h;
    const Addr a = h.addrOf(0, 3, 77);
    EXPECT_TRUE(h.write(a));
    auto done = h.read(a);
    h.eq.runUntil(microseconds(1));
    ASSERT_TRUE(done->has_value());
    EXPECT_EQ(done->value(), h.dev.timings.tCK);
    const auto &s = h.mc.channelStats(0);
    EXPECT_EQ(s.forwardedReads.value(), 1.0);
    // The forwarded read never entered the read queue.
    EXPECT_EQ(s.rowMisses.value(), 0.0);
    // ...but it is a read like any other in the latency histograms:
    // clean (it never waited on a bank), with latency tCK.
    const auto reads = static_cast<std::uint64_t>(s.reads.value());
    EXPECT_EQ(s.readLatencyClean.samples() + s.readLatencyBlocked.samples(),
              reads);
    EXPECT_EQ(s.readLatencyDist.samples(), reads);
    EXPECT_EQ(s.readLatencyClean.maxValue(),
              static_cast<double>(h.dev.timings.tCK));
    // Queue-wait stats count CAS-issued reads only.
    EXPECT_EQ(s.readQueueWaitHist.samples(), 0u);
}

TEST(MemoryControllerTest, QueuedToBankCountsDemandReads)
{
    Harness h;
    h.read(h.addrOf(0, 2, 1));
    h.read(h.addrOf(0, 2, 2));
    h.read(h.addrOf(1, 4, 1));
    h.write(h.addrOf(0, 2, 3));  // writes don't count
    EXPECT_EQ(h.mc.queuedToBank(0, 0, 2), 2);
    EXPECT_EQ(h.mc.queuedToBank(0, 1, 4), 1);
    EXPECT_EQ(h.mc.queuedToBank(0, 0, 5), 0);
    h.eq.runUntil(microseconds(2));
    EXPECT_EQ(h.mc.queuedToBank(0, 0, 2), 0);
}

TEST(MemoryControllerRefreshTest, AllBankRefreshBlocksWholeRank)
{
    Harness h(RefreshPolicy::AllBank);
    // Let the first refresh engage with an empty queue.
    h.eq.runUntil(nanoseconds(100));
    const Tick start = h.eq.now();
    auto blocked = h.read(h.addrOf(0, 0, 1));
    auto other = h.read(h.addrOf(1, 0, 1));
    h.eq.runUntil(start + microseconds(3));
    ASSERT_TRUE(blocked->has_value() && other->has_value());
    const auto &t = h.dev.timings;
    // Rank 0 was refreshing: the read waited out most of tRFC_ab.
    EXPECT_GT(blocked->value() - start, t.tRFCab / 2);
    // Rank 1 was free (staggered refresh).
    EXPECT_LT(other->value() - start, t.tRFCab / 2);
    EXPECT_GE(h.mc.channelStats(0).readsBlockedByRefresh.value(), 1.0);
}

TEST(MemoryControllerRefreshTest, WakePreciseSleepsThroughRefreshWindow)
{
    // A read that arrives while its rank is under all-bank refresh
    // cannot be served until tRFC expires -- a window spanning
    // hundreds of memory-clock edges.  The wake-precise controller
    // must sleep through it: the kernel executes O(state changes)
    // events (the enqueue wake-up, refresh-engine progress on the
    // other rank, harvests of newly due refreshes), not one event
    // per edge as the polling controller did.
    Harness h(RefreshPolicy::AllBank);
    h.eq.runUntil(nanoseconds(100));
    const auto &bank0 = h.mc.bank(0, 0, 0);
    ASSERT_TRUE(bank0.underRefresh(h.eq.now()));
    const Tick refEnd = bank0.refreshingUntil;
    const auto &t = h.dev.timings;
    const Tick edges = (refEnd - h.eq.now()) / t.tCK;
    ASSERT_GE(edges, 500) << "window too short to be meaningful";

    const std::uint64_t before = h.eq.executedCount();
    auto done = h.read(h.addrOf(0, 0, 1));
    h.eq.runUntil(refEnd);
    const std::uint64_t during = h.eq.executedCount() - before;
    EXPECT_LE(during, 64u)
        << "controller polled through a " << edges
        << "-edge refresh window";

    h.eq.runUntil(refEnd + microseconds(3));
    ASSERT_TRUE(done->has_value());
    EXPECT_GE(done->value(), refEnd);
}

TEST(MemoryControllerRefreshTest, PerBankRefreshLeavesOtherBanksFree)
{
    Harness h(RefreshPolicy::PerBankRoundRobin);
    h.eq.runUntil(nanoseconds(50));  // bank (0,0) refresh engages
    const Tick start = h.eq.now();
    auto blocked = h.read(h.addrOf(0, 0, 1));
    auto free1 = h.read(h.addrOf(0, 5, 1));
    h.eq.runUntil(start + microseconds(3));
    ASSERT_TRUE(blocked->has_value() && free1->has_value());
    const auto &t = h.dev.timings;
    EXPECT_GT(blocked->value() - start, t.tRFCpb / 2);
    EXPECT_LT(free1->value() - start, t.tRFCpb / 2);
}

TEST(MemoryControllerRefreshTest, DeferralLetsDemandGoFirst)
{
    Harness h(RefreshPolicy::AllBank);
    // Demand arrives before the refresh engages: elastic
    // postponement serves it at unloaded latency.
    auto done = h.read(h.addrOf(0, 0, 1));
    h.eq.runUntil(microseconds(2));
    ASSERT_TRUE(done->has_value());
    const auto &t = h.dev.timings;
    EXPECT_EQ(done->value(), t.tRCD + t.tCL + t.tBURST);
}

TEST(MemoryControllerRefreshTest, RefreshCatchesUpAfterDeferral)
{
    Harness h(RefreshPolicy::AllBank);
    auto done = h.read(h.addrOf(0, 0, 1));
    h.eq.runUntil(milliseconds(0.05));
    // Both ranks' deferred refreshes eventually issued.
    EXPECT_GE(h.mc.channelStats(0).refreshCommands.value(), 2.0);
}

TEST(MemoryControllerRefreshTest, FullWindowRefreshesAllRows)
{
    for (auto policy : {RefreshPolicy::AllBank,
                        RefreshPolicy::PerBankRoundRobin,
                        RefreshPolicy::SequentialPerBank}) {
        Harness h(policy, 256);
        h.eq.runUntil(h.dev.timings.tREFW + h.dev.timings.tRFCab);
        const double expected = static_cast<double>(
            h.dev.org.rowsPerBank
            * static_cast<std::uint64_t>(h.dev.org.banksTotal()));
        const auto got = h.mc.channelStats(0).rowsRefreshed.value();
        // Full coverage of window 1 is mandatory; the integer
        // rounding of tREFI can pull the first command or two of
        // window 2 inside the horizon, so allow one all-bank
        // command's worth of slack upward.
        EXPECT_GE(got, expected) << dram::toString(policy);
        EXPECT_LE(got,
                  expected
                      + static_cast<double>(
                          h.dev.timings.rowsPerRefresh
                          * static_cast<std::uint64_t>(
                              h.dev.org.banksPerRank)))
            << dram::toString(policy);
    }
}

TEST(MemoryControllerRefreshTest, PausingShortensRefreshBlocking)
{
    // Same scenario twice: a read arrives mid-refresh.  With
    // Refresh Pausing it completes after at most a row boundary;
    // without, it waits out the whole tRFC_pb.
    Tick latency[2];
    double pauses[2];
    int idx = 0;
    for (const bool pausing : {false, true}) {
        EventQueue eq;
        auto dev = dram::makeDdr3_1600(DensityGb::d32,
                                       milliseconds(64.0), 64);
        ControllerParams params;
        params.refreshPausing = pausing;
        MemoryController mc(
            eq, dev,
            dram::makeRefreshScheduler(
                RefreshPolicy::PerBankRoundRobin, dev),
            params);

        // Let the first refresh (rank 0, bank 0) engage unopposed.
        eq.runUntil(nanoseconds(50.0));
        const Tick start = eq.now();
        CompletionSink sink;
        auto done = std::make_shared<std::optional<Tick>>();
        dram::DramCoord coord;
        coord.bank = 0;
        coord.row = 5;
        Request r;
        r.paddr = mc.mapping().compose(coord);
        r.type = Request::Type::Read;
        r.completion = &sink;
        r.cookie0 = reinterpret_cast<std::uint64_t>(done.get());
        ASSERT_TRUE(mc.enqueue(std::move(r)));
        eq.runUntil(start + microseconds(3.0));
        ASSERT_TRUE(done->has_value());
        latency[idx] = done->value() - start;
        pauses[idx] = mc.channelStats(0).refreshPauses.value();
        ++idx;
    }
    EXPECT_EQ(pauses[0], 0.0);
    EXPECT_GE(pauses[1], 1.0);
    EXPECT_LT(latency[1], latency[0] / 2);
}

TEST(MemoryControllerRefreshTest, PausedRowsAreEventuallyRefreshed)
{
    // Row-coverage conservation: pausing re-queues the remainder, so
    // a full window still refreshes every row.
    EventQueue eq;
    auto dev = dram::makeDdr3_1600(DensityGb::d32, milliseconds(64.0),
                                   256);
    ControllerParams params;
    params.refreshPausing = true;
    MemoryController mc(
        eq, dev,
        dram::makeRefreshScheduler(RefreshPolicy::PerBankRoundRobin,
                                   dev),
        params);

    // Sporadic random reads to provoke pauses throughout a window.
    struct Injector final : Callee
    {
        Injector(EventQueue &q, MemoryController &m,
                 const dram::DramDeviceConfig &d)
            : eq(q), mc(m), dev(d)
        {
        }

        void
        fire(Tick t, std::uint64_t, std::uint64_t) override
        {
            Request r;
            r.paddr = rng.below(dev.org.totalBytes() / 64) * 64;
            r.type = Request::Type::Read;
            // Fire-and-forget: a null completion is valid.
            mc.enqueue(std::move(r));
            const Tick gap = nanoseconds(150.0);
            if (t + gap < dev.timings.tREFW)
                eq.schedule(t + gap, *this, 0, 0);
        }

        EventQueue &eq;
        MemoryController &mc;
        const dram::DramDeviceConfig &dev;
        Rng rng{5};
    } inject(eq, mc, dev);
    eq.schedule(0, inject, 0, 0);

    eq.runUntil(dev.timings.tREFW + microseconds(5.0));
    const double expected = static_cast<double>(
        dev.org.rowsPerBank
        * static_cast<std::uint64_t>(dev.org.banksTotal()));
    const auto got = mc.channelStats(0).rowsRefreshed.value();
    // Conservation: nothing lost to pausing; the upper bound allows
    // the drain period to pull a few of window 2's commands in.
    EXPECT_GE(got, expected * 0.99);
    EXPECT_LE(got, expected * 1.05);
    EXPECT_GT(mc.channelStats(0).refreshPauses.value(), 0.0);
}

TEST(MemoryControllerTest, ClosedPagePolicyClosesIdleRows)
{
    EventQueue eq;
    auto dev = dram::makeDdr3_1600(DensityGb::d32, milliseconds(64.0),
                                   64);
    ControllerParams params;
    params.pagePolicy = PagePolicy::Closed;
    MemoryController mc(
        eq, dev,
        dram::makeRefreshScheduler(RefreshPolicy::NoRefresh, dev),
        params);

    CompletionSink sink;
    auto done = std::make_shared<std::optional<Tick>>();
    dram::DramCoord coord;
    coord.rank = 0;
    coord.bank = 3;
    coord.row = 9;
    Request r;
    r.paddr = mc.mapping().compose(coord);
    r.type = Request::Type::Read;
    r.completion = &sink;
    r.cookie0 = reinterpret_cast<std::uint64_t>(done.get());
    ASSERT_TRUE(mc.enqueue(std::move(r)));
    eq.runUntil(microseconds(1));
    ASSERT_TRUE(done->has_value());

    // The idle row was precharged once tRAS/tRTP allowed.
    EXPECT_FALSE(mc.bank(0, 0, 3).isOpen());

    // A second access to the SAME row pays a full ACT again: no row
    // hit is possible under the closed-page policy.
    const Tick start = eq.now();
    auto done2 = std::make_shared<std::optional<Tick>>();
    coord.column = 5;
    Request r2;
    r2.paddr = mc.mapping().compose(coord);
    r2.type = Request::Type::Read;
    r2.completion = &sink;
    r2.cookie0 = reinterpret_cast<std::uint64_t>(done2.get());
    ASSERT_TRUE(mc.enqueue(std::move(r2)));
    eq.runUntil(start + microseconds(1));
    ASSERT_TRUE(done2->has_value());
    const auto &t = dev.timings;
    EXPECT_GE(done2->value() - start, t.tRCD + t.tCL + t.tBURST);
    EXPECT_EQ(mc.channelStats(0).rowHits.value(), 0.0);
}

TEST(MemoryControllerTest, OpenPageKeepsRowForLaterHit)
{
    // Control experiment for the closed-page test above: inside the
    // idle-close timeout the open-page policy keeps the row latched.
    Harness h;  // open-page default
    auto done = h.read(h.addrOf(0, 3, 9, 0));
    h.eq.runUntil(nanoseconds(100));
    ASSERT_TRUE(done->has_value());
    EXPECT_TRUE(h.mc.bank(0, 0, 3).isOpen());
}

TEST(MemoryControllerTest, OpenPageIdleRowAutoCloses)
{
    // Regression for a differential-fuzzer find (corpus entry
    // tests/fuzz/corpus/dominance-stale-open-row-mcf.txt): a
    // strictly-open policy left stale rows latched forever, so
    // irregular streams paid PRE+ACT on the critical path at every
    // bank revisit -- and per-bank REF, which precharges its target
    // bank as a side effect, made every refreshing policy BEAT the
    // no-refresh ideal.  Rows idle past openRowIdleTimeout that no
    // queued request wants must be closed in idle command slots.
    Harness h;  // open-page default, timeout 250000 ps
    auto done = h.read(h.addrOf(0, 3, 9, 0));
    h.eq.runUntil(microseconds(1));
    ASSERT_TRUE(done->has_value());
    EXPECT_FALSE(h.mc.bank(0, 0, 3).isOpen());
    EXPECT_EQ(h.mc.channelStats(0).idleRowCloses.value(), 1.0);
}

TEST(MemoryControllerTest, IdleCloseDisabledKeepsRowOpenForever)
{
    ControllerParams params;
    params.openRowIdleTimeout = 0;
    Harness h(RefreshPolicy::NoRefresh, 64, params);
    auto done = h.read(h.addrOf(0, 3, 9, 0));
    h.eq.runUntil(microseconds(1));
    ASSERT_TRUE(done->has_value());
    EXPECT_TRUE(h.mc.bank(0, 0, 3).isOpen());
    EXPECT_EQ(h.mc.channelStats(0).idleRowCloses.value(), 0.0);
}

TEST(MemoryControllerTest, InvalidWatermarksAreFatal)
{
    EventQueue eq;
    auto dev = dram::makeDdr3_1600(DensityGb::d32, milliseconds(64.0), 64);
    ControllerParams params;
    params.writeLowWatermark = 54;
    params.writeHighWatermark = 32;
    EXPECT_THROW(
        MemoryController(
            eq, dev,
            dram::makeRefreshScheduler(RefreshPolicy::NoRefresh, dev),
            params),
        FatalError);
}

} // namespace
} // namespace refsched::memctrl
