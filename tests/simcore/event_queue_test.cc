/** @file Unit tests for the discrete-event kernel. */

#include "simcore/event_queue.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "simcore/logging.hh"

namespace refsched
{
namespace
{

/** Logs every firing as (tick, arg0). */
class Recorder final : public Callee
{
  public:
    void
    fire(Tick now, std::uint64_t arg0, std::uint64_t) override
    {
        log.emplace_back(now, arg0);
    }

    /** The arg0 of every firing, in firing order. */
    std::vector<std::uint64_t>
    args() const
    {
        std::vector<std::uint64_t> out;
        for (const auto &entry : log)
            out.push_back(entry.second);
        return out;
    }

    std::vector<std::pair<Tick, std::uint64_t>> log;
};

using Args = std::vector<std::uint64_t>;

TEST(EventQueueTest, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.nextEventTick(), kMaxTick);
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueueTest, RunsEventsInTimeOrder)
{
    EventQueue eq;
    Recorder rec;
    eq.schedule(30, rec, 3, 0);
    eq.schedule(10, rec, 1, 0);
    eq.schedule(20, rec, 2, 0);
    eq.runUntil(100);
    EXPECT_EQ(rec.log, (std::vector<std::pair<Tick, std::uint64_t>>{
                           {10, 1}, {20, 2}, {30, 3}}));
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueueTest, FiresCalleeWithBothArguments)
{
    struct Pair final : Callee
    {
        void
        fire(Tick now, std::uint64_t a0, std::uint64_t a1) override
        {
            got = {now, a0, a1};
        }
        std::vector<std::uint64_t> got;
    } pair;
    EventQueue eq;
    eq.schedule(7, pair, ~std::uint64_t{0}, 42);
    eq.runUntil(7);
    EXPECT_EQ(pair.got, (Args{7, ~std::uint64_t{0}, 42}));
}

TEST(EventQueueTest, SameTickFifoWithinPriority)
{
    EventQueue eq;
    Recorder rec;
    for (std::uint64_t i = 0; i < 5; ++i)
        eq.schedule(42, rec, i, 0);
    eq.runUntil(42);
    EXPECT_EQ(rec.args(), (Args{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, PriorityOrdersSameTick)
{
    EventQueue eq;
    Recorder rec;
    eq.schedule(5, rec, 2, 0, EventPriority::Scheduler);
    eq.schedule(5, rec, 0, 0, EventPriority::ClockEdge);
    eq.schedule(5, rec, 3, 0, EventPriority::StatDump);
    eq.schedule(5, rec, 1, 0, EventPriority::Default);
    eq.runUntil(5);
    EXPECT_EQ(rec.args(), (Args{0, 1, 2, 3}));
}

TEST(EventQueueTest, RunUntilIsInclusiveAndAdvancesTime)
{
    EventQueue eq;
    Recorder rec;
    eq.schedule(100, rec, 0, 0);
    eq.schedule(101, rec, 1, 0);
    EXPECT_EQ(eq.runUntil(100), 1u);
    EXPECT_EQ(rec.log.size(), 1u);
    EXPECT_EQ(eq.now(), 100u);
    EXPECT_EQ(eq.runUntil(200), 1u);
    EXPECT_EQ(rec.log.size(), 2u);
    EXPECT_EQ(eq.now(), 200u);
}

TEST(EventQueueTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    Recorder rec;
    eq.schedule(50, rec, 0, 0);
    eq.runUntil(60);
    EXPECT_THROW(eq.schedule(10, rec, 0, 0), PanicError);
}

TEST(EventQueueTest, CancelPreventsExecution)
{
    EventQueue eq;
    Recorder rec;
    auto handle = eq.schedule(10, rec, 0, 0);
    EXPECT_TRUE(handle.pending());
    handle.cancel();
    EXPECT_FALSE(handle.pending());
    eq.runUntil(20);
    EXPECT_TRUE(rec.log.empty());
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueTest, CancelIsIdempotentAndSafeAfterFire)
{
    EventQueue eq;
    Recorder rec;
    auto handle = eq.schedule(10, rec, 0, 0);
    eq.runUntil(10);
    EXPECT_FALSE(handle.pending());
    handle.cancel();  // no-op
    handle.cancel();
}

/** Reschedules itself 10 ticks later until it has fired four times;
 *  arg0 counts the firings. */
class Chain final : public Callee
{
  public:
    explicit Chain(EventQueue &q) : eq(q) {}

    void
    fire(Tick now, std::uint64_t n, std::uint64_t) override
    {
        at.push_back(now);
        if (n + 1 < 4)
            eq.schedule(now + 10, *this, n + 1, 0);
    }

    EventQueue &eq;
    std::vector<Tick> at;
};

TEST(EventQueueTest, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    Chain chain(eq);
    eq.schedule(0, chain, 0, 0);
    eq.runUntil(1000);
    EXPECT_EQ(chain.at, (std::vector<Tick>{0, 10, 20, 30}));
}

TEST(EventQueueTest, NextEventTickSkipsCancelled)
{
    EventQueue eq;
    Recorder rec;
    auto h = eq.schedule(10, rec, 0, 0);
    eq.schedule(20, rec, 0, 0);
    h.cancel();
    EXPECT_EQ(eq.nextEventTick(), 20u);
}

TEST(EventQueueTest, RunOneExecutesSingleEvent)
{
    EventQueue eq;
    Recorder rec;
    eq.schedule(5, rec, 0, 0);
    eq.schedule(6, rec, 1, 0);
    EXPECT_TRUE(eq.runOne());
    EXPECT_EQ(rec.log.size(), 1u);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueueTest, ExecutedCountAccumulates)
{
    EventQueue eq;
    Recorder rec;
    for (int i = 0; i < 7; ++i)
        eq.schedule(static_cast<Tick>(i), rec, 0, 0);
    eq.runUntil(100);
    EXPECT_EQ(eq.executedCount(), 7u);
}

TEST(EventQueueTest, ScheduleAtCurrentTickRuns)
{
    EventQueue eq;
    Recorder rec;
    eq.schedule(10, rec, 0, 0);
    eq.runUntil(10);
    eq.schedule(10, rec, 1, 0);
    eq.runUntil(10);
    EXPECT_EQ(rec.args(), (Args{0, 1}));
}

} // namespace
} // namespace refsched
