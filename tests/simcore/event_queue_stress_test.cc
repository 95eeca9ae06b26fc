/**
 * @file
 * Stress tests for the slab-recycled event kernel: random
 * schedule/cancel/reschedule interleavings are checked against a
 * simple reference model of the documented ordering semantics
 * (when, priority, FIFO within both), and slot recycling is
 * exercised hard enough that generation-counter bugs would surface
 * as misfires.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "simcore/event_queue.hh"
#include "simcore/rng.hh"

namespace refsched
{
namespace
{

/** Logs the arg0 (an event id) of every firing, in firing order. */
class Recorder final : public Callee
{
  public:
    void
    fire(Tick, std::uint64_t id, std::uint64_t) override
    {
        ids.push_back(static_cast<int>(id));
    }

    std::vector<int> ids;
};

/** One pending event in the reference model. */
struct ModelEvent
{
    Tick when;
    int prio;
    std::uint64_t seq;
    int id;
};

/** The documented firing order: (when, priority, schedule order). */
bool
firesBefore(const ModelEvent &a, const ModelEvent &b)
{
    if (a.when != b.when)
        return a.when < b.when;
    if (a.prio != b.prio)
        return a.prio < b.prio;
    return a.seq < b.seq;
}

/**
 * Drives an EventQueue and a reference model through the same random
 * operation stream, comparing the observed firing order window by
 * window.
 */
class StressDriver
{
  public:
    explicit StressDriver(std::uint64_t seed) : rng_(seed) {}

    void
    run(int windows, int opsPerWindow)
    {
        for (int w = 0; w < windows; ++w) {
            for (int op = 0; op < opsPerWindow; ++op)
                mutate();
            runWindow(eq_.now() + rng_.below(2000));
        }
        // Drain everything left.
        runWindow(eq_.now() + 1'000'000);
        EXPECT_TRUE(eq_.empty());
        EXPECT_TRUE(model_.empty());
    }

  private:
    void
    mutate()
    {
        const auto roll = rng_.below(100);
        if (roll < 50 || handles_.empty()) {
            scheduleOne();
        } else if (roll < 70) {
            cancelOne();
        } else if (roll < 80) {
            cancelStaleOne();
        } else {
            // Reschedule: cancel a random pending event and schedule
            // a replacement, which must reuse pool slots eventually.
            cancelOne();
            scheduleOne();
        }
    }

    void
    scheduleOne()
    {
        static constexpr EventPriority kPrios[] = {
            EventPriority::ClockEdge, EventPriority::Default,
            EventPriority::Scheduler, EventPriority::StatDump};
        const Tick when = eq_.now() + rng_.below(3000);
        const auto prio = kPrios[rng_.below(4)];
        const int id = nextId_++;
        auto handle = eq_.schedule(
            when, fired_, static_cast<std::uint64_t>(id), 0, prio);
        model_.push_back(
            {when, static_cast<int>(prio), nextSeq_++, id});
        handles_.push_back(std::move(handle));
    }

    /**
     * Cancel a handle whose event already fired -- including handles
     * whose slot sits on the free list at the same generation epoch,
     * not yet reused.  Must be a no-op: not pending, and no live
     * event (the slot's current occupant included) disturbed.
     */
    void
    cancelStaleOne()
    {
        if (stale_.empty())
            return;
        const auto pick = rng_.below(stale_.size());
        EXPECT_FALSE(stale_[pick].pending());
        const auto liveBefore = eq_.liveCount();
        stale_[pick].cancel();
        stale_[pick].cancel();
        EXPECT_EQ(eq_.liveCount(), liveBefore);
    }

    void
    cancelOne()
    {
        if (handles_.empty())
            return;
        const auto pick = rng_.below(handles_.size());
        handles_[pick].cancel();
        EXPECT_FALSE(handles_[pick].pending());
        // Cancelling twice must stay a no-op.
        handles_[pick].cancel();
        model_.erase(model_.begin() + static_cast<long>(pick));
        handles_.erase(handles_.begin() + static_cast<long>(pick));
    }

    void
    runWindow(Tick until)
    {
        std::vector<ModelEvent> due, left;
        for (const auto &ev : model_)
            (ev.when <= until ? due : left).push_back(ev);
        std::sort(due.begin(), due.end(), firesBefore);

        fired_.ids.clear();
        eq_.runUntil(until);

        ASSERT_EQ(fired_.ids.size(), due.size());
        for (std::size_t i = 0; i < due.size(); ++i)
            ASSERT_EQ(fired_.ids[i], due[i].id) << "position " << i;

        // Retain the handles of everything that fired so later
        // operations can cancel them while their slots recycle.
        std::vector<EventHandle> keep;
        for (std::size_t i = 0; i < model_.size(); ++i) {
            if (model_[i].when > until)
                keep.push_back(std::move(handles_[i]));
            else
                stale_.push_back(std::move(handles_[i]));
        }
        if (stale_.size() > 256)
            stale_.erase(stale_.begin(),
                         stale_.end() - 256);
        handles_ = std::move(keep);
        model_ = std::move(left);
        EXPECT_EQ(eq_.liveCount(), model_.size());
    }

    EventQueue eq_;
    Rng rng_;
    std::vector<ModelEvent> model_;
    std::vector<EventHandle> handles_;
    std::vector<EventHandle> stale_;  ///< handles of fired events
    Recorder fired_;
    int nextId_ = 0;
    std::uint64_t nextSeq_ = 0;
};

TEST(EventQueueStressTest, RandomInterleavingMatchesReferenceModel)
{
    for (std::uint64_t seed : {1u, 42u, 0xdeadu}) {
        SCOPED_TRACE(seed);
        StressDriver driver(seed);
        driver.run(/*windows=*/40, /*opsPerWindow=*/50);
    }
}

TEST(EventQueueStressTest, SlotRecyclingSurvivesHeavyChurn)
{
    EventQueue eq;
    // Far more schedule/cancel cycles than live events: every cycle
    // must recycle slots (a leak would grow the pool unboundedly and
    // a stale-generation bug would fire a cancelled event).
    Recorder doomedRec, firedRec;
    for (int round = 0; round < 10'000; ++round) {
        auto doomed = eq.schedule(eq.now() + 100, doomedRec, 0, 0);
        eq.schedule(eq.now() + 1, firedRec, 0, 0);
        doomed.cancel();
        eq.runUntil(eq.now() + 1);
    }
    EXPECT_TRUE(doomedRec.ids.empty()) << "cancelled event fired";
    EXPECT_EQ(firedRec.ids.size(), 10'000u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.liveCount(), 0u);
}

TEST(EventQueueStressTest, CancelOfFiredHandleBeforeSlotReuse)
{
    EventQueue eq;
    Recorder rec;
    auto h1 = eq.schedule(10, rec, 1, 0);
    eq.runUntil(10);
    EXPECT_EQ(rec.ids, std::vector<int>{1});
    EXPECT_FALSE(h1.pending());

    // h1's slot now sits on the free list (same generation epoch as
    // when it was retired -- nothing has reused it yet).  Cancelling
    // must not corrupt the free list or the live count.
    h1.cancel();
    EXPECT_EQ(eq.liveCount(), 0u);

    // The next schedule reuses that very slot (LIFO free list).  The
    // stale handle must not be able to cancel the new occupant.
    auto h2 = eq.schedule(20, rec, 2, 0);
    h1.cancel();
    EXPECT_TRUE(h2.pending());
    EXPECT_EQ(eq.liveCount(), 1u);
    eq.runUntil(20);
    EXPECT_EQ(rec.ids, (std::vector<int>{1, 2}));
    EXPECT_FALSE(h2.pending());
}

TEST(EventQueueStressTest, HandleOutlivesFiredSlotReuse)
{
    EventQueue eq;
    Recorder rec;
    auto old = eq.schedule(10, rec, 0, 0);
    eq.runUntil(10);
    EXPECT_EQ(rec.ids.size(), 1u);

    // The slot is recycled by later events; the stale handle must
    // neither report pending nor cancel its successor.
    Recorder successors;
    for (int i = 0; i < 64; ++i)
        eq.schedule(20, successors, 0, 0);
    EXPECT_FALSE(old.pending());
    old.cancel();
    eq.runUntil(20);
    EXPECT_EQ(successors.ids.size(), 64u);
}

/** Checks and cancels its own handle from inside fire(). */
class SelfCanceller final : public Callee
{
  public:
    void
    fire(Tick, std::uint64_t, std::uint64_t) override
    {
        ++fired;
        // Firing retires the slot before fire() runs, so a handle to
        // the event being executed is already stale.
        EXPECT_FALSE(self.pending());
        self.cancel();
    }

    EventHandle self;
    int fired = 0;
};

TEST(EventQueueStressTest, SelfCancelDuringCallbackIsSafe)
{
    EventQueue eq;
    SelfCanceller c;
    c.self = eq.schedule(10, c, 0, 0);
    eq.runUntil(10);
    EXPECT_EQ(c.fired, 1);
}

/** Logs arg0; on arg0 == 0 it also cancels `sibling` and schedules
 *  arg0 = 3 at the same tick. */
class Rescheduler final : public Callee
{
  public:
    explicit Rescheduler(EventQueue &q) : eq(q) {}

    void
    fire(Tick now, std::uint64_t id, std::uint64_t) override
    {
        order.push_back(static_cast<int>(id));
        if (id == 0) {
            sibling.cancel();
            eq.schedule(now, *this, 3, 0);
        }
    }

    EventQueue &eq;
    EventHandle sibling;
    std::vector<int> order;
};

TEST(EventQueueStressTest, RescheduleFromCallbackKeepsOrdering)
{
    EventQueue eq;
    Rescheduler r(eq);
    // An event cancels a sibling and schedules a replacement at the
    // same tick; the replacement runs after everything already
    // queued for that tick (fresh sequence number).
    eq.schedule(10, r, 0, 0);
    r.sibling = eq.schedule(10, r, 99, 0);
    eq.schedule(10, r, 1, 0);
    eq.schedule(10, r, 2, 0);
    eq.runUntil(10);
    EXPECT_EQ(r.order, (std::vector<int>{0, 1, 2, 3}));
}

} // namespace
} // namespace refsched
