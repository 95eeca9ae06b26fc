/** @file Tests for the CFS runqueue. */

#include "os/cfs_runqueue.hh"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "simcore/logging.hh"

namespace refsched::os
{
namespace
{

std::unique_ptr<Task>
makeTask(Pid pid, Tick vruntime)
{
    auto t = std::make_unique<Task>(pid, "t", 16);
    t->vruntime = vruntime;
    return t;
}

TEST(CfsRunQueueTest, EmptyQueue)
{
    CfsRunQueue rq;
    EXPECT_TRUE(rq.empty());
    EXPECT_EQ(rq.first(), nullptr);
    // Regression: an empty queue must NOT report a sentinel vruntime
    // of 0 -- that is indistinguishable from a real vruntime 0 and
    // used to drag Scheduler::wakeTask's clamp floor to zero.
    EXPECT_EQ(rq.minVruntime(), std::nullopt);
}

TEST(CfsRunQueueTest, FirstIsMinimumVruntime)
{
    CfsRunQueue rq;
    auto a = makeTask(1, 300);
    auto b = makeTask(2, 100);
    auto c = makeTask(3, 200);
    rq.enqueue(a.get());
    rq.enqueue(b.get());
    rq.enqueue(c.get());
    EXPECT_EQ(rq.first(), b.get());
    EXPECT_EQ(rq.minVruntime(), std::optional<Tick>(100));
    EXPECT_EQ(rq.size(), 3u);
}

TEST(CfsRunQueueTest, EqualVruntimeTieBrokenByPid)
{
    CfsRunQueue rq;
    auto a = makeTask(7, 100);
    auto b = makeTask(3, 100);
    rq.enqueue(a.get());
    rq.enqueue(b.get());
    EXPECT_EQ(rq.first()->pid(), 3);
}

TEST(CfsRunQueueTest, DequeueRemovesSpecificTask)
{
    CfsRunQueue rq;
    auto a = makeTask(1, 100);
    auto b = makeTask(2, 200);
    rq.enqueue(a.get());
    rq.enqueue(b.get());
    EXPECT_TRUE(rq.contains(a.get()));
    rq.dequeue(a.get());
    EXPECT_FALSE(rq.contains(a.get()));
    EXPECT_EQ(rq.first(), b.get());
}

TEST(CfsRunQueueTest, ReEnqueueWithNewVruntime)
{
    CfsRunQueue rq;
    auto a = makeTask(1, 100);
    auto b = makeTask(2, 200);
    rq.enqueue(a.get());
    rq.enqueue(b.get());
    rq.dequeue(a.get());
    a->vruntime = 500;
    rq.enqueue(a.get());
    EXPECT_EQ(rq.first(), b.get());
}

TEST(CfsRunQueueTest, DoubleEnqueuePanics)
{
    CfsRunQueue rq;
    auto a = makeTask(1, 100);
    rq.enqueue(a.get());
    EXPECT_THROW(rq.enqueue(a.get()), PanicError);
}

TEST(CfsRunQueueTest, DequeueAbsentPanics)
{
    CfsRunQueue rq;
    auto a = makeTask(1, 100);
    EXPECT_THROW(rq.dequeue(a.get()), PanicError);
}

TEST(CfsRunQueueTest, ForEachInOrderWalksByVruntime)
{
    CfsRunQueue rq;
    std::vector<std::unique_ptr<Task>> tasks;
    for (int i = 0; i < 8; ++i) {
        tasks.push_back(
            makeTask(static_cast<Pid>(i + 1),
                     static_cast<Tick>((7 - i) * 10)));
        rq.enqueue(tasks.back().get());
    }
    std::vector<Tick> seen;
    rq.forEachInOrder([&](Task *t) {
        seen.push_back(t->vruntime);
        return true;
    });
    for (std::size_t i = 1; i < seen.size(); ++i)
        EXPECT_LE(seen[i - 1], seen[i]);
    EXPECT_EQ(seen.size(), 8u);
}

TEST(CfsRunQueueTest, ForEachInOrderStopsEarly)
{
    CfsRunQueue rq;
    std::vector<std::unique_ptr<Task>> tasks;
    for (int i = 0; i < 8; ++i) {
        tasks.push_back(makeTask(static_cast<Pid>(i + 1),
                                 static_cast<Tick>(i * 10)));
        rq.enqueue(tasks.back().get());
    }
    int visited = 0;
    rq.forEachInOrder([&](Task *) { return ++visited < 3; });
    EXPECT_EQ(visited, 3);
}

TEST(CfsRunQueueTest, ManyTasksStayOrdered)
{
    CfsRunQueue rq;
    std::vector<std::unique_ptr<Task>> tasks;
    for (int i = 0; i < 200; ++i) {
        tasks.push_back(makeTask(static_cast<Pid>(i + 1),
                                 static_cast<Tick>((i * 37) % 101)));
        rq.enqueue(tasks.back().get());
    }
    // Dequeue-all in order yields a sorted sequence.
    Tick last = 0;
    while (!rq.empty()) {
        Task *t = rq.first();
        EXPECT_GE(t->vruntime, last);
        last = t->vruntime;
        rq.dequeue(t);
    }
}

} // namespace
} // namespace refsched::os
