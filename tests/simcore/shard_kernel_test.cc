/**
 * @file
 * The sharded kernel's window loop in isolation: every channel lane
 * runs once per window on the caller's thread, and the boundary hook
 * (phase C) sees every lane's writes of the window it seals.  Lanes
 * carry synthetic events that stamp per-lane slots; the boundary
 * hook checks those stamps.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "simcore/event_queue.hh"
#include "simcore/shard_kernel.hh"

namespace refsched
{
namespace
{

/**
 * Each lane holds one event per window, at the window's first tick.
 * The event counts its runs and records its thread; the boundary
 * hook checks the counts and schedules the next window's events.
 */
struct WindowProbe
{
    explicit WindowProbe(ShardKernel &k)
        : kernel(k),
          runs(static_cast<std::size_t>(k.laneCount()), 0),
          owner(static_cast<std::size_t>(k.laneCount()))
    {
        scheduleAll(0);
        kernel.setBoundaryHook([this](Tick boundary) {
            ++windows;
            for (std::size_t i = 0; i < runs.size(); ++i) {
                if (runs[i] != windows)
                    ++mismatches;
                threads.insert(owner[i]);
            }
            scheduleAll(boundary);
        });
    }

    void
    scheduleAll(Tick when)
    {
        for (int i = 0; i < kernel.laneCount(); ++i) {
            const auto idx = static_cast<std::size_t>(i);
            kernel.lane(i).schedule(when, [this, idx] {
                ++runs[idx];
                owner[idx] = std::this_thread::get_id();
            });
        }
    }

    ShardKernel &kernel;
    std::vector<std::uint64_t> runs;
    std::vector<std::thread::id> owner;
    std::set<std::thread::id> threads;
    std::uint64_t windows = 0;
    std::uint64_t mismatches = 0;
};

TEST(ShardKernelTest, EveryLaneRunsOncePerWindowOnItsOwnWorker)
{
    // The kernel has one worker: the caller runs every lane.
    constexpr Tick kEpoch = 10;
    constexpr Tick kWindows = 50;
    for (int lanes = 1; lanes <= 8; ++lanes) {
        EventQueue main;
        ShardKernel k(main, lanes, kEpoch);
        WindowProbe probe(k);
        k.runUntil(kEpoch * kWindows - 1);

        EXPECT_GE(probe.windows, kWindows) << "lanes " << lanes;
        EXPECT_EQ(probe.mismatches, 0u) << "lanes " << lanes;
        EXPECT_EQ(probe.threads,
                  std::set<std::thread::id>{std::this_thread::get_id()})
            << "lanes " << lanes;
    }
}

TEST(ShardKernelTest, BoundarySeesEveryLaneWriteAcrossManyTinyWindows)
{
    // Epoch 2: after the first window (ticks 0-1) every window is
    // one tick, so runUntil(N) seals N windows.  Each lane stamps
    // the tick into its slot every tick; phase C must see this
    // window's stamp on every lane, never a stale one.
    constexpr Tick kWindows = 100000;
    EventQueue main;
    ShardKernel k(main, 4, /*epoch=*/2);
    k.enableProfile();
    std::vector<Tick> stamp(4, 0);
    std::uint64_t stale = 0;
    std::uint64_t windows = 0;
    for (int i = 0; i < 4; ++i) {
        EventQueue &q = k.lane(i);
        q.schedule(1, [&stamp, &q, i] {
            stamp[static_cast<std::size_t>(i)] = q.now();
        });
    }
    k.setBoundaryHook([&](Tick boundary) {
        ++windows;
        for (int i = 0; i < 4; ++i) {
            if (stamp[static_cast<std::size_t>(i)] != boundary - 1)
                ++stale;
            EventQueue &q = k.lane(i);
            q.schedule(boundary, [&stamp, &q, i] {
                stamp[static_cast<std::size_t>(i)] = q.now();
            });
        }
    });
    const std::uint64_t ran = k.runUntil(kWindows);
    EXPECT_EQ(windows, kWindows);
    EXPECT_EQ(stale, 0u);
    EXPECT_EQ(ran, 4 * kWindows);

    // The self-profile bills phase B to the caller, which never
    // waits on anyone.
    const auto &p = k.profileData();
    EXPECT_EQ(p.windows, kWindows);
    EXPECT_EQ(p.laneBusyMs.size(), 4u);
    ASSERT_EQ(p.workerBusyMs.size(), 1u);
    EXPECT_EQ(p.workerBusyMs[0], p.parallelMs);
    EXPECT_EQ(p.workerWaitMs, std::vector<double>{0.0});
}

} // namespace
} // namespace refsched
