/**
 * @file
 * The sharded kernel's phase-B thread pool in isolation: the
 * static lane partition, the generation barrier's cross-thread
 * visibility, and worker start-up/shut-down.  Lanes carry synthetic
 * events that stamp per-lane slots; the boundary hook (phase C, on
 * the caller's thread) checks those stamps, so every check is also
 * a happens-before claim that TSan can falsify.
 */

#include <gtest/gtest.h>

#include <chrono>
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

TEST(ShardKernelTest, PartitionGivesEveryWorkerAContiguousRange)
{
    for (int lanes = 1; lanes <= 8; ++lanes) {
        for (int workers = 1; workers <= lanes; ++workers) {
            int next = 0;
            for (int w = 0; w < workers; ++w) {
                const auto r =
                    ShardKernel::workerLanes(w, workers, lanes);
                EXPECT_EQ(r.first, next)
                    << "lanes " << lanes << " workers " << workers;
                EXPECT_LT(r.first, r.last)
                    << "empty range: lanes " << lanes << " workers "
                    << workers << " worker " << w;
                next = r.last;
            }
            EXPECT_EQ(next, lanes)
                << "lanes " << lanes << " workers " << workers;
        }
    }
    // The case the ceil-division split got wrong: 1/1/2, not 2/2/0.
    EXPECT_EQ(ShardKernel::workerLanes(2, 3, 4).first, 2);
    EXPECT_EQ(ShardKernel::workerLanes(2, 3, 4).last, 4);
}

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
    constexpr Tick kEpoch = 10;
    constexpr Tick kWindows = 50;
    for (int lanes = 1; lanes <= 8; ++lanes) {
        for (int workers = 1; workers <= lanes; ++workers) {
            EventQueue main;
            ShardKernel k(main, lanes, kEpoch);
            k.setWorkers(workers);
            WindowProbe probe(k);
            k.runUntil(kEpoch * kWindows - 1);

            EXPECT_GE(probe.windows, kWindows)
                << "lanes " << lanes << " workers " << workers;
            EXPECT_EQ(probe.mismatches, 0u)
                << "lanes " << lanes << " workers " << workers;
            // One thread per worker means no worker sat idle at the
            // barrier with an empty range; lane 0 is worker 0's,
            // which the caller runs itself.
            EXPECT_EQ(probe.threads.size(),
                      static_cast<std::size_t>(workers))
                << "lanes " << lanes << " workers " << workers;
            EXPECT_EQ(probe.owner[0], std::this_thread::get_id());
        }
    }
}

TEST(ShardKernelTest, BoundarySeesEveryLaneWriteAcrossManyTinyWindows)
{
    // Epoch 2: after the first window (ticks 0-1) every window is
    // one tick, so runUntil(N) crosses N barriers.  Each lane stamps
    // the tick into its slot every tick; phase C must see this
    // window's stamp on every lane, never a stale one.
    constexpr Tick kWindows = 100000;
    for (int workers = 1; workers <= 4; ++workers) {
        EventQueue main;
        ShardKernel k(main, 4, /*epoch=*/2);
        k.setWorkers(workers);
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
        EXPECT_EQ(windows, kWindows) << "workers " << workers;
        EXPECT_EQ(stale, 0u) << "workers " << workers;
        EXPECT_EQ(ran, 4 * kWindows) << "workers " << workers;
    }
}

TEST(ShardKernelTest, RepeatedConstructDestroyStopsParkedAndSpinningWorkers)
{
    for (int round = 0; round < 40; ++round) {
        const bool profile = round % 2 == 1;
        // Rounds 0-1 of every 4 destroy right after the run, while
        // the workers still spin; rounds 2-3 let them park first.
        const bool park = round % 4 >= 2;
        EventQueue main;
        ShardKernel k(main, 4, /*epoch=*/5);
        k.setWorkers(4);
        if (profile)
            k.enableProfile();
        WindowProbe probe(k);
        k.runUntil(99);
        EXPECT_GT(probe.windows, 0u);
        EXPECT_EQ(probe.mismatches, 0u);
        if (profile) {
            const auto &p = k.profileData();
            EXPECT_EQ(p.windows, probe.windows);
            EXPECT_EQ(p.barriers, probe.windows);
            EXPECT_EQ(p.workerBusyMs.size(), 4u);
            EXPECT_EQ(p.workerWaitMs.size(), 4u);
        }
        if (park)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    // A kernel whose workers never started.
    EventQueue main;
    ShardKernel idle(main, 2, 5);
    idle.setWorkers(2);
}

} // namespace
} // namespace refsched
