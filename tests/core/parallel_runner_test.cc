/**
 * @file
 * Contract and determinism tests for the parallelFor fan-out: every
 * index runs exactly once, one worker runs inline, exceptions surface
 * after the rest of the grid ran, and the same cell grid yields
 * bit-identical Metrics for any worker count, in submission order.
 */

#include "core/parallel_runner.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.hh"

namespace refsched::core
{
namespace
{

/** Every field of TaskMetrics, compared exactly. */
void
expectTaskMetricsEq(const TaskMetrics &a, const TaskMetrics &b)
{
    EXPECT_EQ(a.pid, b.pid);
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.mpki, b.mpki);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.pageFaults, b.pageFaults);
    EXPECT_EQ(a.fallbackAllocs, b.fallbackAllocs);
    EXPECT_EQ(a.residentPages, b.residentPages);
    EXPECT_EQ(a.quantaRun, b.quantaRun);
}

/** Every field of Metrics, compared exactly (no tolerances). */
void
expectMetricsEq(const Metrics &a, const Metrics &b)
{
    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    for (std::size_t t = 0; t < a.tasks.size(); ++t)
        expectTaskMetricsEq(a.tasks[t], b.tasks[t]);
    EXPECT_EQ(a.harmonicMeanIpc, b.harmonicMeanIpc);
    EXPECT_EQ(a.weightedIpcSum, b.weightedIpcSum);
    EXPECT_EQ(a.avgReadLatencyMemCycles, b.avgReadLatencyMemCycles);
    EXPECT_EQ(a.rowHitRate, b.rowHitRate);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.dramWrites, b.dramWrites);
    EXPECT_EQ(a.refreshCommands, b.refreshCommands);
    EXPECT_EQ(a.readsBlockedByRefresh, b.readsBlockedByRefresh);
    EXPECT_EQ(a.blockedReadFraction, b.blockedReadFraction);
    EXPECT_EQ(a.quantaScheduled, b.quantaScheduled);
    EXPECT_EQ(a.cleanPicks, b.cleanPicks);
    EXPECT_EQ(a.deferredPicks, b.deferredPicks);
    EXPECT_EQ(a.fallbackPicks, b.fallbackPicks);
    EXPECT_EQ(a.bestEffortPicks, b.bestEffortPicks);
    EXPECT_EQ(a.vruntimeSpreadQuanta, b.vruntimeSpreadQuanta);
    EXPECT_EQ(a.energy.activatePj, b.energy.activatePj);
    EXPECT_EQ(a.energy.readWritePj, b.energy.readWritePj);
    EXPECT_EQ(a.energy.refreshPj, b.energy.refreshPj);
    EXPECT_EQ(a.energy.backgroundPj, b.energy.backgroundPj);
    EXPECT_EQ(a.energyPerInstructionPj, b.energyPerInstructionPj);
    EXPECT_EQ(a.measuredTicks, b.measuredTicks);
}

/** A small but non-trivial grid (mixed policies and workloads). */
std::vector<SystemConfig>
testGrid()
{
    std::vector<SystemConfig> cells;
    for (const auto *wl : {"WL-1", "WL-5"}) {
        for (auto policy :
             {Policy::AllBank, Policy::PerBank, Policy::CoDesign}) {
            cells.push_back(makeConfig(wl, policy, dram::DensityGb::d32,
                                       milliseconds(64.0), 2, 4, 2048));
        }
    }
    return cells;
}

const RunOptions kRun{/*warmupQuanta=*/1, /*measureQuanta=*/2};

/** Run every cell of @p cells on @p jobs workers, in index slots. */
std::vector<Metrics>
runGrid(const std::vector<SystemConfig> &cells, int jobs)
{
    std::vector<Metrics> out(cells.size());
    parallelFor(cells.size(), jobs,
                [&](std::size_t i) { out[i] = runOnce(cells[i], kRun); });
    return out;
}

TEST(ParallelForTest, EveryIndexRunsOnce)
{
    // jobs <= 0 selects hardware_concurrency, still at least one
    // worker; each index writes its own slot.
    for (const std::size_t n : {0u, 1u, 3u, 97u}) {
        for (const int jobs : {-3, 0, 1, 4, 8}) {
            std::vector<std::atomic<int>> hits(n);
            std::vector<std::size_t> slots(n, 0);
            parallelFor(n, jobs, [&](std::size_t i) {
                hits[i].fetch_add(1);
                slots[i] = i + 1;
            });
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(hits[i].load(), 1)
                    << "n=" << n << " jobs=" << jobs << " index " << i;
                EXPECT_EQ(slots[i], i + 1);
            }
        }
    }
}

TEST(ParallelForTest, OneWorkerRunsOnCallingThread)
{
    // jobs == 1, or a single index under many jobs: one worker, so
    // every call runs inline.
    const auto caller = std::this_thread::get_id();
    for (const auto &[n, jobs] :
         {std::pair<std::size_t, int>{5, 1}, {1, 8}}) {
        std::vector<std::thread::id> ids(n);
        parallelFor(n, jobs, [&](std::size_t i) {
            ids[i] = std::this_thread::get_id();
        });
        for (const auto &id : ids)
            EXPECT_EQ(id, caller) << "n=" << n << " jobs=" << jobs;
    }
}

TEST(ParallelForTest, RunsOnMinJobsNThreadsWithCaller)
{
    // The first min(jobs, n) calls each wait until all of them have
    // started, so they run on that many distinct threads at once; a
    // waiting worker claims nothing else, so the calling thread must
    // take one of them.
    const auto caller = std::this_thread::get_id();
    for (const auto &[n, jobs] :
         {std::pair<std::size_t, int>{3, 8}, {97, 4}}) {
        const std::size_t workers =
            std::min(static_cast<std::size_t>(jobs), n);
        std::vector<std::thread::id> ids(n);
        std::atomic<std::size_t> started{0};
        std::atomic<bool> timedOut{false};
        parallelFor(n, jobs, [&](std::size_t i) {
            ids[i] = std::this_thread::get_id();
            if (i >= workers)
                return;
            ++started;
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (started.load() < workers) {
                if (std::chrono::steady_clock::now() > deadline) {
                    timedOut = true;
                    return;
                }
                std::this_thread::yield();
            }
        });
        EXPECT_FALSE(timedOut) << "n=" << n << " jobs=" << jobs;
        const std::set<std::thread::id> distinct(ids.begin(), ids.end());
        EXPECT_EQ(distinct.size(), workers) << "n=" << n << " jobs=" << jobs;
        EXPECT_EQ(distinct.count(caller), 1u)
            << "n=" << n << " jobs=" << jobs;
    }
}

TEST(ParallelForTest, ResultsIdenticalAcrossThreadCounts)
{
    const auto cells = testGrid();
    const auto seq = runGrid(cells, 1);
    const auto two = runGrid(cells, 2);
    const auto eight = runGrid(cells, 8);

    ASSERT_EQ(seq.size(), cells.size());
    ASSERT_EQ(two.size(), cells.size());
    ASSERT_EQ(eight.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        expectMetricsEq(seq[i], two[i]);
        expectMetricsEq(seq[i], eight[i]);
    }
}

TEST(ParallelForTest, ResultsMatchDirectRunOnce)
{
    const auto cells = testGrid();
    const auto results = runGrid(cells, 4);
    // Spot-check submission-order mapping against direct runs.
    expectMetricsEq(results.front(), runOnce(cells.front(), kRun));
    expectMetricsEq(results.back(), runOnce(cells.back(), kRun));
}

TEST(ParallelForTest, WorkerExceptionPropagates)
{
    // Two indices throw: one exception surfaces, and only after
    // every other index ran, inline or threaded.
    constexpr std::size_t kN = 8;
    for (const int jobs : {1, 2, 4}) {
        std::vector<std::atomic<int>> hits(kN);
        EXPECT_THROW(parallelFor(kN, jobs,
                                 [&](std::size_t i) {
                                     hits[i].fetch_add(1);
                                     if (i == 2 || i == 5)
                                         throw std::runtime_error("boom");
                                 }),
                     std::runtime_error)
            << "jobs=" << jobs;
        for (std::size_t i = 0; i < kN; ++i)
            EXPECT_EQ(hits[i].load(), 1)
                << "jobs=" << jobs << " index " << i;
    }
}

} // namespace
} // namespace refsched::core
