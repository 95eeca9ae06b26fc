/**
 * @file
 * Differential tests: CfsRunQueue against a sorted-vector reference
 * model, and the refresh-aware pick (Algorithm 3) against a direct
 * re-derivation of its contract, with eta_thresh driven through its
 * boundary values (1, queue size, beyond).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "os/cfs_runqueue.hh"
#include "os/scheduler.hh"
#include "os/task.hh"
#include "simcore/event_queue.hh"
#include "simcore/rng.hh"

namespace refsched::os
{
namespace
{

constexpr int kNumBanks = 4;

/** Reference ordering: (vruntime, pid), exactly VruntimeKey. */
bool
refBefore(const Task *a, const Task *b)
{
    if (a->vruntime != b->vruntime)
        return a->vruntime < b->vruntime;
    return a->pid() < b->pid();
}

TEST(CfsRunQueuePropertyTest, RandomChurnMatchesSortedVector)
{
    Rng rng(99);
    CfsRunQueue rq;
    std::vector<std::unique_ptr<Task>> owned;
    std::vector<Task *> ref;  // reference model, kept sorted
    Pid nextPid = 1;

    for (int op = 0; op < 4000; ++op) {
        if (rng.below(100) < 55 || ref.empty()) {
            auto t = std::make_unique<Task>(nextPid++, "t", kNumBanks);
            // Small vruntime range forces plenty of ties, which the
            // pid tie-break must resolve identically in both models.
            t->vruntime = rng.below(16);
            rq.enqueue(t.get());
            ref.insert(std::upper_bound(ref.begin(), ref.end(),
                                        t.get(), refBefore),
                       t.get());
            owned.push_back(std::move(t));
        } else {
            const auto pick = rng.below(ref.size());
            Task *victim = ref[pick];
            EXPECT_TRUE(rq.contains(victim));
            rq.dequeue(victim);
            EXPECT_FALSE(rq.contains(victim));
            ref.erase(ref.begin() + static_cast<long>(pick));
        }

        ASSERT_EQ(rq.size(), ref.size());
        ASSERT_EQ(rq.empty(), ref.empty());
        if (!ref.empty()) {
            ASSERT_EQ(rq.first(), ref.front());
            ASSERT_EQ(rq.minVruntime(),
                      std::optional<Tick>(ref.front()->vruntime));
        }

        // The bounded in-order walk must be an exact prefix of the
        // reference order, stopping exactly where asked.
        const std::size_t bound = rng.below(ref.size() + 2);
        std::vector<Task *> walked;
        rq.forEachInOrder([&](Task *t) {
            walked.push_back(t);
            return walked.size() < bound;
        });
        const std::size_t expect =
            ref.empty() ? 0 : std::min(std::max<std::size_t>(bound, 1),
                                       ref.size());
        ASSERT_EQ(walked.size(), expect);
        for (std::size_t i = 0; i < walked.size(); ++i)
            ASSERT_EQ(walked[i], ref[i]) << "walk position " << i;
    }
}

/** CpuContext stub; pickNextTask never reaches setTask. */
class NullCpu : public CpuContext
{
  public:
    void setTask(Task *, Tick) override {}
};

/**
 * Re-derivation of the Algorithm 3 contract (the documented
 * semantics, independently restated): walk the (vruntime, pid) order;
 * the first task with no pages in any refreshing bank wins; after
 * eta candidates without one, fall back to the min-resident walked
 * candidate (best-effort) or the leftmost.
 */
Task *
referencePick(std::vector<Task *> sorted, int eta, bool bestEffort,
              const std::vector<int> &refreshBanks)
{
    if (sorted.empty())
        return nullptr;
    std::sort(sorted.begin(), sorted.end(), refBefore);
    if (refreshBanks.empty())
        return sorted.front();
    const std::size_t limit =
        std::min<std::size_t>(static_cast<std::size_t>(eta),
                              sorted.size());
    auto clean = [&](const Task *t) {
        for (int b : refreshBanks) {
            if (t->residentPagesPerBank[static_cast<std::size_t>(b)])
                return false;
        }
        return true;
    };
    for (std::size_t i = 0; i < limit; ++i) {
        if (clean(sorted[i]))
            return sorted[i];
    }
    if (bestEffort) {
        Task *best = sorted[0];
        auto resident = [&](const Task *t) {
            double sum = 0.0;
            for (int b : refreshBanks)
                sum += t->residentFractionIn(b);
            return sum;
        };
        for (std::size_t i = 1; i < limit; ++i) {
            if (resident(sorted[i]) < resident(best))
                best = sorted[i];
        }
        return best;
    }
    return sorted.front();
}

TEST(CfsRunQueuePropertyTest, RefreshAwarePickMatchesReference)
{
    Rng rng(0xa11ce);
    for (int trial = 0; trial < 200; ++trial) {
        const int numTasks = 1 + static_cast<int>(rng.below(8));
        // Boundary-heavy eta choices: 1 (deviation disabled), the
        // exact queue size, one past it, and a huge value.
        const int etas[] = {1, numTasks, numTasks + 1, 64};
        const int eta = etas[rng.below(4)];
        const bool bestEffort = rng.below(2) == 0;

        EventQueue eq;
        SchedulerParams params;
        params.refreshAware = true;
        params.etaThresh = eta;
        params.bestEffort = bestEffort;
        Scheduler sched(eq, params);
        NullCpu cpu;
        sched.attachCpus({&cpu});

        std::vector<std::unique_ptr<Task>> owned;
        std::vector<Task *> all;
        for (int i = 0; i < numTasks; ++i) {
            auto t = std::make_unique<Task>(
                static_cast<Pid>(i + 1), "t", kNumBanks);
            t->vruntime = rng.below(4);  // force ties
            for (int b = 0; b < kNumBanks; ++b) {
                const auto pages =
                    static_cast<std::uint32_t>(rng.below(3));
                for (std::uint32_t k = 0; k < pages; ++k)
                    t->addResidentPage(b);
            }
            all.push_back(t.get());
            sched.addTask(t.get(), 0);
            owned.push_back(std::move(t));
        }

        std::vector<int> refreshBanks;
        for (int b = 0; b < kNumBanks; ++b) {
            if (rng.below(3) == 0)
                refreshBanks.push_back(b);
        }

        Task *got = sched.pickNextTask(0, refreshBanks);
        Task *want =
            referencePick(all, eta, bestEffort, refreshBanks);
        ASSERT_EQ(got, want)
            << "trial " << trial << " eta=" << eta << " bestEffort="
            << bestEffort << " tasks=" << numTasks << " got pid "
            << (got ? got->pid() : -1) << " want pid "
            << (want ? want->pid() : -1);
    }
}

/** eta = 1 must never deviate from the leftmost task, even when a
 *  clean task sits second in line. */
TEST(CfsRunQueuePropertyTest, EtaOneNeverDeviates)
{
    EventQueue eq;
    SchedulerParams params;
    params.refreshAware = true;
    params.etaThresh = 1;
    params.bestEffort = false;
    Scheduler sched(eq, params);
    NullCpu cpu;
    sched.attachCpus({&cpu});

    Task dirty(1, "dirty", kNumBanks), clean(2, "clean", kNumBanks);
    dirty.vruntime = 0;
    clean.vruntime = 100;
    for (int k = 0; k < 5; ++k)
        dirty.addResidentPage(0);
    sched.addTask(&dirty, 0);
    sched.addTask(&clean, 0);

    // Bank 0 refreshing: leftmost is dirty, but eta = 1 exhausts the
    // walk on it, so the leftmost fallback must win.
    EXPECT_EQ(sched.pickNextTask(0, {0}), &dirty);
}

} // namespace
} // namespace refsched::os
