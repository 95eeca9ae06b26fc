/**
 * @file
 * Overhead guard for the probe layer: with no observer attached, an
 * emission site must neither evaluate its event-construction
 * arguments nor allocate, and an empty CheckerSet dispatch must stay
 * allocation-free.  Enforced by the binary-wide counting operator
 * new replacement in alloc_watch.cc.
 */

#include <gtest/gtest.h>

#include <vector>

#include "alloc_watch.hh"
#include "simcore/probe.hh"
#include "validate/checker.hh"

namespace refsched::validate
{

using testutil::AllocWatch;
namespace
{

/** Would allocate if the emission macro evaluated its arguments. */
DramCmdEvent
expensiveEvent(int *evaluations)
{
    ++*evaluations;
    std::vector<int> scratch(64);
    return {static_cast<Tick>(scratch.size()), DramOp::Act, 0, 0, 0,
            42, 0};
}

TEST(ProbeAllocTest, NullProbeSkipsArgumentEvaluation)
{
    Probe *probe = nullptr;
    int evaluations = 0;
    AllocWatch watch;
    for (int i = 0; i < 1000; ++i)
        REFSCHED_PROBE(probe, onDramCommand(expensiveEvent(&evaluations)));
    EXPECT_EQ(evaluations, 0)
        << "emission site evaluated args with no probe attached";
    EXPECT_EQ(watch.count(), 0u);
}

TEST(ProbeAllocTest, EmptyCheckerSetDispatchIsAllocationFree)
{
    CheckerSet hub;
    const std::vector<int> refreshBanks = {3};
    const std::vector<SchedCandidate> candidates = {{7, 100, true, 0.0}};

    DramCmdEvent dram{100, DramOp::Read, 0, 1, 2, 77, 0};
    SchedPickEvent pick{200, 0, PickKind::Clean, 7, 64, true, 1000,
                        &refreshBanks, &candidates};
    RqEvent rq{300, 0, 7, 5};
    PageAllocEvent alloc{400, 7, 12, false, nullptr};
    PageFreeEvent pageFree{500, 12};

    AllocWatch watch;
    for (int i = 0; i < 1000; ++i) {
        hub.onDramCommand(dram);
        hub.onSchedPick(pick);
        hub.onRqEnqueue(rq);
        hub.onRqDequeue(rq);
        hub.onPageAlloc(alloc);
        hub.onPageFree(pageFree);
    }
    hub.finalize(700);
    EXPECT_EQ(watch.count(), 0u)
        << "probe fan-out allocated with no observer attached";
}

TEST(ProbeAllocTest, NoOpExternalProbeCostsNoAllocations)
{
    CheckerSet hub;
    Probe noOp;  // all callbacks default to empty bodies
    hub.attachExternal(&noOp);

    DramCmdEvent dram{100, DramOp::Pre, 0, 0, 0, 1, 0};
    AllocWatch watch;
    for (int i = 0; i < 1000; ++i)
        hub.onDramCommand(dram);
    EXPECT_EQ(watch.count(), 0u);
}

} // namespace
} // namespace refsched::validate
