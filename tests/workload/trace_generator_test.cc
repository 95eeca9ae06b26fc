/** @file Tests for synthetic trace generation. */

#include "workload/trace_generator.hh"

#include <gtest/gtest.h>

#include <algorithm>

#include "simcore/logging.hh"

namespace refsched::workload
{
namespace
{

BenchmarkProfile
testProfile()
{
    BenchmarkProfile p;
    p.name = "test";
    p.footprintBytes = 16 * kMiB;
    p.memOpFraction = 0.4;
    p.writeFraction = 0.3;
    p.seqFraction = 0.2;
    p.randomFraction = 0.1;
    p.dependentFraction = 0.5;
    p.hotsetBytes = 64 * kKiB;
    return p;
}

TEST(TraceGeneratorTest, DeterministicForSameSeed)
{
    SyntheticTraceGenerator a(testProfile(), 42, 16 * kMiB);
    SyntheticTraceGenerator b(testProfile(), 42, 16 * kMiB);
    for (int i = 0; i < 5000; ++i) {
        const auto ea = a.next();
        const auto eb = b.next();
        ASSERT_EQ(ea.vaddr, eb.vaddr);
        ASSERT_EQ(ea.gap, eb.gap);
        ASSERT_EQ(ea.isWrite, eb.isWrite);
        ASSERT_EQ(ea.sequential, eb.sequential);
        ASSERT_EQ(ea.dependent, eb.dependent);
    }
}

TEST(TraceGeneratorTest, DifferentSeedsDiffer)
{
    SyntheticTraceGenerator a(testProfile(), 1, 16 * kMiB);
    SyntheticTraceGenerator b(testProfile(), 2, 16 * kMiB);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += (a.next().vaddr == b.next().vaddr);
    EXPECT_LT(same, 900);  // hot-set overlap allows some collisions
}

TEST(TraceGeneratorTest, AddressesStayInFootprint)
{
    SyntheticTraceGenerator g(testProfile(), 7, 16 * kMiB);
    for (int i = 0; i < 20000; ++i)
        ASSERT_LT(g.next().vaddr, 16 * kMiB);
}

TEST(TraceGeneratorTest, MixtureFractionsRealised)
{
    SyntheticTraceGenerator g(testProfile(), 5, 16 * kMiB);
    const int n = 50000;
    int seq = 0, writes = 0, dependent = 0, hot = 0;
    double gapSum = 0.0;
    for (int i = 0; i < n; ++i) {
        const auto e = g.next();
        seq += e.sequential;
        writes += e.isWrite;
        dependent += e.dependent;
        hot += (e.vaddr < 64 * kKiB && !e.sequential);
        gapSum += e.gap;
    }
    EXPECT_NEAR(seq / static_cast<double>(n), 0.2, 0.02);
    EXPECT_NEAR(writes / static_cast<double>(n), 0.3, 0.02);
    // Dependent accesses only come from the random fraction.
    EXPECT_NEAR(dependent / static_cast<double>(n), 0.1 * 0.5, 0.01);
    // Hot accesses (0.7) plus random ones landing under 64 KiB.
    EXPECT_GT(hot / static_cast<double>(n), 0.65);
    // Mean gap = (1-f)/f for f = 0.4.
    EXPECT_NEAR(gapSum / n, 1.5, 0.1);
}

TEST(TraceGeneratorTest, SequentialAccessesAdvanceByStride)
{
    BenchmarkProfile p = testProfile();
    p.seqFraction = 1.0;
    p.randomFraction = 0.0;
    SyntheticTraceGenerator g(p, 3, 16 * kMiB);
    // Four interleaved streams, each advancing by accessBytes.
    Addr last[4];
    for (auto &l : last)
        l = 0;
    for (int i = 0; i < 4; ++i)
        last[i] = g.next().vaddr;
    for (int round = 0; round < 100; ++round) {
        for (int s = 0; s < 4; ++s) {
            const Addr v = g.next().vaddr;
            EXPECT_EQ(v, last[s] + p.accessBytes);
            last[s] = v;
        }
    }
}

TEST(TraceGeneratorTest, FootprintClampedToHotset)
{
    // A pathological footprint smaller than the hot set is clamped.
    SyntheticTraceGenerator g(testProfile(), 3, 1 * kKiB);
    EXPECT_EQ(g.footprintBytes(), 64 * kKiB);
}

TEST(TraceGeneratorTest, PhasedProfilesAlternateIntensity)
{
    BenchmarkProfile p = testProfile();
    p.memPhaseInstrs = 50000;
    p.computePhaseInstrs = 50000;
    SyntheticTraceGenerator g(p, 13, 16 * kMiB);

    // Consume entries phase by phase and classify each window.
    int memWindows = 0, computeWindows = 0;
    bool lastPhase = g.inMemPhase();
    std::uint64_t nonHot = 0, total = 0;
    for (int i = 0; i < 400000 / 3; ++i) {
        const auto e = g.next();
        ++total;
        nonHot += (e.sequential || e.vaddr >= p.hotsetBytes);
        if (g.inMemPhase() != lastPhase) {
            // Phase boundary: check the finished window's character.
            const double frac = static_cast<double>(nonHot)
                / static_cast<double>(total);
            if (lastPhase) {
                EXPECT_GT(frac, 0.1);  // mem phase: misses flow
                ++memWindows;
            } else {
                EXPECT_LT(frac, 0.02);  // compute phase: hot only
                ++computeWindows;
            }
            lastPhase = g.inMemPhase();
            nonHot = total = 0;
        }
    }
    EXPECT_GT(memWindows, 2);
    EXPECT_GT(computeWindows, 2);
}

TEST(TraceGeneratorTest, PhaseStateFollowsTheEntryHandedOut)
{
    // The generator draws entries a block at a time; the phase state
    // must still switch on exactly the entry after the one whose
    // gap + 1 used up the macro-phase budget, wherever that entry
    // falls in a block.
    BenchmarkProfile p = profileByName("mcf");
    p.phases = PhaseSchedule::parse("stream@5000@0.5|mcf@3001@1");
    const std::uint64_t fp = 1 << 20;
    const std::uint64_t budgets[] = {5000, 3001};
    const std::uint64_t footprints[] = {fp / 2, fp};
    SyntheticTraceGenerator g(p, 17, fp);

    std::uint64_t epoch = 0, left = budgets[0], sincePhase = 0;
    bool switchDue = false;
    int unalignedSwitches = 0;
    for (int i = 0; i < 40000; ++i) {
        const auto e = g.next();
        if (switchDue) {
            unalignedSwitches += sincePhase % 64 != 0;
            ++epoch;
            left = budgets[epoch % 2];
            sincePhase = 0;
            switchDue = false;
        }
        ++sincePhase;
        ASSERT_EQ(g.phaseEpoch(), epoch) << i;
        ASSERT_EQ(g.footprintBytes(), footprints[epoch % 2]) << i;
        left -= std::min<std::uint64_t>(left, e.gap + 1ULL);
        switchDue = left == 0;
    }
    EXPECT_GE(epoch, 10u);
    EXPECT_GT(unalignedSwitches, 0) << "no switch fell mid-block";
}

TEST(TraceGeneratorTest, UnphasedProfileStaysInMemPhase)
{
    SyntheticTraceGenerator g(testProfile(), 13, 16 * kMiB);
    for (int i = 0; i < 1000; ++i)
        g.next();
    EXPECT_TRUE(g.inMemPhase());
}

TEST(TraceGeneratorTest, MismatchedPhaseConfigIsFatal)
{
    BenchmarkProfile p = testProfile();
    p.memPhaseInstrs = 1000;  // compute side left zero
    EXPECT_THROW((SyntheticTraceGenerator{p, 1, 16 * kMiB}),
                 FatalError);
}

TEST(TraceGeneratorTest, StreamCursorsWrapAround)
{
    BenchmarkProfile p = testProfile();
    p.seqFraction = 1.0;
    p.randomFraction = 0.0;
    p.hotsetBytes = 4 * kKiB;
    const std::uint64_t fp = 64 * kKiB;
    SyntheticTraceGenerator g(p, 9, fp);
    for (int i = 0; i < 100000; ++i)
        ASSERT_LT(g.next().vaddr, fp);
}

} // namespace
} // namespace refsched::workload
