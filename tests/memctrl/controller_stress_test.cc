/** @file
 * Randomized stress properties of the memory controller: under
 * arbitrary mixed traffic and any refresh policy, every accepted
 * read completes exactly once, latencies are physically sane, and
 * the protocol assertions in the bank state machines never fire.
 */

#include <gtest/gtest.h>

#include <map>

#include "memctrl/memory_controller.hh"
#include "simcore/rng.hh"

namespace refsched::memctrl
{
namespace
{

using dram::RefreshPolicy;

/** Callee test double: cookies carry (read id, send tick); fire()
 *  tallies completions and the latency envelope. */
struct LatencyRecorder : Callee
{
    std::uint64_t completions = 0;
    std::map<std::uint64_t, int> completionsPerRead;
    Tick minLatency = kMaxTick;
    Tick maxLatency = 0;

    void
    fire(Tick now, std::uint64_t id, std::uint64_t sent) override
    {
        ++completions;
        ++completionsPerRead[id];
        const Tick lat = now - static_cast<Tick>(sent);
        minLatency = std::min(minLatency, lat);
        maxLatency = std::max(maxLatency, lat);
    }
};

/**
 * Bursty injector: alternates hot phases (every ~6 ns) and idle
 * gaps, mixing reads and writes over random and repeated rows, and
 * reschedules itself until @p cutoff.
 */
struct BurstyInjector final : Callee
{
    BurstyInjector(EventQueue &q, MemoryController &m,
                   const dram::DramDeviceConfig &d, Tick cut)
        : eq(q), mc(m), dev(d), cutoff(cut)
    {
    }

    void
    fire(Tick t, std::uint64_t, std::uint64_t) override
    {
        const bool isWrite = rng.bernoulli(0.3);
        Addr addr;
        if (rng.bernoulli(0.4)) {
            // Row-hit-friendly: a small set of hot rows.
            addr = (rng.below(32) * dev.org.rowBytes)
                + rng.below(64) * 64;
        } else {
            addr = rng.below(dev.org.totalBytes() / 64) * 64;
        }

        Request r;
        r.paddr = addr;
        if (isWrite) {
            r.type = Request::Type::Write;
            acceptedWrites += mc.enqueue(std::move(r)) ? 1 : 0;
        } else {
            r.type = Request::Type::Read;
            r.completion = &rec;
            r.cookie0 = readId++;
            r.cookie1 = static_cast<std::uint64_t>(t);
            if (mc.enqueue(std::move(r)))
                ++acceptedReads;
            else
                ++rejectedReads;
        }

        const Tick gap = rng.bernoulli(0.02)
            ? nanoseconds(400.0)         // idle period
            : nanoseconds(4.0) + rng.below(nanoseconds(6.0));
        if (t + gap < cutoff)
            eq.schedule(t + gap, *this, 0, 0);
    }

    EventQueue &eq;
    MemoryController &mc;
    const dram::DramDeviceConfig &dev;
    Tick cutoff;
    Rng rng{2024};
    LatencyRecorder rec;
    std::uint64_t acceptedReads = 0;
    std::uint64_t rejectedReads = 0;
    std::uint64_t acceptedWrites = 0;
    std::uint64_t readId = 0;
};

class ControllerStressTest
    : public ::testing::TestWithParam<RefreshPolicy>
{
};

TEST_P(ControllerStressTest, RandomTrafficInvariants)
{
    const auto dev = dram::makeDdr3_1600(
        dram::DensityGb::d32, milliseconds(64.0), 128);
    EventQueue eq;
    MemoryController mc(eq, dev,
                        dram::makeRefreshScheduler(GetParam(), dev));
    BurstyInjector inject(eq, mc, dev, dev.timings.tREFW / 4);
    const LatencyRecorder &rec = inject.rec;
    eq.schedule(0, inject, 0, 0);

    eq.runUntil(dev.timings.tREFW / 4);
    // Injection has stopped; drain everything still queued.
    eq.runUntil(eq.now() + microseconds(50.0));

    EXPECT_GT(inject.acceptedReads, 1000u);
    EXPECT_EQ(rec.completions, inject.acceptedReads);
    for (const auto &[id, count] : rec.completionsPerRead)
        ASSERT_EQ(count, 1) << "read " << id;

    // Physical floor: a forwarded read takes one clock; anything
    // else at least a CAS+burst.
    EXPECT_GE(rec.minLatency, dev.timings.tCK);
    // Sanity ceiling: queue depth * worst-case row cycle plus a few
    // refreshes; generous but finite.
    EXPECT_LT(rec.maxLatency, microseconds(20.0));

    EXPECT_EQ(mc.readQueueSize(0), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ControllerStressTest,
    ::testing::Values(RefreshPolicy::NoRefresh, RefreshPolicy::AllBank,
                      RefreshPolicy::PerBankRoundRobin,
                      RefreshPolicy::SequentialPerBank,
                      RefreshPolicy::OooPerBank,
                      RefreshPolicy::Adaptive));

TEST(ControllerStressTest, BackToBackRowHitsSaturateBus)
{
    // 64 row hits to one open row: the data bus becomes the
    // bottleneck, so completions are tBURST apart.
    const auto dev = dram::makeDdr3_1600(
        dram::DensityGb::d32, milliseconds(64.0), 128);
    EventQueue eq;
    MemoryController mc(
        eq, dev,
        dram::makeRefreshScheduler(RefreshPolicy::NoRefresh, dev));

    struct DoneAtRecorder : Callee
    {
        std::vector<Tick> doneAt;
        void
        fire(Tick now, std::uint64_t, std::uint64_t) override
        {
            doneAt.push_back(now);
        }
    } rec;
    auto &doneAt = rec.doneAt;
    for (std::uint64_t i = 0; i < 64; ++i) {
        Request r;
        r.paddr = i * 64;  // same row, consecutive columns
        r.type = Request::Type::Read;
        r.completion = &rec;
        ASSERT_TRUE(mc.enqueue(std::move(r)));
    }
    eq.runUntil(microseconds(2.0));
    ASSERT_EQ(doneAt.size(), 64u);
    for (std::size_t i = 1; i < doneAt.size(); ++i) {
        EXPECT_GE(doneAt[i] - doneAt[i - 1], dev.timings.tBURST)
            << "completion " << i;
    }
    // Full pipeline: total time ~ tRCD + tCL + 64 bursts, far below
    // 64 serial accesses.
    EXPECT_LT(doneAt.back(),
              dev.timings.tRCD + dev.timings.tCL
                  + 66 * dev.timings.tBURST);
}

} // namespace
} // namespace refsched::memctrl
