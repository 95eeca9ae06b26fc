/** @file Tests for the trace-driven out-of-order core model. */

#include "cpu/core.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>

#include "memctrl/memory_controller.hh"
#include "simcore/logging.hh"

namespace refsched::cpu
{
namespace
{

/** An InstructionSource driven by a lambda, one entry per refill. */
class ScriptedSource : public InstructionSource
{
  public:
    explicit ScriptedSource(std::function<TraceEntry()> fn,
                            double cpi = 0.5)
        : fn_(std::move(fn)), cpi_(cpi)
    {
    }

    double baseCpi() const override { return cpi_; }

    /** refill() calls so far. */
    std::uint64_t refills = 0;

  private:
    std::uint32_t
    refill(TraceEntry *block) override
    {
        ++refills;
        block[0] = fn_();
        return 1;
    }

    std::function<TraceEntry()> fn_;
    double cpi_;
};

struct Fixture
{
    explicit Fixture(CoreParams params = {},
                     dram::RefreshPolicy policy =
                         dram::RefreshPolicy::NoRefresh)
        : dev(dram::makeDdr3_1600(dram::DensityGb::d32,
                                  milliseconds(64.0), 256)),
          mc(eq, dev, dram::makeRefreshScheduler(policy, dev)),
          buddy(mc.mapping()),
          vm(mc.mapping(), buddy),
          caches(1, smallCaches()),
          core(eq, 0, params, caches, mc, vm),
          task(1, "test", mc.mapping().totalBanks())
    {
    }

    static cache::HierarchyParams
    smallCaches()
    {
        cache::HierarchyParams p;
        p.l1 = cache::CacheParams{1 * kKiB, 2, 64, 2};
        p.l2 = cache::CacheParams{8 * kKiB, 4, 64, 20};
        return p;
    }

    /** Pre-fault [0, bytes) so page faults don't pollute timing. */
    void
    preTouch(std::uint64_t bytes)
    {
        for (Addr a = 0; a < bytes; a += mc.mapping().pageBytes())
            vm.translate(task, a);
    }

    void
    attachAndRun(InstructionSource *src, Tick duration)
    {
        task.source = src;
        core.setTask(&task, duration);
        eq.runUntil(duration);
    }

    EventQueue eq;
    dram::DramDeviceConfig dev;
    memctrl::MemoryController mc;
    os::BuddyAllocator buddy;
    os::VirtualMemory vm;
    cache::CacheHierarchy caches;
    cpu::Core core;
    os::Task task;
};

TEST(CoreTest, CacheResidentCodeRunsAtBaseCpi)
{
    Fixture f;
    f.preTouch(4 * kKiB);
    // gap 99 + 1 memory op to a single hot line = 100 instructions
    // per entry, all cache hits after the first.
    ScriptedSource src([] {
        TraceEntry e;
        e.gap = 99;
        e.vaddr = 0;
        return e;
    });
    const Tick duration = microseconds(20.0);
    f.attachAndRun(&src, duration);

    const double cpiTicks = 0.5 * 312.0;
    const double expected = static_cast<double>(duration) / cpiTicks;
    EXPECT_NEAR(static_cast<double>(f.task.instrsRetired), expected,
                expected * 0.05);
    // At most the single cold miss for the hot line itself.
    EXPECT_LE(f.core.dramReads.value(), 1.0);
}

TEST(CoreTest, IssueWidthBoundsCpi)
{
    CoreParams p;
    p.issueWidth = 2;
    Fixture f(p);
    f.preTouch(4 * kKiB);
    // baseCpi 0.1 would exceed the 2-wide issue limit of 0.5.
    ScriptedSource src(
        [] {
            TraceEntry e;
            e.gap = 99;
            e.vaddr = 0;
            return e;
        },
        0.1);
    const Tick duration = microseconds(10.0);
    f.attachAndRun(&src, duration);
    const double expected = static_cast<double>(duration) / (0.5 * 312.0);
    EXPECT_NEAR(static_cast<double>(f.task.instrsRetired), expected,
                expected * 0.05);
}

TEST(CoreTest, IndependentMissesOverlap)
{
    // Random independent misses: ROB-limited MLP makes throughput
    // much higher than serial latency would allow.
    Fixture fIndep;
    fIndep.preTouch(256 * kKiB);
    std::uint64_t n1 = 0;
    ScriptedSource indep([&n1] {
        TraceEntry e;
        e.gap = 4;
        e.vaddr = (n1++ * 64) % (256 * kKiB);
        return e;
    });
    fIndep.attachAndRun(&indep, microseconds(50.0));

    Fixture fDep;
    fDep.preTouch(256 * kKiB);
    std::uint64_t n2 = 0;
    ScriptedSource dep([&n2] {
        TraceEntry e;
        e.gap = 4;
        e.vaddr = (n2++ * 64) % (256 * kKiB);
        e.dependent = true;
        return e;
    });
    fDep.attachAndRun(&dep, microseconds(50.0));

    // Both make progress; the dependent chain is much slower.
    EXPECT_GT(fDep.task.instrsRetired, 0u);
    EXPECT_GT(fIndep.task.instrsRetired,
              fDep.task.instrsRetired * 3 / 2);
    EXPECT_GT(fDep.core.robStallTicks.value(), 0.0);
}

TEST(CoreTest, PrefetchCoveredStreamsDontStall)
{
    CoreParams blocking;
    CoreParams prefetching;
    prefetching.prefetchSequential = true;

    std::uint64_t instrs[2];
    int idx = 0;
    for (const auto &params : {blocking, prefetching}) {
        Fixture f(params);
        f.preTouch(512 * kKiB);
        std::uint64_t n = 0;
        ScriptedSource src([&n] {
            TraceEntry e;
            e.gap = 20;
            e.vaddr = (n++ * 64) % (512 * kKiB);
            e.sequential = true;
            return e;
        });
        f.attachAndRun(&src, microseconds(50.0));
        instrs[idx++] = f.task.instrsRetired;
    }
    EXPECT_GT(instrs[1], instrs[0]);
}

TEST(CoreTest, MshrLimitBoundsInFlightReads)
{
    CoreParams p;
    p.mshrCount = 2;
    p.prefetchSequential = true;
    Fixture f(p);
    f.preTouch(512 * kKiB);
    std::uint64_t n = 0;
    ScriptedSource src([&n] {
        TraceEntry e;
        e.gap = 0;
        e.vaddr = (n++ * 64) % (512 * kKiB);
        e.sequential = true;
        return e;
    });
    f.attachAndRun(&src, microseconds(20.0));
    // The MC queue never sees more than mshrCount reads from us.
    EXPECT_LE(f.mc.readQueueSize(0), 2u);
    EXPECT_GT(f.core.mshrStallTicks.value(), 0.0);
}

TEST(CoreTest, DirtyEvictionsReachDram)
{
    Fixture f;
    f.preTouch(128 * kKiB);
    std::uint64_t n = 0;
    ScriptedSource src([&n] {
        TraceEntry e;
        e.gap = 2;
        e.vaddr = (n++ * 64) % (128 * kKiB);
        e.isWrite = true;
        return e;
    });
    f.attachAndRun(&src, microseconds(100.0));
    EXPECT_GT(f.core.dramWrites.value(), 0.0);
    // Stores write-validate: no DRAM reads needed.
    EXPECT_EQ(f.core.dramReads.value(), 0.0);
}

TEST(CoreTest, StopsAtRunUntil)
{
    Fixture f;
    f.preTouch(4 * kKiB);
    ScriptedSource src([] {
        TraceEntry e;
        e.gap = 9;
        e.vaddr = 0;
        return e;
    });
    f.task.source = &src;
    f.core.setTask(&f.task, microseconds(5.0));
    f.eq.runUntil(microseconds(5.0));
    const auto atQuantum = f.task.instrsRetired;
    EXPECT_GT(atQuantum, 0u);
    // No more events: the core idles past its quantum.
    f.eq.runUntil(microseconds(50.0));
    EXPECT_EQ(f.task.instrsRetired, atQuantum);
}

TEST(CoreTest, ContextSwitchSwapsAccounting)
{
    Fixture f;
    f.preTouch(4 * kKiB);
    os::Task other(2, "other", f.mc.mapping().totalBanks());
    for (Addr a = 0; a < 4 * kKiB; a += f.mc.mapping().pageBytes())
        f.vm.translate(other, a);

    ScriptedSource src([] {
        TraceEntry e;
        e.gap = 9;
        e.vaddr = 0;
        return e;
    });
    f.task.source = &src;
    other.source = &src;

    f.core.setTask(&f.task, microseconds(5.0));
    f.eq.runUntil(microseconds(5.0));
    f.core.setTask(&other, microseconds(10.0));
    f.eq.runUntil(microseconds(10.0));

    EXPECT_GT(f.task.instrsRetired, 0u);
    EXPECT_GT(other.instrsRetired, 0u);
    EXPECT_EQ(f.core.contextSwitches.value(), 2.0);
    EXPECT_EQ(f.core.currentTask(), &other);
}

TEST(CoreTest, ResumingSameTaskKeepsState)
{
    Fixture f;
    f.preTouch(4 * kKiB);
    ScriptedSource src([] {
        TraceEntry e;
        e.gap = 9;
        e.vaddr = 0;
        return e;
    });
    f.task.source = &src;
    f.core.setTask(&f.task, microseconds(5.0));
    f.eq.runUntil(microseconds(5.0));
    f.core.setTask(&f.task, microseconds(10.0));  // same task again
    f.eq.runUntil(microseconds(10.0));
    // Only the initial switch counted.
    EXPECT_EQ(f.core.contextSwitches.value(), 1.0);
}

TEST(CoreTest, NullTaskIdles)
{
    Fixture f;
    f.core.setTask(nullptr, microseconds(5.0));
    f.eq.runUntil(microseconds(5.0));
    EXPECT_EQ(f.core.instrsIssued.value(), 0.0);
}

/**
 * The issue loop keeps its clock, instruction index and per-op counts
 * in locals and writes them back when it returns.  Drive every kind
 * of return -- quantum end, ROB stall, page fault, write-back and
 * miss traffic, MSHR and dependency waits -- and compare the counters
 * at several quantum boundaries with values recorded from the
 * member-counter loop.  A write-back missing on any return path
 * changes at least one of them.
 */
TEST(CoreTest, CountersMatchGoldenAtQuantumBoundaries)
{
    CoreParams params;
    params.mshrCount = 2;
    Fixture f(params);
    f.preTouch(1 * kMiB);
    StatRegistry reg;
    f.caches.registerStats(reg, "caches");
    const auto *accesses =
        static_cast<const Scalar *>(reg.find("caches.accesses"));
    ASSERT_NE(accesses, nullptr);

    const std::uint64_t pageBytes = f.mc.mapping().pageBytes();
    std::uint64_t n = 0, writes = 0, loads = 0, pages = 0;
    // cpi 0.7000063 makes 218.402 ticks per instruction: a 128-entry
    // ROB chunk rounds down by 0.45 ticks, so a 4000-instruction gap
    // charged in ROB-sized chunks lands ~14 ticks before one
    // whole-gap charge would, which moves the stall accounting.
    ScriptedSource src(
        [&] {
            TraceEntry e;
            const std::uint64_t step = n % 16;
            const bool fault = n++ % 64 == 0;
            if (fault) {
                // First touch of a fresh page: a fault and a miss.
                e.gap = 5;
                e.vaddr = 2 * kMiB + pages++ * pageBytes;
            } else if (step == 1) {
                e.gap = 4000;  // longer than the ROB
                e.vaddr = 64;
            } else if (step <= 3) {
                // A store stream over 64 KB: dirty evictions.
                e.gap = 2;
                e.vaddr = 64 * kKiB + (writes++ * 64) % (64 * kKiB);
                e.isWrite = true;
            } else if (step <= 5) {
                // Scattered loads: DRAM reads, the second dependent.
                e.gap = 1;
                e.vaddr = 512 * kKiB + (loads++ * 7919 % 2048) * 64;
                e.dependent = step == 5;
            } else if (step == 6) {
                e.gap = 300;  // fills the ROB behind those misses
                e.vaddr = 128;
            } else {
                // Hot L1 hits.
                e.gap = 3;
                e.vaddr = (step % 4) * 64;
                e.isWrite = step % 3 == 0;
            }
            return e;
        },
        0.7000063);
    f.task.source = &src;

    // Recorded from the loop that updated the counters in place.
    struct Golden
    {
        double us;
        std::uint64_t instrs, memOps;
        double accesses, dramReads, robStallTicks;
    };
    const Golden golden[] = {
        {3.0, 8669, 23, 23, 9, 121235},
        {7.0, 25765, 82, 82, 16, 238711},
        {12.5, 43172, 146, 146, 25, 393331},
        {20.0, 69634, 257, 257, 40, 660023},
        {31.0, 108449, 386, 386, 59, 974622},
    };
    for (const Golden &g : golden) {
        const Tick until = microseconds(g.us);
        f.core.setTask(&f.task, until);
        f.eq.runUntil(until);
        EXPECT_EQ(f.task.instrsRetired, g.instrs) << g.us;
        EXPECT_EQ(f.task.memOps, g.memOps) << g.us;
        EXPECT_EQ(f.core.instrsIssued.value(),
                  static_cast<double>(g.instrs))
            << g.us;
        EXPECT_EQ(accesses->value(), g.accesses) << g.us;
        EXPECT_EQ(f.core.dramReads.value(), g.dramReads) << g.us;
        EXPECT_EQ(f.core.robStallTicks.value(), g.robStallTicks)
            << g.us;
    }
    // The run reaches every stall kind it means to.
    EXPECT_GT(f.core.mshrStallTicks.value(), 0.0);
    EXPECT_GT(f.core.dramWrites.value(), 0.0);
}

/** A MemoryPort that completes every read a fixed latency after it
 *  arrives and takes every write at once, so fill ticks are exact. */
class FixedLatencyPort final : public memctrl::MemoryPort
{
  public:
    FixedLatencyPort(EventQueue &eq, Tick latency)
        : eq_(eq), latency_(latency)
    {
    }

    bool
    enqueue(memctrl::Request req) override
    {
        if (req.completion)
            eq_.schedule(eq_.now() + latency_, *req.completion,
                         req.cookie0, req.cookie1);
        return true;
    }

    void
    requestRetryNotification(Callee &, std::uint64_t,
                              std::uint64_t) override
    {
    }

  private:
    EventQueue &eq_;
    Tick latency_;
};

/**
 * A core on a FixedLatencyPort, for exact-tick checks of the issue
 * loop.  With the default 312-ps clock, one instruction at CPI 0.5
 * costs 156 ticks and an L1 hit (2 cycles, 30 % exposed) 187.
 */
struct TimedFixture
{
    static constexpr Tick kFillLatency = 100'000;

    TimedFixture()
        : dev(dram::makeDdr3_1600(dram::DensityGb::d32,
                                  milliseconds(64.0), 256)),
          mapping(dev.org), buddy(mapping), vm(mapping, buddy),
          caches(1, Fixture::smallCaches()),
          port(eq, kFillLatency),
          core(eq, 0, CoreParams{}, caches, port, vm),
          task(1, "timed", mapping.totalBanks())
    {
        caches.registerStats(reg, "caches");
    }

    /** Map the page of @p vaddr and bring its line into L1. */
    void
    warm(Addr vaddr)
    {
        caches.access(0, task.pid(), vm.translate(task, vaddr), false);
    }

    /** Run (or continue) the task's quantum up to @p until. */
    void
    runTo(Tick until)
    {
        core.setTask(&task, until);
        eq.runUntil(until);
    }

    double
    accesses() const
    {
        return static_cast<const Scalar *>(reg.find("caches.accesses"))
            ->value();
    }

    EventQueue eq;
    dram::DramDeviceConfig dev;
    dram::AddressMapping mapping;
    os::BuddyAllocator buddy;
    os::VirtualMemory vm;
    cache::CacheHierarchy caches;
    FixedLatencyPort port;
    cpu::Core core;
    os::Task task;
    StatRegistry reg;
};

/** chargeTable_'s rule: n instructions at @p cpi cost
 *  llround(n * cpi * 312) ticks. */
Tick
chargeOf(std::uint64_t n, double cpi)
{
    return static_cast<Tick>(
        std::llround(static_cast<double>(n) * (cpi * 312.0)));
}

constexpr Tick kL1HitTicks = 187;  // llround(2 * 0.3 * 312)

TEST(CoreTest, GapLongerThanRobIsChargedInRobChunks)
{
    // No miss is ever outstanding, yet a 300-instruction gap is
    // charged as 128 + 128 + 44: at 218.4 ticks per instruction the
    // chunks sum to one tick less than a single 300-instruction
    // charge would.
    const double cpi = 0.7000063;
    ASSERT_EQ(chargeOf(128, cpi), 27955);
    ASSERT_EQ(chargeOf(44, cpi), 9610);
    ASSERT_EQ(chargeOf(300, cpi), 65521);
    const Tick perEntry = 2 * chargeOf(128, cpi) + chargeOf(44, cpi)
        + chargeOf(1, cpi) + kL1HitTicks;
    ASSERT_EQ(perEntry, 65925);

    TimedFixture f;
    f.warm(0);
    ScriptedSource src(
        [] {
            TraceEntry e;
            e.gap = 300;
            return e;
        },
        cpi);
    f.task.source = &src;

    // A quantum ending exactly on an entry boundary stops there; one
    // tick later takes exactly one more entry, so the clock stood at
    // 2 * perEntry.
    f.runTo(2 * perEntry);
    EXPECT_EQ(f.task.instrsRetired, 2u * 301);
    EXPECT_EQ(f.task.memOps, 2u);
    f.runTo(2 * perEntry + 1);
    EXPECT_EQ(f.task.instrsRetired, 3u * 301);
    EXPECT_EQ(f.task.memOps, 3u);
    EXPECT_EQ(f.core.robStallTicks.value(), 0.0);
    EXPECT_EQ(f.core.dramReads.value(), 0.0);
}

TEST(CoreTest, GapEndingAtRobLimitStallsBeforeMemoryOp)
{
    TimedFixture f;
    f.warm(0);
    f.vm.translate(f.task, 64 * kKiB);  // mapped, but its line is cold
    std::uint64_t n = 0;
    ScriptedSource src([&n] {
        TraceEntry e;
        if (n == 0) {
            e.vaddr = 64 * kKiB;  // a DRAM miss at index 1
        } else if (n == 1) {
            e.gap = 128;  // ends at index 129 = miss + robSize
        }
        ++n;
        return e;
    });
    f.task.source = &src;

    // The miss's memory op ends at 156; Stage B sends it at 156 and
    // its fill returns at 100156.  The 128-instruction gap ends at
    // 156 + 128 * 156 = 20124 with the ROB full, so the memory op
    // waits there and the stall lasts 100156 - 20124 ticks.
    f.runTo(50'000);
    EXPECT_EQ(f.task.instrsRetired, 129u);
    EXPECT_EQ(f.task.memOps, 1u);
    EXPECT_EQ(f.core.dramReads.value(), 1.0);

    // After the fill: the parked memory op (156 + 187, ends at
    // 100499), then ten gap-0 hits of 343 ticks each.
    f.runTo(100'499 + 10 * 343);
    EXPECT_EQ(f.core.robStallTicks.value(), 100'156.0 - 20'124.0);
    EXPECT_EQ(f.task.memOps, 12u);
    EXPECT_EQ(f.task.instrsRetired, 140u);
    EXPECT_EQ(src.refills, 12u);
}

TEST(CoreTest, FirstTouchInsideL1HitRunChargesOneFault)
{
    TimedFixture f;
    f.warm(0);
    const std::uint64_t faultsBefore = f.task.pageFaults;
    const Addr fresh = 1 * kMiB;  // never touched
    std::uint64_t n = 0;
    ScriptedSource src([&] {
        TraceEntry e;
        e.gap = 5;
        if (n == 3) {
            // First touch: a fault, and a write-validate L1 + L2 miss
            // (no DRAM read) that leaves the line in L1.
            e.vaddr = fresh;
            e.isWrite = true;
        } else if (n > 3 && n % 2 == 0) {
            e.vaddr = fresh;  // L1 hits on the page just mapped
        }
        ++n;
        return e;
    });
    f.task.source = &src;

    const Tick hit = chargeOf(5, 0.5) + chargeOf(1, 0.5) + kL1HitTicks;
    ASSERT_EQ(hit, 1123);
    // 3000 fault cycles, and a 22-cycle L1 + L2 miss 30 % exposed.
    const Tick faultEntry = chargeOf(5, 0.5) + 3000 * 312
        + chargeOf(1, 0.5) + 2059;
    const Tick eighth = 3 * hit + faultEntry + 4 * hit;
    f.runTo(eighth);
    EXPECT_EQ(f.task.memOps, 8u);
    EXPECT_EQ(f.task.instrsRetired, 48u);
    f.runTo(eighth + 1);
    EXPECT_EQ(f.task.memOps, 9u);
    EXPECT_EQ(f.task.pageFaults - faultsBefore, 1u);
    EXPECT_EQ(f.core.dramReads.value(), 0.0);
}

TEST(CoreTest, RunUntilBetweenEntriesAndInsideAGap)
{
    TimedFixture f;
    f.warm(0);
    ScriptedSource src([] {
        TraceEntry e;
        e.gap = 99;
        return e;
    });
    f.task.source = &src;
    const Tick perEntry = chargeOf(99, 0.5) + chargeOf(1, 0.5)
        + kL1HitTicks;
    ASSERT_EQ(perEntry, 15787);

    // On an entry boundary: exactly three entries.
    f.runTo(3 * perEntry);
    EXPECT_EQ(f.task.instrsRetired, 300u);
    // Inside the sixth entry's gap: the quantum is checked only
    // between entries, so the sixth entry finishes.
    f.runTo(5 * perEntry + 7'000);
    EXPECT_EQ(f.task.instrsRetired, 600u);
    // The clock stood at 6 * perEntry: one tick later is one entry.
    f.runTo(6 * perEntry + 1);
    EXPECT_EQ(f.task.instrsRetired, 700u);
    EXPECT_EQ(f.task.memOps, 7u);
    EXPECT_EQ(src.refills, 7u);
}

TEST(CoreTest, L1MissAfterHitsCountsOneAccess)
{
    TimedFixture f;
    f.warm(0);
    f.vm.translate(f.task, 64 * kKiB);
    const double warmAccesses = f.accesses();
    const std::uint64_t l1Before = f.caches.l1(0).accesses();
    std::uint64_t n = 0;
    ScriptedSource src([&n] {
        TraceEntry e;
        e.gap = 3;
        if (n++ == 4)
            e.vaddr = 64 * kKiB;  // cold line: L1, L2 and DRAM miss
        return e;
    });
    f.task.source = &src;

    // Four hits of 811 ticks, the miss (its memory op ends at 3868,
    // where Stage B sends the read), then two more hits.
    const Tick hit = chargeOf(3, 0.5) + chargeOf(1, 0.5) + kL1HitTicks;
    ASSERT_EQ(hit, 811);
    f.runTo(4 * hit + chargeOf(4, 0.5) + 2 * hit);
    EXPECT_EQ(f.task.memOps, 7u);
    EXPECT_EQ(f.task.instrsRetired, 28u);
    EXPECT_EQ(f.core.dramReads.value(), 1.0);
    EXPECT_EQ(f.accesses() - warmAccesses, 7.0);
    EXPECT_EQ(f.caches.l1(0).accesses() - l1Before, 7u);
}

TEST(CoreTest, BadParamsAreFatal)
{
    Fixture f;  // reuse its components
    CoreParams p;
    p.issueWidth = 0;
    EXPECT_THROW(cpu::Core(f.eq, 1, p, f.caches, f.mc, f.vm),
                 FatalError);
}

} // namespace
} // namespace refsched::cpu
