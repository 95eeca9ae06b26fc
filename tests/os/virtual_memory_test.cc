/** @file Tests for per-task virtual memory / demand paging. */

#include "os/virtual_memory.hh"

#include <gtest/gtest.h>

#include "simcore/logging.hh"

namespace refsched::os
{
namespace
{

struct Fixture
{
    Fixture()
        : dev(dram::makeDdr3_1600(dram::DensityGb::d32,
                                  milliseconds(64.0), 256)),
          mapping(dev.org),
          buddy(mapping),
          vm(mapping, buddy)
    {
    }

    dram::DramDeviceConfig dev;
    dram::AddressMapping mapping;
    BuddyAllocator buddy;
    VirtualMemory vm;
};

TEST(VirtualMemoryTest, FirstTouchFaultsThenStable)
{
    Fixture f;
    Task t(1, "t", f.mapping.totalBanks());

    bool faulted = false;
    const Addr pa1 = f.vm.translate(t, 0x12345, &faulted);
    EXPECT_TRUE(faulted);
    EXPECT_EQ(t.pageFaults, 1u);

    const Addr pa2 = f.vm.translate(t, 0x12345, &faulted);
    EXPECT_FALSE(faulted);
    EXPECT_EQ(pa1, pa2);
    EXPECT_EQ(t.pageFaults, 1u);
}

TEST(VirtualMemoryTest, PageOffsetPreserved)
{
    Fixture f;
    Task t(1, "t", f.mapping.totalBanks());
    const Addr base = f.vm.translate(t, 0x4000);
    EXPECT_EQ(f.vm.translate(t, 0x4000 + 100), base + 100);
    EXPECT_EQ(base & (f.mapping.pageBytes() - 1), 0u);
}

TEST(VirtualMemoryTest, DistinctPagesGetDistinctFrames)
{
    Fixture f;
    Task t(1, "t", f.mapping.totalBanks());
    const Addr a = f.vm.translate(t, 0 * f.mapping.pageBytes());
    const Addr b = f.vm.translate(t, 1 * f.mapping.pageBytes());
    EXPECT_NE(a >> f.mapping.pageShift(), b >> f.mapping.pageShift());
}

TEST(VirtualMemoryTest, TasksHaveIndependentAddressSpaces)
{
    Fixture f;
    Task t1(1, "a", f.mapping.totalBanks());
    Task t2(2, "b", f.mapping.totalBanks());
    const Addr a = f.vm.translate(t1, 0x8000);
    const Addr b = f.vm.translate(t2, 0x8000);
    EXPECT_NE(a, b);
}

TEST(VirtualMemoryTest, ResidentCountersTrackBanks)
{
    Fixture f;
    Task t(1, "t", f.mapping.totalBanks());
    std::fill(t.possibleBanksVector.begin(),
              t.possibleBanksVector.end(), false);
    t.allowBank(4);
    t.allowBank(7);

    for (std::uint64_t p = 0; p < 20; ++p)
        f.vm.translate(t, p * f.mapping.pageBytes());

    EXPECT_EQ(t.residentPages(), 20u);
    EXPECT_EQ(t.residentPagesPerBank[4] + t.residentPagesPerBank[7],
              20u);
    EXPECT_NEAR(t.residentFractionIn(4), 0.5, 0.11);
    EXPECT_EQ(t.residentPagesPerBank[0], 0u);
}

TEST(VirtualMemoryTest, FallbackWhenPermittedBanksExhausted)
{
    Fixture f;
    Task t(1, "t", f.mapping.totalBanks());
    std::fill(t.possibleBanksVector.begin(),
              t.possibleBanksVector.end(), false);
    t.allowBank(0);

    const auto framesPerBank = f.mapping.totalFrames()
        / static_cast<std::uint64_t>(f.mapping.totalBanks());
    // Touch more pages than bank 0 can hold.
    for (std::uint64_t p = 0; p < framesPerBank + 10; ++p)
        f.vm.translate(t, p * f.mapping.pageBytes());

    EXPECT_EQ(t.fallbackAllocs, 10u);
    EXPECT_EQ(f.vm.fallbackAllocations(), 10u);
    EXPECT_EQ(t.residentPagesPerBank[0], framesPerBank);
    EXPECT_EQ(t.residentPages(), framesPerBank + 10);
}

TEST(VirtualMemoryTest, ReleaseTaskFreesEverything)
{
    Fixture f;
    Task t(1, "t", f.mapping.totalBanks());
    for (std::uint64_t p = 0; p < 50; ++p)
        f.vm.translate(t, p * f.mapping.pageBytes());
    const auto freeBefore = f.buddy.freeFrames();

    f.vm.releaseTask(t);
    EXPECT_EQ(f.buddy.freeFrames(), freeBefore + 50);
    EXPECT_TRUE(t.pageTable.empty());
    EXPECT_EQ(t.residentPages(), 0u);
}

TEST(VirtualMemoryTest, OutOfMemoryIsFatal)
{
    auto dev = dram::makeDdr3_1600(dram::DensityGb::d32,
                                   milliseconds(64.0), 8192);
    dram::AddressMapping mapping(dev.org);
    BuddyAllocator buddy(mapping);
    VirtualMemory vm(mapping, buddy);
    Task first(1, "first", mapping.totalBanks());
    Task second(2, "second", mapping.totalBanks());

    // The first task fills physical memory; the second task's first
    // touch, at an in-range vpn, finds no frame.
    for (std::uint64_t p = 0; p < mapping.totalFrames(); ++p)
        vm.translate(first, p * mapping.pageBytes());
    EXPECT_EQ(buddy.freeFrames(), 0u);
    EXPECT_THROW(vm.translate(second, 0), FatalError);
    EXPECT_TRUE(second.pageTable.empty());
}

TEST(VirtualMemoryTest, VaddrPastPhysicalMemoryIsFatal)
{
    Fixture f;
    Task t(1, "t", f.mapping.totalBanks());
    const std::uint64_t limit = f.mapping.totalFrames();
    const std::uint64_t freeBefore = f.buddy.freeFrames();

    // The last in-range page maps (and sizes the table at the limit).
    f.vm.translate(t, (limit - 1) * f.mapping.pageBytes());
    EXPECT_EQ(t.pageTable.size(), 1u);
    const std::size_t slots = t.pageTable.capacity();
    EXPECT_LE(slots, limit);

    // The first vpn past it and a forged 2^62 vaddr both fail before
    // allocating a frame or growing the table.
    for (const Addr vaddr :
         {limit * f.mapping.pageBytes(), Addr{1} << 62}) {
        EXPECT_THROW(f.vm.translate(t, vaddr), FatalError);
        EXPECT_EQ(t.pageTable.capacity(), slots);
        EXPECT_EQ(t.pageTable.size(), 1u);
        EXPECT_EQ(f.buddy.freeFrames(), freeBefore - 1);
    }

    // A fresh task's table does not grow either.
    Task fresh(2, "fresh", f.mapping.totalBanks());
    EXPECT_THROW(f.vm.translate(fresh, Addr{1} << 62), FatalError);
    EXPECT_EQ(fresh.pageTable.capacity(), 0u);
}

TEST(VirtualMemoryTest, TrimFootprintUnmapsFromTheBound)
{
    Fixture f;
    Task t(1, "t", f.mapping.totalBanks());
    for (std::uint64_t p = 0; p < 20; ++p)
        f.vm.translate(t, p * f.mapping.pageBytes());
    const std::uint64_t freeBefore = f.buddy.freeFrames();

    EXPECT_EQ(f.vm.trimFootprint(t, 12), 8u);
    EXPECT_EQ(f.buddy.freeFrames(), freeBefore + 8);
    EXPECT_EQ(t.pageTable.size(), 12u);
    EXPECT_EQ(t.residentPages(), 12u);
    std::uint64_t next = 0;
    t.pageTable.forEach([&](std::uint64_t vpn, std::uint64_t) {
        EXPECT_EQ(vpn, next++);
    });
    EXPECT_EQ(next, 12u);
}

} // namespace
} // namespace refsched::os
