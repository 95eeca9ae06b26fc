/** @file Unit tests for the flat vpn-indexed page table. */

#include "os/page_table.hh"

#include <gtest/gtest.h>

#include <initializer_list>
#include <utility>
#include <vector>

namespace refsched::os
{
namespace
{

constexpr std::uint64_t kLimit = 1 << 20;

std::vector<std::pair<std::uint64_t, std::uint64_t>>
mappings(const PageTable &pt, std::uint64_t firstVpn = 0)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    pt.forEach(
        [&](std::uint64_t vpn, std::uint64_t pfn) {
            out.emplace_back(vpn, pfn);
        },
        firstVpn);
    return out;
}

TEST(PageTableTest, MapUnmapAndSize)
{
    PageTable pt;
    EXPECT_TRUE(pt.empty());
    EXPECT_EQ(pt.lookup(0), PageTable::kUnmapped);
    EXPECT_EQ(pt.lookup(~0ULL), PageTable::kUnmapped);

    // pfn 0 is a real frame, distinct from "unmapped".
    pt.map(5, 0, kLimit);
    pt.map(300, 42, kLimit);
    EXPECT_EQ(pt.size(), 2u);
    EXPECT_EQ(pt.lookup(5), 0u);
    EXPECT_EQ(pt.lookup(300), 42u);
    EXPECT_EQ(pt.lookup(6), PageTable::kUnmapped);

    // Remapping rewrites the frame without changing the count.
    pt.map(300, 7, kLimit);
    EXPECT_EQ(pt.lookup(300), 7u);
    EXPECT_EQ(pt.size(), 2u);

    pt.unmap(5);
    EXPECT_EQ(pt.lookup(5), PageTable::kUnmapped);
    EXPECT_EQ(pt.size(), 1u);
    EXPECT_FALSE(pt.empty());
}

TEST(PageTableTest, IteratesInVpnOrder)
{
    PageTable pt;
    for (const std::uint64_t vpn : {900u, 3u, 64u, 0u, 65u})
        pt.map(vpn, vpn * 10, kLimit);

    using Pairs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
    EXPECT_EQ(mappings(pt),
              (Pairs{{0, 0}, {3, 30}, {64, 640}, {65, 650}, {900, 9000}}));
    EXPECT_EQ(mappings(pt, 64), (Pairs{{64, 640}, {65, 650}, {900, 9000}}));
    EXPECT_TRUE(mappings(pt, 901).empty());

    // The callback may unmap the vpn it is given.
    pt.forEach([&](std::uint64_t vpn, std::uint64_t) { pt.unmap(vpn); },
               64);
    EXPECT_EQ(mappings(pt), (Pairs{{0, 0}, {3, 30}}));
    EXPECT_EQ(pt.size(), 2u);
}

TEST(PageTableTest, GrowthIsCappedAtTheLimit)
{
    PageTable pt;
    pt.map(0, 1, 100);
    EXPECT_EQ(pt.capacity(), 64u);
    pt.map(64, 1, 100);
    EXPECT_EQ(pt.capacity(), 100u);  // doubling would give 128
    pt.map(99, 1, 100);
    EXPECT_EQ(pt.capacity(), 100u);
    EXPECT_EQ(pt.size(), 3u);
}

TEST(PageTableTest, LargestEncodablePfnRoundTrips)
{
    // A slot is 32 bits holding pfn + 1, so 2^32 - 2 is the top pfn.
    EXPECT_EQ(PageTable::kMaxPfn, (1ULL << 32) - 2);
    PageTable pt;
    pt.map(7, PageTable::kMaxPfn, kLimit);
    pt.map(8, PageTable::kMaxPfn - 1, kLimit);
    EXPECT_EQ(pt.lookup(7), PageTable::kMaxPfn);
    EXPECT_EQ(pt.lookup(8), PageTable::kMaxPfn - 1);
    using Pairs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
    EXPECT_EQ(mappings(pt), (Pairs{{7, PageTable::kMaxPfn},
                                   {8, PageTable::kMaxPfn - 1}}));
    pt.unmap(7);
    EXPECT_EQ(pt.lookup(7), PageTable::kUnmapped);
}

TEST(PageTableTest, UnmappedAndOutOfRangeLookups)
{
    PageTable pt;
    pt.reserve(100, kLimit);
    pt.map(10, 5, kLimit);
    // Inside the array but unmapped, just past it, and far past it.
    for (const std::uint64_t vpn :
         std::initializer_list<std::uint64_t>{0, 9, 11, 99, 100, kLimit,
                                              ~0ULL})
        EXPECT_EQ(pt.lookup(vpn), PageTable::kUnmapped) << vpn;
    EXPECT_EQ(pt.lookup(10), 5u);
}

TEST(PageTableTest, ReserveSizesTheTableOnce)
{
    PageTable pt;
    pt.reserve(1000, kLimit);
    EXPECT_EQ(pt.size(), 0u);
    EXPECT_TRUE(pt.empty());
    EXPECT_EQ(pt.capacity(), 1000u);

    // Mapping any vpn below the reservation keeps the same array.
    for (std::uint64_t vpn = 0; vpn < 1000; ++vpn)
        pt.map(vpn, vpn + 3, kLimit);
    EXPECT_EQ(pt.capacity(), 1000u);
    EXPECT_EQ(pt.size(), 1000u);
    EXPECT_EQ(pt.lookup(999), 1002u);

    // A reservation past the vpn limit stops at the limit.
    PageTable capped;
    capped.reserve(500, 100);
    EXPECT_EQ(capped.capacity(), 100u);
}

TEST(PageTableTest, GrowthPastTheReservationStopsAtTheLimit)
{
    PageTable pt;
    pt.reserve(100, 150);
    pt.map(99, 1, 150);
    EXPECT_EQ(pt.capacity(), 100u);
    pt.map(100, 2, 150);
    EXPECT_EQ(pt.capacity(), 150u);  // doubling would give 200
    pt.map(149, 3, 150);
    EXPECT_EQ(pt.capacity(), 150u);
    EXPECT_EQ(pt.size(), 3u);
}

TEST(PageTableTest, ClearReleasesCapacity)
{
    PageTable pt;
    for (std::uint64_t vpn = 0; vpn < 5000; vpn += 7)
        pt.map(vpn, vpn, kLimit);
    EXPECT_GE(pt.capacity(), 4999u);

    pt.clear();
    EXPECT_EQ(pt.capacity(), 0u);
    EXPECT_TRUE(pt.empty());
    EXPECT_EQ(pt.lookup(7), PageTable::kUnmapped);
    EXPECT_TRUE(mappings(pt).empty());

    // The table is usable again after a clear.
    pt.map(3, 9, kLimit);
    EXPECT_EQ(pt.lookup(3), 9u);
    EXPECT_EQ(pt.size(), 1u);
}

} // namespace
} // namespace refsched::os
