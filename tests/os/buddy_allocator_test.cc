/** @file Tests for the bank-aware buddy allocator (Algorithm 2). */

#include "os/buddy_allocator.hh"

#include <gtest/gtest.h>

#include <set>

#include "simcore/logging.hh"
#include "simcore/rng.hh"

namespace refsched::os
{
namespace
{

/** Small machine: 2 ranks x 8 banks, heavily time-scaled. */
struct Fixture
{
    Fixture()
        : dev(dram::makeDdr3_1600(dram::DensityGb::d32,
                                  milliseconds(64.0), 256)),
          mapping(dev.org),
          buddy(mapping)
    {
    }

    dram::DramDeviceConfig dev;
    dram::AddressMapping mapping;
    BuddyAllocator buddy;
};

TEST(BuddyAllocatorTest, StartsFullyFree)
{
    Fixture f;
    EXPECT_EQ(f.buddy.freeFrames(), f.mapping.totalFrames());
    EXPECT_EQ(f.buddy.totalFrames(), f.mapping.totalFrames());
    std::string why;
    EXPECT_TRUE(f.buddy.checkInvariants(&why)) << why;
}

/** A one-rank organisation of @p banks banks with @p frames frames. */
dram::AddressMapping
mappingWithFrames(int banks, std::uint64_t frames)
{
    dram::DramOrganization org;
    org.channels = 1;
    org.ranksPerChannel = 1;
    org.banksPerRank = banks;
    org.rowsPerBank = frames / static_cast<std::uint64_t>(banks);
    return dram::AddressMapping(org);
}

TEST(BuddyAllocatorTest, FrameCountPastThe32BitEncodingIsFatal)
{
    // One frame more than a 32-bit frame number covers: the
    // constructor throws before it builds a free list.
    const auto tooMany = mappingWithFrames(1, PageTable::kMaxPfn + 1);
    ASSERT_EQ(tooMany.totalFrames(), (1ULL << 32) - 1);
    EXPECT_THROW(BuddyAllocator{tooMany}, FatalError);

    // The largest accepted machine: 2^32 - 2 frames.
    const auto largest = mappingWithFrames(2, PageTable::kMaxPfn);
    BuddyAllocator buddy(largest);
    EXPECT_EQ(buddy.totalFrames(), PageTable::kMaxPfn);
    EXPECT_EQ(buddy.freeFrames(), PageTable::kMaxPfn);
    // It carves into 2^21 - 1 max-order blocks and one block of each
    // order 10..1; the order-1 block holds the top two frames.
    EXPECT_EQ(buddy.freeListSize(BuddyAllocator::kMaxOrder),
              (1ULL << 21) - 1);
    EXPECT_EQ(buddy.freeListSize(0), 0u);
    EXPECT_EQ(buddy.allocBlock(1), PageTable::kMaxPfn - 2);
    buddy.freeBlock(PageTable::kMaxPfn - 2, 1);
    EXPECT_EQ(buddy.freeFrames(), PageTable::kMaxPfn);
}

TEST(BuddyAllocatorTest, AllocBlockSplitsAndFreeCoalesces)
{
    Fixture f;
    const auto before0 = f.buddy.freeListSize(0);
    auto block = f.buddy.allocBlock(0);
    ASSERT_TRUE(block.has_value());
    EXPECT_EQ(f.buddy.freeFrames(), f.mapping.totalFrames() - 1);
    // Splitting a max-order block populated every smaller order.
    EXPECT_GT(f.buddy.freeListSize(0), before0);

    f.buddy.freeBlock(*block, 0);
    EXPECT_EQ(f.buddy.freeFrames(), f.mapping.totalFrames());
    std::string why;
    EXPECT_TRUE(f.buddy.checkInvariants(&why)) << why;
    // Full coalescing: no order-0 fragments remain.
    EXPECT_EQ(f.buddy.freeListSize(0), 0u);
}

TEST(BuddyAllocatorTest, DistinctBlocksDoNotOverlap)
{
    Fixture f;
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        auto block = f.buddy.allocBlock(0);
        ASSERT_TRUE(block.has_value());
        EXPECT_TRUE(seen.insert(*block).second);
    }
}

TEST(BuddyAllocatorTest, HigherOrderBlocksAreAligned)
{
    Fixture f;
    for (int order = 1; order <= BuddyAllocator::kMaxOrder; ++order) {
        auto block = f.buddy.allocBlock(order);
        ASSERT_TRUE(block.has_value());
        EXPECT_EQ(*block & ((1ULL << order) - 1), 0u)
            << "order " << order;
        f.buddy.freeBlock(*block, order);
    }
    std::string why;
    EXPECT_TRUE(f.buddy.checkInvariants(&why)) << why;
}

TEST(BuddyAllocatorTest, MisalignedFreePanics)
{
    Fixture f;
    EXPECT_THROW(f.buddy.freeBlock(1, 3), PanicError);
}

TEST(BuddyAllocatorTest, RandomAllocFreeKeepsInvariants)
{
    Fixture f;
    Rng rng(99);
    std::vector<std::pair<std::uint64_t, int>> held;
    for (int op = 0; op < 2000; ++op) {
        if (held.empty() || rng.bernoulli(0.6)) {
            const int order = static_cast<int>(rng.below(6));
            auto block = f.buddy.allocBlock(order);
            if (block)
                held.emplace_back(*block, order);
        } else {
            const auto pick =
                static_cast<std::size_t>(rng.below(held.size()));
            f.buddy.freeBlock(held[pick].first, held[pick].second);
            held[pick] = held.back();
            held.pop_back();
        }
        if (op % 250 == 0) {
            std::string why;
            ASSERT_TRUE(f.buddy.checkInvariants(&why))
                << why << " op " << op;
        }
    }
    for (auto &[pfn, order] : held)
        f.buddy.freeBlock(pfn, order);
    EXPECT_EQ(f.buddy.freeFrames(), f.mapping.totalFrames());
    std::string why;
    EXPECT_TRUE(f.buddy.checkInvariants(&why)) << why;
}

// ---------------------------------------------------------------------
// Algorithm 2: bank-aware page allocation
// ---------------------------------------------------------------------

TEST(BankAwareAllocTest, PagesLandOnlyInPermittedBanks)
{
    Fixture f;
    Task task(1, "t", f.mapping.totalBanks());
    // Permit only banks 2, 3 and 10.
    std::fill(task.possibleBanksVector.begin(),
              task.possibleBanksVector.end(), false);
    for (int b : {2, 3, 10})
        task.allowBank(b);

    for (int i = 0; i < 300; ++i) {
        auto pfn = f.buddy.allocPage(task);
        ASSERT_TRUE(pfn.has_value());
        const int bank = f.mapping.bankOfFrame(*pfn);
        EXPECT_TRUE(bank == 2 || bank == 3 || bank == 10)
            << "page " << i << " landed in bank " << bank;
    }
}

TEST(BankAwareAllocTest, ConsecutiveAllocationsRotateBanks)
{
    // Algorithm 2 lines 10-11: BLP-preserving round-robin.
    Fixture f;
    Task task(1, "t", f.mapping.totalBanks());
    std::vector<int> banks;
    for (int i = 0; i < f.mapping.totalBanks() * 2; ++i) {
        auto pfn = f.buddy.allocPage(task);
        ASSERT_TRUE(pfn.has_value());
        banks.push_back(f.mapping.bankOfFrame(*pfn));
    }
    // With all banks permitted, consecutive pages hit consecutive
    // banks.
    for (std::size_t i = 1; i < banks.size(); ++i) {
        EXPECT_EQ(banks[i],
                  (banks[i - 1] + 1) % f.mapping.totalBanks());
    }
}

TEST(BankAwareAllocTest, StashedPagesServeLaterRequests)
{
    Fixture f;
    Task task(1, "t", f.mapping.totalBanks());
    std::fill(task.possibleBanksVector.begin(),
              task.possibleBanksVector.end(), false);
    task.allowBank(5);

    auto pfn = f.buddy.allocPage(task);
    ASSERT_TRUE(pfn.has_value());
    // Reaching bank 5 stashed pages of other banks in their caches.
    std::uint64_t cached = 0;
    for (int b = 0; b < f.mapping.totalBanks(); ++b)
        cached += f.buddy.bankCacheSize(b);
    EXPECT_GT(cached, 0u);

    // A task wanting one of the stashed banks hits the cache without
    // touching the buddy lists.
    Task other(2, "o", f.mapping.totalBanks());
    std::fill(other.possibleBanksVector.begin(),
              other.possibleBanksVector.end(), false);
    const int stashedBank =
        f.mapping.bankOfFrame(*pfn) == 0 ? 1 : 0;
    other.allowBank(stashedBank);
    const auto hitsBefore = f.buddy.bankCacheHits();
    auto pfn2 = f.buddy.allocPage(other);
    ASSERT_TRUE(pfn2.has_value());
    EXPECT_EQ(f.mapping.bankOfFrame(*pfn2), stashedBank);
    EXPECT_EQ(f.buddy.bankCacheHits(), hitsBefore + 1);
}

TEST(BankAwareAllocTest, ExhaustedPermittedBanksReturnsNull)
{
    Fixture f;
    Task task(1, "t", f.mapping.totalBanks());
    std::fill(task.possibleBanksVector.begin(),
              task.possibleBanksVector.end(), false);
    task.allowBank(0);

    const auto framesPerBank =
        f.mapping.totalFrames()
        / static_cast<std::uint64_t>(f.mapping.totalBanks());
    for (std::uint64_t i = 0; i < framesPerBank; ++i)
        ASSERT_TRUE(f.buddy.allocPage(task).has_value()) << i;
    // Bank 0 is now completely allocated.
    EXPECT_FALSE(f.buddy.allocPage(task).has_value());

    // Section 5.4.1 fallback still succeeds from other banks.
    auto fallback = f.buddy.allocPageAnyBank(&task);
    ASSERT_TRUE(fallback.has_value());
    EXPECT_NE(f.mapping.bankOfFrame(*fallback), 0);
    EXPECT_EQ(f.buddy.fallbackAllocations(), 1u);
}

TEST(BankAwareAllocTest, FreePageReturnsToBankCache)
{
    Fixture f;
    Task task(1, "t", f.mapping.totalBanks());
    auto pfn = f.buddy.allocPage(task);
    ASSERT_TRUE(pfn.has_value());
    const int bank = f.mapping.bankOfFrame(*pfn);
    const auto before = f.buddy.bankCacheSize(bank);
    f.buddy.freePage(*pfn);
    EXPECT_EQ(f.buddy.bankCacheSize(bank), before + 1);
}

TEST(BankAwareAllocTest, DrainBankCachesRestoresBuddyLists)
{
    Fixture f;
    Task task(1, "t", f.mapping.totalBanks());
    std::fill(task.possibleBanksVector.begin(),
              task.possibleBanksVector.end(), false);
    task.allowBank(3);
    std::vector<std::uint64_t> pages;
    for (int i = 0; i < 50; ++i)
        pages.push_back(f.buddy.allocPage(task).value());
    for (auto pfn : pages)
        f.buddy.freePage(pfn);

    f.buddy.drainBankCaches();
    for (int b = 0; b < f.mapping.totalBanks(); ++b)
        EXPECT_EQ(f.buddy.bankCacheSize(b), 0u);
    EXPECT_EQ(f.buddy.freeFrames(), f.mapping.totalFrames());
    std::string why;
    EXPECT_TRUE(f.buddy.checkInvariants(&why)) << why;
}

TEST(BankAwareAllocTest, TotalExhaustionReturnsNull)
{
    // Tiny memory so we can empty it quickly.
    auto dev = dram::makeDdr3_1600(dram::DensityGb::d32,
                                   milliseconds(64.0), 8192);
    dram::AddressMapping mapping(dev.org);
    BuddyAllocator buddy(mapping);
    Task task(1, "t", mapping.totalBanks());

    for (std::uint64_t i = 0; i < mapping.totalFrames(); ++i)
        ASSERT_TRUE(buddy.allocPage(task).has_value());
    EXPECT_FALSE(buddy.allocPage(task).has_value());
    EXPECT_FALSE(buddy.allocPageAnyBank(&task).has_value());
    EXPECT_EQ(buddy.freeFrames(), 0u);
}

} // namespace
} // namespace refsched::os
