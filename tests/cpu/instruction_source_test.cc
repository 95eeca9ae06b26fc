/** @file Tests for InstructionSource's block hand-out. */

#include "cpu/instruction_source.hh"

#include <gtest/gtest.h>

#include <vector>

namespace refsched::cpu
{
namespace
{

/** Numbers its entries 0, 1, 2, ... in their gap field and fills
 *  blocks of the sizes in @p sizes, cyclically. */
class NumberingSource final : public InstructionSource
{
  public:
    explicit NumberingSource(std::vector<std::uint32_t> sizes)
        : sizes_(std::move(sizes))
    {
    }

    /** refill() calls so far. */
    std::uint64_t refills = 0;

  private:
    std::uint32_t
    refill(TraceEntry *block) override
    {
        const std::uint32_t n = sizes_[refills++ % sizes_.size()];
        for (std::uint32_t i = 0; i < n; ++i) {
            block[i] = TraceEntry{};
            block[i].gap = next_++;
        }
        return n;
    }

    std::vector<std::uint32_t> sizes_;
    std::uint32_t next_ = 0;
};

TEST(InstructionSourceTest, OneEntryRefillsOncePerNext)
{
    NumberingSource src({1});
    for (std::uint32_t i = 0; i < 200; ++i) {
        EXPECT_EQ(src.next().gap, i);
        EXPECT_EQ(src.refills, i + 1u);
    }
}

TEST(InstructionSourceTest, BlocksAreHandedOutInOrderAndRefilledWhenEmpty)
{
    // Block sizes 1, 64, 7, 33: refill k runs when the entry after
    // the first sum-of-sizes entries is asked for, not before.
    NumberingSource src({1, InstructionSource::kBlockEntries, 7, 33});
    const std::uint32_t ends[] = {1, 65, 72, 105, 106, 170};
    std::uint64_t blocks = 0;
    for (std::uint32_t i = 0; i < 170; ++i) {
        if (i == 0 || i == ends[blocks - 1])
            ++blocks;
        EXPECT_EQ(src.next().gap, i);
        EXPECT_EQ(src.refills, blocks) << i;
    }
}

} // namespace
} // namespace refsched::cpu
