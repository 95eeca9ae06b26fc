/** @file Tests for the set-associative cache tag store. */

#include "cache/cache.hh"

#include <gtest/gtest.h>

#include <vector>

#include "simcore/logging.hh"
#include "simcore/rng.hh"

namespace refsched::cache
{
namespace
{

CacheParams
tiny()
{
    // 4 sets x 2 ways x 64 B lines = 512 B.
    CacheParams p;
    p.sizeBytes = 512;
    p.associativity = 2;
    p.lineBytes = 64;
    p.hitLatency = 2;
    return p;
}

/** Address for (set, tag) in the tiny cache. */
Addr
at(std::uint64_t set, std::uint64_t tag)
{
    return (tag * 4 + set) * 64;
}

TEST(CacheTest, MissThenHit)
{
    Cache c(tiny());
    EXPECT_FALSE(c.access(at(0, 1), false).hit);
    EXPECT_TRUE(c.access(at(0, 1), false).hit);
    EXPECT_EQ(c.accesses(), 2u);
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.5);
}

TEST(CacheTest, DifferentOffsetsSameLineHit)
{
    Cache c(tiny());
    c.access(at(0, 1), false);
    EXPECT_TRUE(c.access(at(0, 1) + 8, false).hit);
    EXPECT_TRUE(c.access(at(0, 1) + 63, true).hit);
}

TEST(CacheTest, LruEviction)
{
    Cache c(tiny());
    c.access(at(2, 1), false);
    c.access(at(2, 2), false);  // set 2 now full
    c.access(at(2, 1), false);  // touch tag 1: tag 2 becomes LRU
    const auto out = c.access(at(2, 3), false);
    EXPECT_FALSE(out.hit);
    EXPECT_TRUE(out.victimValid);
    EXPECT_EQ(out.victimAddr, at(2, 2));
    EXPECT_TRUE(c.contains(at(2, 1)));
    EXPECT_FALSE(c.contains(at(2, 2)));
    EXPECT_TRUE(c.contains(at(2, 3)));
}

TEST(CacheTest, DirtyVictimReported)
{
    Cache c(tiny());
    c.access(at(1, 1), true);   // dirty
    c.access(at(1, 2), false);  // clean
    const auto out = c.access(at(1, 3), false);  // evicts tag 1 (LRU)
    EXPECT_TRUE(out.victimValid);
    EXPECT_TRUE(out.victimDirty);
    EXPECT_EQ(out.victimAddr, at(1, 1));
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(CacheTest, CleanVictimNotDirty)
{
    Cache c(tiny());
    c.access(at(1, 1), false);
    c.access(at(1, 2), false);
    const auto out = c.access(at(1, 3), false);
    EXPECT_TRUE(out.victimValid);
    EXPECT_FALSE(out.victimDirty);
    EXPECT_EQ(c.writebacks(), 0u);
}

TEST(CacheTest, WriteMarksLineDirtyLater)
{
    Cache c(tiny());
    c.access(at(3, 1), false);  // allocate clean
    c.access(at(3, 1), true);   // dirty it on a hit
    c.access(at(3, 2), false);
    const auto out = c.access(at(3, 3), false);
    EXPECT_TRUE(out.victimDirty);
}

TEST(CacheTest, InsertWithoutDemandAccess)
{
    Cache c(tiny());
    c.insert(at(0, 5), true);
    EXPECT_TRUE(c.contains(at(0, 5)));
    // insert() is not a demand access.
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_EQ(c.misses(), 0u);
}

TEST(CacheTest, InsertOnPresentLineMergesDirty)
{
    Cache c(tiny());
    c.access(at(0, 5), false);
    c.insert(at(0, 5), true);
    c.access(at(0, 6), false);
    const auto out = c.access(at(0, 7), false);  // evicts tag 5
    EXPECT_TRUE(out.victimDirty);
}

TEST(CacheTest, InvalidateDropsLine)
{
    Cache c(tiny());
    c.access(at(0, 1), true);
    EXPECT_TRUE(c.invalidate(at(0, 1)));   // was dirty
    EXPECT_FALSE(c.contains(at(0, 1)));
    EXPECT_FALSE(c.invalidate(at(0, 1)));  // already gone
}

TEST(CacheTest, ResetClearsContents)
{
    Cache c(tiny());
    c.access(at(0, 1), false);
    c.reset();
    EXPECT_FALSE(c.contains(at(0, 1)));
}

TEST(CacheTest, ProbeDoesNotDisturbLru)
{
    Cache c(tiny());
    c.access(at(2, 1), false);
    c.access(at(2, 2), false);
    // Probing tag 1 must not make it MRU.
    EXPECT_TRUE(c.contains(at(2, 1)));
    const auto out = c.access(at(2, 3), false);
    EXPECT_EQ(out.victimAddr, at(2, 1));
}

TEST(CacheTest, FullCoverageOfAllSets)
{
    Cache c(tiny());
    for (std::uint64_t set = 0; set < 4; ++set) {
        for (std::uint64_t tag = 0; tag < 2; ++tag)
            EXPECT_FALSE(c.access(at(set, tag), false).hit);
    }
    for (std::uint64_t set = 0; set < 4; ++set) {
        for (std::uint64_t tag = 0; tag < 2; ++tag)
            EXPECT_TRUE(c.access(at(set, tag), false).hit);
    }
}

TEST(CacheTest, Table1Geometry)
{
    CacheParams l1{32 * kKiB, 4, 64, 2};
    EXPECT_EQ(l1.numSets(), 128u);
    CacheParams l2{2 * kMiB, 16, 64, 20};
    EXPECT_EQ(l2.numSets(), 2048u);
    Cache c1(l1), c2(l2);  // construct without error
}

/**
 * Reference array-of-structs LRU tag store: one record per way,
 * victim = first invalid way, else the smallest lastUse (ties to the
 * lowest way).  Cache must match it outcome for outcome.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheParams &p)
        : assoc_(static_cast<std::uint64_t>(p.associativity)),
          sets_(p.numSets()), lineBytes_(p.lineBytes),
          lines_(sets_ * assoc_)
    {
    }

    CacheAccessOutcome
    access(Addr paddr, bool isWrite)
    {
        ++accesses;
        if (Line *l = find(paddr)) {
            l->lastUse = ++useCounter_;
            l->dirty |= isWrite;
            return CacheAccessOutcome{true, false, false, 0};
        }
        ++misses;
        return insert(paddr, isWrite);
    }

    CacheAccessOutcome
    insert(Addr paddr, bool dirty)
    {
        CacheAccessOutcome out;
        if (Line *l = find(paddr)) {
            l->dirty |= dirty;
            l->lastUse = ++useCounter_;
            return out;
        }
        Line *base = &lines_[set(paddr) * assoc_];
        Line *victim = nullptr;
        for (std::uint64_t w = 0; w < assoc_; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
            if (!victim || base[w].lastUse < victim->lastUse)
                victim = &base[w];
        }
        if (victim->valid) {
            out.victimValid = true;
            out.victimDirty = victim->dirty;
            out.victimAddr = victim->line;
            writebacks += victim->dirty;
        }
        *victim = Line{paddr / lineBytes_ * lineBytes_, true, dirty,
                       ++useCounter_};
        return out;
    }

    bool
    contains(Addr paddr)
    {
        return find(paddr) != nullptr;
    }

    bool
    invalidate(Addr paddr)
    {
        Line *l = find(paddr);
        if (!l)
            return false;
        const bool wasDirty = l->dirty;
        l->valid = l->dirty = false;
        return wasDirty;
    }

    void
    reset()
    {
        for (auto &l : lines_)
            l = Line{};
        useCounter_ = 0;
    }

    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;

  private:
    struct Line
    {
        Addr line = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    std::uint64_t
    set(Addr paddr) const
    {
        return paddr / lineBytes_ % sets_;
    }

    Line *
    find(Addr paddr)
    {
        const Addr line = paddr / lineBytes_ * lineBytes_;
        Line *base = &lines_[set(paddr) * assoc_];
        for (std::uint64_t w = 0; w < assoc_; ++w) {
            if (base[w].valid && base[w].line == line)
                return &base[w];
        }
        return nullptr;
    }

    std::uint64_t assoc_;
    std::uint64_t sets_;
    std::uint64_t lineBytes_;
    std::vector<Line> lines_;
    std::uint64_t useCounter_ = 0;
};

class CacheEquivalenceTest : public ::testing::TestWithParam<int>
{
};

TEST_P(CacheEquivalenceTest, RandomStreamsMatchReferenceLru)
{
    CacheParams p;
    p.associativity = GetParam();
    p.lineBytes = 64;
    p.sizeBytes = 8 * p.lineBytes
        * static_cast<std::uint64_t>(p.associativity);  // 8 sets
    // Addresses start at 2^40, past the default physical span.
    const Addr base = Addr{1} << 40;
    Cache c(p, base + base / 2);
    ReferenceCache ref(p);
    Rng rng(static_cast<std::uint64_t>(p.associativity));
    // Twice as many distinct lines per set as ways, so hits, clean
    // and dirty evictions and invalid ways all recur; offsets inside
    // the line and high address bits exercise the tag split.
    const std::uint64_t lines =
        2 * 8 * static_cast<std::uint64_t>(p.associativity);
    for (int step = 0; step < 200000; ++step) {
        const Addr paddr = base + rng.below(lines) * 64
            + rng.below(64);
        const std::uint64_t op = rng.below(100);
        if (op < 15) {
            // The hit-only path: access() on a hit, a no-op on a miss.
            const bool w = rng.bernoulli(0.3);
            if (ref.contains(paddr)) {
                ASSERT_TRUE(c.accessHit(paddr, w)) << step;
                ASSERT_TRUE(ref.access(paddr, w).hit) << step;
            } else {
                ASSERT_FALSE(c.accessHit(paddr, w)) << step;
            }
        } else if (op < 55) {
            const bool w = rng.bernoulli(0.3);
            const auto got = c.access(paddr, w);
            const auto want = ref.access(paddr, w);
            ASSERT_EQ(got.hit, want.hit) << step;
            ASSERT_EQ(got.victimValid, want.victimValid) << step;
            ASSERT_EQ(got.victimDirty, want.victimDirty) << step;
            ASSERT_EQ(got.victimAddr, want.victimAddr) << step;
        } else if (op < 75) {
            const bool d = rng.bernoulli(0.5);
            const auto got = c.insert(paddr, d);
            const auto want = ref.insert(paddr, d);
            ASSERT_EQ(got.hit, want.hit) << step;
            ASSERT_EQ(got.victimValid, want.victimValid) << step;
            ASSERT_EQ(got.victimDirty, want.victimDirty) << step;
            ASSERT_EQ(got.victimAddr, want.victimAddr) << step;
        } else if (op < 87) {
            ASSERT_EQ(c.invalidate(paddr), ref.invalidate(paddr))
                << step;
        } else if (op < 99) {
            ASSERT_EQ(c.contains(paddr), ref.contains(paddr)) << step;
        } else if (rng.below(20) == 0) {
            c.reset();
            ref.reset();
        }
        ASSERT_EQ(c.accesses(), ref.accesses) << step;
        ASSERT_EQ(c.misses(), ref.misses) << step;
        ASSERT_EQ(c.writebacks(), ref.writebacks) << step;
    }
}

INSTANTIATE_TEST_SUITE_P(Associativities, CacheEquivalenceTest,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

TEST(CacheTest, BadParamsAreFatal)
{
    CacheParams p = tiny();
    p.lineBytes = 65;
    EXPECT_THROW(Cache{p}, FatalError);

    p = tiny();
    p.associativity = 0;
    EXPECT_THROW(Cache{p}, FatalError);

    p = tiny();
    p.sizeBytes = 384;  // 3 sets: not a power of two
    EXPECT_THROW(Cache{p}, FatalError);

    // LRU ranks are one byte: at most 255 ways.
    p = tiny();
    p.associativity = 256;
    p.sizeBytes = 256 * 64;
    EXPECT_THROW(Cache{p}, FatalError);
    p.associativity = 255;
    p.sizeBytes = 255 * 64;  // one set
    EXPECT_NO_THROW((Cache{p, Addr{1} << 30}));

    // Keys are 32-bit: the tiny cache's 8 offset+index bits leave a
    // 2^40-byte space 32 tag bits, one too many (tag + 1 must fit).
    p = tiny();
    EXPECT_THROW((Cache{p, Addr{1} << 40}), FatalError);
    EXPECT_NO_THROW((Cache{p, (Addr{1} << 40) - 256}));
}

} // namespace
} // namespace refsched::cache
