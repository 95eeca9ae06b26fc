/** @file Unit tests for the deterministic RNG. */

#include "simcore/rng.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <set>
#include <vector>

namespace refsched
{
namespace
{

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(12345), b(12345);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(RngTest, ReseedRestartsSequence)
{
    Rng a(77);
    const auto first = a.next();
    a.next();
    a.reseed(77);
    EXPECT_EQ(a.next(), first);
}

TEST(RngTest, BelowStaysInBounds)
{
    Rng r(9);
    for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL, 1ULL << 40}) {
        for (int i = 0; i < 200; ++i)
            ASSERT_LT(r.below(bound), bound);
    }
}

TEST(RngTest, BelowCoversSmallRange)
{
    Rng r(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(r.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, InRangeInclusive)
{
    Rng r(4);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 200; ++i) {
        const auto v = r.inRange(10, 12);
        ASSERT_GE(v, 10u);
        ASSERT_LE(v, 12u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 3u);
}

TEST(RngTest, RealInUnitInterval)
{
    Rng r(5);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double v = r.real();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

class RngBernoulliTest : public ::testing::TestWithParam<double>
{
};

TEST_P(RngBernoulliTest, MatchesProbability)
{
    const double p = GetParam();
    Rng r(42);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += r.bernoulli(p);
    EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, RngBernoulliTest,
                         ::testing::Values(0.0, 0.1, 0.35, 0.5, 0.9,
                                           1.0));

class RngGeometricTest : public ::testing::TestWithParam<double>
{
};

TEST_P(RngGeometricTest, MeanMatchesTheory)
{
    const double p = GetParam();
    Rng r(7);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(r.geometric(p));
    const double expected = (1.0 - p) / p;
    EXPECT_NEAR(sum / n, expected, expected * 0.1 + 0.05);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, RngGeometricTest,
                         ::testing::Values(0.1, 0.3, 0.5, 0.9));

TEST(RngTest, GeometricEdgeCases)
{
    Rng r(8);
    EXPECT_EQ(r.geometric(1.0), 0u);
    EXPECT_EQ(r.geometric(0.0, 500), 500u);
    for (int i = 0; i < 100; ++i)
        ASSERT_LE(r.geometric(0.001, 50), 50u);
}

/** The draw u = k * 2^-53; Rng::real() produces only these. */
double
drawOf(std::uint64_t k)
{
    return static_cast<double>(k) * 0x1.0p-53;
}

constexpr std::uint64_t kLastDraw = (1ULL << 53) - 1;

/** Table-2 memOpFraction values: each gets a threshold table. */
class GeometricGapExactnessTest : public ::testing::TestWithParam<double>
{
};

TEST_P(GeometricGapExactnessTest, MatchesLibmOnRandomDraws)
{
    const double p = GetParam();
    GeometricGapTable t;
    t.build(p);
    ASSERT_GT(t.entries(), 0u);
    ASSERT_LE(t.entries(), GeometricGapTable::kMaxEntries);
    const double logQ = std::log1p(-p);
    Rng r(0xC0FFEE);
    for (int i = 0; i < 10'000'000; ++i) {
        const double u = r.real();
        ASSERT_EQ(t.gap(u, 4096),
                  GeometricGapTable::reference(u, logQ, 4096))
            << "p=" << p << " u=" << u;
    }
}

TEST_P(GeometricGapExactnessTest, MatchesLibmAroundEveryBinEdge)
{
    const double p = GetParam();
    GeometricGapTable t;
    t.build(p);
    const double logQ = std::log1p(-p);
    const std::uint64_t window = 1ULL << 16;
    for (std::size_t j = 0; j < t.entries(); ++j) {
        // m = 1 - u crosses M_j = q^(j+1) at k = (1 - M_j) * 2^53.
        const double mj = std::exp(static_cast<double>(j + 1) * logQ);
        const double kEdge = (1.0 - mj) * 0x1.0p53;
        const std::uint64_t edge =
            kEdge < static_cast<double>(kLastDraw)
            ? static_cast<std::uint64_t>(kEdge)
            : kLastDraw;
        const std::uint64_t lo = edge > window ? edge - window : 0;
        const std::uint64_t hi = std::min(edge + window, kLastDraw);
        // The window straddles the edge: the reference gap grows.
        ASSERT_LT(GeometricGapTable::reference(drawOf(lo), logQ, 4096),
                  GeometricGapTable::reference(drawOf(hi), logQ, 4096))
            << "p=" << p << " j=" << j;
        for (std::uint64_t k = lo; k <= hi; ++k) {
            const double u = drawOf(k);
            for (std::uint64_t maxGap : {4096ULL, 50ULL}) {
                ASSERT_EQ(t.gap(u, maxGap),
                          GeometricGapTable::reference(u, logQ, maxGap))
                    << "p=" << p << " j=" << j << " k=" << k
                    << " maxGap=" << maxGap;
            }
        }
    }
}

TEST_P(GeometricGapExactnessTest, ClampsAtMaxGap)
{
    const double p = GetParam();
    GeometricGapTable t;
    t.build(p);
    const double logQ = std::log1p(-p);
    // The extreme draws: m = 1 (gap 0) and m = 2^-53 (the longest
    // gap, past a clamp of 50 for every Table-2 fraction).
    const std::uint64_t extremes[] = {0, 1, kLastDraw - 1, kLastDraw};
    for (std::uint64_t maxGap : {0ULL, 1ULL, 50ULL, 4096ULL}) {
        for (std::uint64_t k : extremes) {
            EXPECT_EQ(t.gap(drawOf(k), maxGap),
                      GeometricGapTable::reference(drawOf(k), logQ,
                                                   maxGap))
                << "k=" << k << " maxGap=" << maxGap;
        }
    }
    EXPECT_EQ(t.gap(drawOf(kLastDraw), 50), 50u);
    EXPECT_LT(t.gap(drawOf(kLastDraw), 4096), 4096u);
}

INSTANTIATE_TEST_SUITE_P(Table2MemOpFractions, GeometricGapExactnessTest,
                         ::testing::Values(0.30, 0.35, 0.40, 0.45));

TEST(GeometricGapTableTest, SmallPKeepsTheLibmPath)
{
    for (double p : {0.1, 0.001}) {
        GeometricGapTable t;
        t.build(p);
        EXPECT_EQ(t.entries(), 0u) << p;
        const double logQ = std::log1p(-p);
        Rng r(17);
        for (int i = 0; i < 100000; ++i) {
            const double u = r.real();
            for (std::uint64_t maxGap : {4096ULL, 50ULL}) {
                ASSERT_EQ(t.gap(u, maxGap),
                          GeometricGapTable::reference(u, logQ, maxGap))
                    << "p=" << p << " u=" << u;
            }
        }
    }
}

TEST(GeometricGapTableTest, RngDrawsOneRealPerGapAcrossPChanges)
{
    // A macro-phase switch changes p mid-stream; every call must
    // still consume exactly one real() and map it like libm.
    Rng a(99), b(99);
    const double ps[] = {0.30, 0.45, 0.1, 0.35, 0.40, 0.001, 0.30};
    for (double p : ps) {
        const double logQ = std::log1p(-p);
        for (int i = 0; i < 20000; ++i) {
            ASSERT_EQ(a.geometric(p, 4096),
                      GeometricGapTable::reference(b.real(), logQ, 4096))
                << "p=" << p << " i=" << i;
        }
    }
}

TEST(CounterRngTest, PureFunctionOfSeedStreamCounter)
{
    CounterRng a(42, rngstream::kArrival);
    CounterRng b(42, rngstream::kArrival);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
    // mix() is the whole generator: replaying the counter reproduces
    // the sequence with no hidden state.
    for (std::uint64_t i = 0; i < 1000; ++i)
        ASSERT_EQ(CounterRng::mix(42, rngstream::kArrival, i),
                  CounterRng(42, rngstream::kArrival).mix(
                      42, rngstream::kArrival, i));
}

TEST(CounterRngTest, StreamsAreIndependent)
{
    // Same seed, different stream keys: the sequences must be
    // unrelated.  A shared underlying stream (the aliasing bug this
    // guards against) would show up as equal prefixes.
    const std::uint64_t keys[] = {
        rngstream::kArrival, rngstream::kArrivalPhase,
        rngstream::kServingTask, rngstream::kServingAddr};
    for (std::size_t i = 0; i < std::size(keys); ++i) {
        for (std::size_t j = i + 1; j < std::size(keys); ++j) {
            CounterRng a(7, keys[i]), b(7, keys[j]);
            int same = 0;
            for (int k = 0; k < 1000; ++k)
                same += (a.next() == b.next());
            EXPECT_LT(same, 2) << "streams " << i << " and " << j;
        }
    }
}

TEST(CounterRngTest, InterleavingCannotEntangleStreams)
{
    // The property the open-loop injector depends on: draws from one
    // stream never perturb another, no matter the interleaving.
    CounterRng arrivals(5, rngstream::kArrival);
    CounterRng addrs(5, rngstream::kServingAddr);
    std::vector<std::uint64_t> interleaved;
    for (int i = 0; i < 100; ++i) {
        interleaved.push_back(arrivals.next());
        addrs.next();
        addrs.next();
    }
    CounterRng alone(5, rngstream::kArrival);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(interleaved[static_cast<std::size_t>(i)],
                  alone.next());
}

TEST(CounterRngTest, RealInUnitIntervalAndUniform)
{
    CounterRng r(11, rngstream::kServingAddr);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double v = r.real();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(CounterRngTest, BelowStaysInBoundsAndCovers)
{
    CounterRng r(13, rngstream::kServingTask);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 300; ++i) {
        const auto v = r.below(8);
        ASSERT_LT(v, 8u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 8u);
}

} // namespace
} // namespace refsched
