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

TEST_P(RngBernoulliTest, CutMatchesRealCompareForEveryDraw)
{
    // bits53() < bernoulliCut(p) must equal real() < p: check the
    // draws around the cut exactly and a random stream draw for draw.
    const double p = GetParam();
    const std::uint64_t cut = Rng::bernoulliCut(p);
    const std::uint64_t top = std::uint64_t{1} << 53;
    for (std::uint64_t d = 0; d < 5; ++d) {
        for (const std::uint64_t k : {cut + d, cut - d - 1, d, top - 1 - d}) {
            if (k >= top)
                continue;
            EXPECT_EQ(k < cut, static_cast<double>(k) * 0x1.0p-53 < p)
                << "p=" << p << " k=" << k;
        }
    }
    Rng a(99), b(99);
    for (int i = 0; i < 10000; ++i)
        ASSERT_EQ(a.bernoulli(p), b.bits53() < cut) << i;
}

INSTANTIATE_TEST_SUITE_P(Probabilities, RngBernoulliTest,
                         ::testing::Values(0.0, 0.1, 0.35, 0.5, 0.9,
                                           1.0, 0.04, 0.3));

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

/**
 * The threshold scan GeometricGapTable used before its bucket index,
 * kept verbatim as the reference the lookup must match draw for draw.
 */
class ScanGapTable
{
  public:
    explicit ScanGapTable(double p) : logQ_(std::log1p(-p))
    {
        for (std::size_t j = 0; j < GeometricGapTable::kMaxEntries; ++j) {
            const double mj =
                std::exp(static_cast<double>(j + 1) * logQ_);
            edges_.push_back(Edge{mj * (1.0 + GeometricGapTable::kGuard),
                                  mj * (1.0 - GeometricGapTable::kGuard)});
            if (edges_.back().above < 0x1.0p-53)
                return;
        }
        edges_.clear();
    }

    std::size_t entries() const { return edges_.size(); }

    std::uint64_t
    gap(double u, std::uint64_t maxGap) const
    {
        const double m = 1.0 - u;
        const std::size_t n =
            edges_.size() < maxGap ? edges_.size() : maxGap;
        for (std::size_t j = 0; j < n; ++j) {
            if (m > edges_[j].above)
                return j;
            if (m >= edges_[j].below)
                return GeometricGapTable::reference(u, logQ_, maxGap);
        }
        return n == maxGap ? maxGap
                           : GeometricGapTable::reference(u, logQ_, maxGap);
    }

  private:
    struct Edge
    {
        double above;
        double below;
    };

    double logQ_;
    std::vector<Edge> edges_;
};

constexpr std::uint64_t kClamps[] = {4096, 50, 3, 1, 0};

/** Draw indices within @p radius draws of m = @p m (m = 1 - u). */
std::vector<std::uint64_t>
drawsAround(double m, std::uint64_t radius)
{
    const double kCenter = std::round((1.0 - m) * 0x1.0p53);
    const std::uint64_t c = kCenter < static_cast<double>(kLastDraw)
        ? static_cast<std::uint64_t>(std::max(kCenter, 0.0))
        : kLastDraw;
    std::vector<std::uint64_t> ks;
    for (std::uint64_t k = c > radius ? c - radius : 0;
         k <= std::min(c + radius, kLastDraw); ++k)
        ks.push_back(k);
    return ks;
}

/** Every bucket boundary m = 2^e * (1 + k/16) in [2^-53, 1]. */
std::vector<double>
bucketBoundaries()
{
    std::vector<double> ms;
    for (int e = -53; e <= 0; ++e) {
        for (int k = 0; k < 16; ++k) {
            const double m = std::ldexp(1.0 + k / 16.0, e);
            if (m <= 1.0)
                ms.push_back(m);
        }
    }
    return ms;
}

/** Asserts the lookup, the scan and libm agree on draw @p k. */
void
expectAllAgree(const GeometricGapTable &t, const ScanGapTable &scan,
               double p, std::uint64_t k)
{
    const double u = drawOf(k);
    const double logQ = std::log1p(-p);
    for (std::uint64_t maxGap : kClamps) {
        const std::uint64_t got = t.gap(u, maxGap);
        ASSERT_EQ(got, scan.gap(u, maxGap))
            << "p=" << p << " k=" << k << " maxGap=" << maxGap;
        ASSERT_EQ(got, GeometricGapTable::reference(u, logQ, maxGap))
            << "p=" << p << " k=" << k << " maxGap=" << maxGap;
    }
}

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

TEST_P(GeometricGapExactnessTest, MatchesLibmAroundEveryBucketBoundary)
{
    const double p = GetParam();
    GeometricGapTable t;
    t.build(p);
    const ScanGapTable scan(p);
    for (double m : bucketBoundaries()) {
        for (std::uint64_t k : drawsAround(m, 4))
            expectAllAgree(t, scan, p, k);
    }
    // Both ends of u: m = 1 and m = 2^-53.
    expectAllAgree(t, scan, p, 0);
    expectAllAgree(t, scan, p, kLastDraw);
}

TEST_P(GeometricGapExactnessTest, MatchesTheThresholdScanDrawForDraw)
{
    const double p = GetParam();
    GeometricGapTable t;
    t.build(p);
    const ScanGapTable scan(p);
    ASSERT_EQ(t.entries(), scan.entries());
    Rng r(0x5CA11);
    for (int i = 0; i < 1'000'000; ++i) {
        const double u = r.real();
        for (std::uint64_t maxGap : kClamps) {
            ASSERT_EQ(t.gap(u, maxGap), scan.gap(u, maxGap))
                << "p=" << p << " u=" << u << " maxGap=" << maxGap;
        }
    }
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

TEST(GeometricGapTableTest, MatchesTheThresholdScanForEveryRegime)
{
    // Tabled fractions from near the cut-off to a one-entry table,
    // then two that keep the libm path; one table object is rebuilt
    // across them, as Rng::geometric does on a phase switch.
    GeometricGapTable t;
    for (double p : {0.14, 0.2, 0.3, 0.35, 0.4, 0.45, 0.6, 0.9, 0.1,
                     0.001}) {
        t.build(p);
        const ScanGapTable scan(p);
        ASSERT_EQ(t.entries(), scan.entries()) << p;
        Rng r(23);
        for (int i = 0; i < 200'000; ++i)
            expectAllAgree(t, scan, p, r.next() >> 11);
        const double logQ = std::log1p(-p);
        for (std::size_t j = 0; j < scan.entries(); ++j) {
            const double mj =
                std::exp(static_cast<double>(j + 1) * logQ);
            for (std::uint64_t k : drawsAround(mj, 2048))
                expectAllAgree(t, scan, p, k);
        }
        for (double m : bucketBoundaries()) {
            for (std::uint64_t k : drawsAround(m, 4))
                expectAllAgree(t, scan, p, k);
        }
    }
}

TEST(GeometricGapTableTest, BucketIndexCountsEveryGuardExactly)
{
    // The bucket lookup against a brute-force count of the upper
    // guards, at each guard itself, its neighbouring doubles, every
    // bucket boundary and random m; a miscounted lead_ would still
    // give exact gaps through the libm fallback, only slower.
    for (double p : {0.14, 0.3, 0.45, 0.9}) {
        GeometricGapTable t;
        t.build(p);
        const double logQ = std::log1p(-p);
        std::vector<double> guards;
        for (std::size_t j = 0; j < t.entries(); ++j) {
            guards.push_back(
                std::exp(static_cast<double>(j + 1) * logQ)
                * (1.0 + GeometricGapTable::kGuard));
        }
        auto count = [&](double m) {
            return static_cast<std::size_t>(
                std::count_if(guards.begin(), guards.end(),
                              [m](double a) { return a >= m; }));
        };
        std::vector<double> ms = bucketBoundaries();
        for (double a : guards) {
            ms.push_back(a);
            ms.push_back(std::nextafter(a, 0.0));
            ms.push_back(std::nextafter(a, 2.0));
        }
        Rng r(31);
        for (int i = 0; i < 100'000; ++i)
            ms.push_back(1.0 - r.real());
        for (double m : ms) {
            if (m < 0x1.0p-53 || m > 1.0)
                continue;
            ASSERT_EQ(t.guardsAbove(m), count(m)) << "p=" << p << " m=" << m;
        }
    }
}

TEST(GeometricGapTableTest, LargestTableReachesTheLastBucket)
{
    // The smallest tabled p: bisect for the cut-off below which the
    // table would need more than kMaxEntries thresholds.
    double lo = 0.1, hi = 0.2;
    for (int i = 0; i < 100; ++i) {
        const double mid = 0.5 * (lo + hi);
        GeometricGapTable probe;
        probe.build(mid);
        (probe.entries() > 0 ? hi : lo) = mid;
    }
    GeometricGapTable t;
    t.build(hi);
    ASSERT_EQ(t.entries(), GeometricGapTable::kMaxEntries) << hi;
    const ScanGapTable scan(hi);
    // m = 2^-53 lies in the lowest bucket, under all but the last
    // guard: its count reaches 255.
    EXPECT_EQ(t.guardsAbove(0x1.0p-53), 255u);
    EXPECT_EQ(t.guardsAbove(0x1.1p-53), 255u);
    EXPECT_EQ(t.gap(drawOf(kLastDraw), 4096), 255u);
    expectAllAgree(t, scan, hi, kLastDraw);
    expectAllAgree(t, scan, hi, 0);
    Rng r(29);
    for (int i = 0; i < 200'000; ++i)
        expectAllAgree(t, scan, hi, r.next() >> 11);
    for (double m : bucketBoundaries()) {
        for (std::uint64_t k : drawsAround(m, 4))
            expectAllAgree(t, scan, hi, k);
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
