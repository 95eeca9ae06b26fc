/** @file Unit tests for the statistics framework. */

#include "simcore/stats.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "simcore/logging.hh"

namespace refsched
{
namespace
{

TEST(ScalarTest, AccumulatesAndResets)
{
    Scalar s;
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
    s += 2.5;
    ++s;
    s++;
    EXPECT_DOUBLE_EQ(s.value(), 4.5);
    s.set(10.0);
    EXPECT_DOUBLE_EQ(s.value(), 10.0);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(AverageTest, MeanAndCount)
{
    Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(10.0);
    a.sample(20.0);
    a.sample(30.0);
    EXPECT_DOUBLE_EQ(a.mean(), 20.0);
    EXPECT_EQ(a.samples(), 3u);
    EXPECT_DOUBLE_EQ(a.total(), 60.0);
    a.reset();
    EXPECT_EQ(a.samples(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(DistributionTest, BucketsAndOutliers)
{
    Distribution d(0.0, 100.0, 10);
    d.sample(5.0);    // bucket 0
    d.sample(15.0);   // bucket 1
    d.sample(95.0);   // bucket 9
    d.sample(-1.0);   // underflow
    d.sample(100.0);  // overflow (hi is exclusive)
    d.sample(150.0);  // overflow

    EXPECT_EQ(d.samples(), 6u);
    EXPECT_EQ(d.bucketCounts()[0], 1u);
    EXPECT_EQ(d.bucketCounts()[1], 1u);
    EXPECT_EQ(d.bucketCounts()[9], 1u);
    EXPECT_EQ(d.underflowCount(), 1u);
    EXPECT_EQ(d.overflowCount(), 2u);
    EXPECT_DOUBLE_EQ(d.minValue(), -1.0);
    EXPECT_DOUBLE_EQ(d.maxValue(), 150.0);
}

TEST(DistributionTest, MeanTracksAllSamples)
{
    Distribution d(0.0, 10.0, 5);
    d.sample(2.0);
    d.sample(4.0);
    d.sample(100.0);  // overflow still counted in the mean
    EXPECT_DOUBLE_EQ(d.mean(), (2.0 + 4.0 + 100.0) / 3.0);
}

TEST(DistributionTest, QuantileApproximation)
{
    Distribution d(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        d.sample(static_cast<double>(i));
    EXPECT_NEAR(d.quantile(0.5), 50.0, 1.5);
    EXPECT_NEAR(d.quantile(0.9), 90.0, 1.5);
    EXPECT_NEAR(d.quantile(0.99), 99.0, 1.5);
}

TEST(DistributionTest, ResetClearsEverything)
{
    Distribution d(0.0, 10.0, 2);
    d.sample(5.0);
    d.reset();
    EXPECT_EQ(d.samples(), 0u);
    EXPECT_EQ(d.bucketCounts()[1], 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
}

TEST(DistributionTest, BadBoundsPanic)
{
    EXPECT_THROW(Distribution(10.0, 10.0, 4), PanicError);
    EXPECT_THROW(Distribution(0.0, 10.0, 0), PanicError);
}

TEST(HistogramTest, Log2Bucketing)
{
    Histogram h;
    h.sample(0.0);     // bucket 0 (v < 1)
    h.sample(0.9);     // bucket 0
    h.sample(1.0);     // bucket 1: [1, 2)
    h.sample(1.9);     // bucket 1
    h.sample(2.0);     // bucket 2: [2, 4)
    h.sample(3.0);     // bucket 2
    h.sample(4.0);     // bucket 3: [4, 8)
    h.sample(1024.0);  // bucket 11: [1024, 2048)

    EXPECT_EQ(h.samples(), 8u);
    EXPECT_EQ(h.bucketCounts()[0], 2u);
    EXPECT_EQ(h.bucketCounts()[1], 2u);
    EXPECT_EQ(h.bucketCounts()[2], 2u);
    EXPECT_EQ(h.bucketCounts()[3], 1u);
    EXPECT_EQ(h.bucketCounts()[11], 1u);
    EXPECT_DOUBLE_EQ(h.minValue(), 0.0);
    EXPECT_DOUBLE_EQ(h.maxValue(), 1024.0);
}

TEST(HistogramTest, BucketEdges)
{
    EXPECT_DOUBLE_EQ(Histogram::bucketLo(0), 0.0);
    EXPECT_DOUBLE_EQ(Histogram::bucketHi(0), 1.0);
    EXPECT_DOUBLE_EQ(Histogram::bucketLo(1), 1.0);
    EXPECT_DOUBLE_EQ(Histogram::bucketHi(1), 2.0);
    EXPECT_DOUBLE_EQ(Histogram::bucketLo(11), 1024.0);
    EXPECT_DOUBLE_EQ(Histogram::bucketHi(11), 2048.0);
}

TEST(HistogramTest, NegativeAndHugeSamplesAreNotLost)
{
    Histogram h;
    h.sample(-5.0);   // clamps into bucket 0
    h.sample(1e30);   // clamps into the top bucket
    EXPECT_EQ(h.samples(), 2u);
    EXPECT_EQ(h.bucketCounts()[0], 1u);
    EXPECT_EQ(h.bucketCounts()[Histogram::kNumBuckets - 1], 1u);
    EXPECT_DOUBLE_EQ(h.minValue(), -5.0);
}

TEST(HistogramTest, SamplesAtAndPastTwoToThe63LandInTheTopBucket)
{
    // Bucket 64 is [2^63, 2^64); finding it must not shift a 64-bit
    // one by 64.
    Histogram h;
    h.sample(std::ldexp(1.0, 63));
    h.sample(std::nextafter(std::ldexp(1.0, 64), 0.0));
    h.sample(18446744073709551615.0);  // 2^64 - 1
    EXPECT_EQ(h.bucketCounts()[64], 3u);
    EXPECT_EQ(h.bucketCounts()[63], 0u);
}

TEST(HistogramTest, QuantileInterpolation)
{
    Histogram h;
    for (int i = 0; i < 1000; ++i)
        h.sample(static_cast<double>(i));
    // Log2 buckets are coarse; the quantile must land in the right
    // bucket (within a factor of two), not at an exact value.
    const double p50 = h.quantile(0.5);
    EXPECT_GE(p50, 256.0);
    EXPECT_LE(p50, 1024.0);
    EXPECT_LE(h.quantile(0.99), 1024.0);
    // q=1 covers the whole population: at least the true max, at
    // most the upper edge of the max's bucket.
    EXPECT_GE(h.quantile(1.0), h.maxValue());
    EXPECT_LE(h.quantile(1.0), 1024.0);
}

TEST(HistogramTest, QuantileClampsToObservedExtrema)
{
    // Regression: interpolation inside a log2 bucket used to ignore
    // the observed min/max.  A single sample of 1025 lands in bucket
    // 11 [1024, 2048); every quantile of that population is 1025,
    // but the old code reported the bucket's lower edge (1024, below
    // the minimum sample) for any q.
    Histogram one;
    one.sample(1025.0);
    for (const double q : {0.0, 0.5, 0.95, 0.99, 0.999, 1.0})
        EXPECT_DOUBLE_EQ(one.quantile(q), 1025.0) << "q=" << q;

    // Two samples in the same wide bucket: the old interpolation
    // reported p99 = 1536, above the maximum sample ever recorded.
    Histogram two;
    two.sample(1024.0);
    two.sample(1025.0);
    EXPECT_LE(two.quantile(0.99), two.maxValue());
    EXPECT_LE(two.quantile(0.999), two.maxValue());
    EXPECT_GE(two.quantile(0.0), two.minValue());
    EXPECT_GE(two.quantile(0.5), two.minValue());
}

TEST(HistogramTest, QuantileOverflowBucketStaysBounded)
{
    // The top bucket's upper edge is effectively unbounded (2^64);
    // quantiles falling there must clamp to the observed maximum
    // rather than interpolate toward the edge.
    Histogram h;
    h.sample(5.0);
    h.sample(1e30);  // overflow bucket
    EXPECT_LE(h.quantile(0.99), h.maxValue());
    EXPECT_LE(h.quantile(0.999), h.maxValue());
    EXPECT_DOUBLE_EQ(h.quantile(1.0), h.maxValue());
}

TEST(HistogramTest, JsonRendersTailQuantiles)
{
    Histogram h;
    h.sample(100.0);
    const std::string json = h.renderJson();
    EXPECT_NE(json.find("\"p95\": 100"), std::string::npos);
    EXPECT_NE(json.find("\"p999\": 100"), std::string::npos);
}

TEST(HistogramTest, ResetClearsEverything)
{
    Histogram h;
    h.sample(42.0);
    h.reset();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.bucketCounts()[6], 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.maxValue(), 0.0);
}

TEST(HistogramTest, JsonRenderingIsSparse)
{
    Histogram h;
    h.sample(3.0);
    h.sample(3.0);
    const std::string json = h.renderJson();
    EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
    EXPECT_NE(json.find("[2, 2]"), std::string::npos);
    // Only one occupied bucket pair in the sparse encoding.
    EXPECT_EQ(json.find("[0, "), std::string::npos);
}

TEST(StatRegistryTest, AddFindAndDump)
{
    StatRegistry reg;
    Scalar a, b;
    a += 3;
    b += 7;
    reg.add("mc.reads", &a);
    reg.add("mc.writes", &b);
    EXPECT_EQ(reg.size(), 2u);
    EXPECT_EQ(reg.find("mc.reads"), &a);
    EXPECT_EQ(reg.find("nope"), nullptr);

    std::ostringstream os;
    reg.dump(os);
    EXPECT_EQ(os.str(), "mc.reads 3\nmc.writes 7\n");
}

TEST(StatRegistryTest, DuplicateNameIsFatal)
{
    StatRegistry reg;
    Scalar a, b;
    reg.add("x", &a);
    EXPECT_THROW(reg.add("x", &b), FatalError);
}

TEST(StatRegistryTest, NullStatPanics)
{
    StatRegistry reg;
    EXPECT_THROW(reg.add("x", nullptr), PanicError);
}

TEST(StatRegistryTest, ResetAllResetsEveryStat)
{
    StatRegistry reg;
    Scalar s;
    Average a;
    s += 5;
    a.sample(1.0);
    reg.add("s", &s);
    reg.add("a", &a);
    reg.resetAll();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
    EXPECT_EQ(a.samples(), 0u);
}

TEST(StatRegistryTest, DumpJsonRendersEveryStatType)
{
    StatRegistry reg;
    Scalar s;
    Average a;
    Distribution d(0.0, 10.0, 2);
    Histogram h;
    s += 3;
    a.sample(4.0);
    d.sample(5.0);
    h.sample(6.0);
    reg.add("scalar", &s);
    reg.add("avg", &a);
    reg.add("dist", &d);
    reg.add("hist", &h);

    std::ostringstream os;
    reg.dumpJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"scalar\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"avg\": {\"mean\": 4"), std::string::npos);
    EXPECT_NE(json.find("\"dist\": {\"mean\": 5"), std::string::npos);
    EXPECT_NE(json.find("\"hist\": {\"mean\": 6"), std::string::npos);
    // Keys are emitted sorted (std::map order).
    EXPECT_LT(json.find("\"avg\""), json.find("\"dist\""));
    EXPECT_LT(json.find("\"dist\""), json.find("\"hist\""));
    EXPECT_LT(json.find("\"hist\""), json.find("\"scalar\""));
}

TEST(StatRegistryTest, EmptyRegistryDumpsEmptyObject)
{
    StatRegistry reg;
    std::ostringstream os;
    reg.dumpJson(os);
    EXPECT_EQ(os.str(), "{}");
}

} // namespace
} // namespace refsched
