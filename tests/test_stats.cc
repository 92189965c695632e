/**
 * @file
 * Unit tests for the statistics framework.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "sim/stats.hh"

using namespace fugu;

namespace
{

TEST(StatsTest, ScalarAccumulates)
{
    StatGroup root("root");
    Scalar s(&root, "count", "a counter");
    s += 2;
    ++s;
    EXPECT_DOUBLE_EQ(s.value(), 3.0);
    s.set(7);
    EXPECT_DOUBLE_EQ(s.value(), 7.0);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(StatsTest, DistributionTracksMoments)
{
    StatGroup root("root");
    Distribution d(&root, "lat", "latency");
    d.sample(10);
    d.sample(30);
    d.sample(20);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 20.0);
    EXPECT_DOUBLE_EQ(d.minValue(), 10.0);
    EXPECT_DOUBLE_EQ(d.maxValue(), 30.0);
}

TEST(StatsTest, EmptyDistributionIsZero)
{
    StatGroup root("root");
    Distribution d(&root, "lat", "latency");
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.minValue(), 0.0);
    EXPECT_DOUBLE_EQ(d.maxValue(), 0.0);
}

TEST(StatsTest, PrintUsesHierarchicalNames)
{
    StatGroup root("machine");
    StatGroup child("node0", &root);
    Scalar s(&child, "msgs", "messages");
    s += 42;
    std::ostringstream os;
    root.print(os);
    EXPECT_NE(os.str().find("machine.node0.msgs 42"), std::string::npos);
}

TEST(StatsTest, ResetAllRecurses)
{
    StatGroup root("root");
    StatGroup child("c", &root);
    Scalar a(&root, "a", "");
    Scalar b(&child, "b", "");
    a += 1;
    b += 2;
    root.resetAll();
    EXPECT_DOUBLE_EQ(a.value(), 0.0);
    EXPECT_DOUBLE_EQ(b.value(), 0.0);
}

TEST(StatsTest, HistogramPercentilesBracketTheRank)
{
    StatGroup root("root");
    Histogram h(&root, "lat", "latency");
    for (int i = 1; i <= 1000; ++i)
        h.sample(i);
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_DOUBLE_EQ(h.minValue(), 1.0);
    EXPECT_DOUBLE_EQ(h.maxValue(), 1000.0);
    EXPECT_DOUBLE_EQ(h.mean(), 500.5);
    // Log-bucketed: a percentile reports its bucket's upper edge, so
    // it may overshoot the exact rank value by at most one sub-bucket
    // (25%) and never undershoots.
    const double p50 = h.percentile(50);
    EXPECT_GE(p50, 500.0);
    EXPECT_LE(p50, 625.0);
    // The tail is clamped to the exact observed max.
    EXPECT_DOUBLE_EQ(h.percentile(99), 1000.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 1000.0);
}

TEST(StatsTest, HistogramResetAndEmpty)
{
    StatGroup root("root");
    Histogram h(&root, "lat", "latency");
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
    h.sample(42);
    EXPECT_DOUBLE_EQ(h.percentile(50), 42.0); // clamped to max
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(99), 0.0);
    EXPECT_DOUBLE_EQ(h.maxValue(), 0.0);
}

TEST(StatsTest, HistogramDegenerateSamplesStayFinite)
{
    // Regression: NaN used to fall through `v < 1.0` into a
    // float-to-uint64 cast (UB), and a single NaN sample poisoned
    // sum/min/max forever. +inf and values >= 2^64 hit the same
    // cast. All of these must land in a bucket and keep every
    // aggregate finite; UBSan in CI guards the cast itself.
    StatGroup root("root");
    Histogram h(&root, "lat", "latency");
    h.sample(std::numeric_limits<double>::quiet_NaN());
    h.sample(std::numeric_limits<double>::infinity());
    h.sample(-std::numeric_limits<double>::infinity());
    h.sample(-5.0);
    h.sample(1e300);
    h.sample(0x1p64);
    h.sample(12.0);
    EXPECT_EQ(h.count(), 7u);
    EXPECT_TRUE(std::isfinite(h.mean()));
    EXPECT_TRUE(std::isfinite(h.minValue()));
    EXPECT_TRUE(std::isfinite(h.maxValue()));
    EXPECT_DOUBLE_EQ(h.minValue(), 0.0); // NaN/negatives clamp to 0
    EXPECT_DOUBLE_EQ(h.maxValue(), 0x1p63); // top clamp
    for (double p : {50.0, 95.0, 99.0, 100.0})
        EXPECT_TRUE(std::isfinite(h.percentile(p))) << p;
    // Ordinary samples still behave after the degenerate ones.
    h.sample(12.0);
    EXPECT_TRUE(std::isfinite(h.percentile(50)));
}

/** The shift-loop bucketOf that HistogramData replaced, as reference. */
unsigned
referenceBucketOf(double v)
{
    constexpr unsigned kSub = HistogramData::kSub;
    constexpr unsigned kBuckets = HistogramData::kBuckets;
    if (!(v >= 1.0))
        return 0;
    if (v >= 0x1p64)
        return kBuckets - 1;
    const auto x = static_cast<std::uint64_t>(v);
    unsigned octave = 0;
    for (std::uint64_t t = x; t > 1; t >>= 1)
        ++octave;
    const unsigned sub =
        octave >= 2
            ? static_cast<unsigned>((x >> (octave - 2)) & (kSub - 1))
            : static_cast<unsigned>((x << (2 - octave)) & (kSub - 1));
    const unsigned b = octave * kSub + sub;
    return b < kBuckets ? b : kBuckets - 1;
}

TEST(StatsTest, HistogramBucketOfMatchesShiftLoop)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> points = {
        0.0, -0.0, -1.0, -kInf, std::numeric_limits<double>::quiet_NaN(),
        0.5, 1.0, 1.5, 2.75, 7.9, kInf, 0x1p64, 1e19, 1e300,
        std::nextafter(0x1p64, 0.0),
    };
    for (unsigned k = 0; k <= 63; ++k) {
        const std::uint64_t p = std::uint64_t{1} << k;
        const double edge = std::ldexp(1.0, static_cast<int>(k));
        for (double v : {static_cast<double>(p - 1), static_cast<double>(p),
                         static_cast<double>(p + 1),
                         std::nextafter(edge, 0.0),
                         std::nextafter(edge, kInf)})
            points.push_back(v);
    }
    for (double v : points)
        EXPECT_EQ(HistogramData::bucketOf(v), referenceBucketOf(v)) << v;
}

TEST(StatsTest, HistogramMergeEqualsConcatenation)
{
    // Merging two populations must yield exactly the histogram of
    // their concatenation — that is what lets runTrials fold
    // per-trial latency distributions without losing percentiles.
    HistogramData a, b, both;
    for (int i = 1; i <= 500; ++i) {
        a.sample(i);
        both.sample(i);
    }
    for (int i = 2000; i <= 2300; ++i) {
        b.sample(i);
        both.sample(i);
    }
    HistogramData merged = a;
    merged.merge(b);
    EXPECT_EQ(merged, both);
    EXPECT_EQ(merged.count, 801u);
    EXPECT_DOUBLE_EQ(merged.minValue(), 1.0);
    EXPECT_DOUBLE_EQ(merged.maxValue(), 2300.0);
    for (double p : {50.0, 95.0, 99.0})
        EXPECT_DOUBLE_EQ(merged.percentile(p), both.percentile(p));
}

TEST(StatsTest, HistogramMergeEmptyCases)
{
    HistogramData a, empty;
    a.sample(7);
    HistogramData m = a;
    m.merge(empty); // no-op
    EXPECT_EQ(m, a);
    HistogramData e2;
    e2.merge(a); // into empty == copy
    EXPECT_EQ(e2, a);
    HistogramData e3;
    e3.merge(empty);
    EXPECT_EQ(e3.count, 0u);
    EXPECT_DOUBLE_EQ(e3.percentile(50), 0.0);
}

TEST(StatsTest, HistogramWrapperMergeMatchesData)
{
    StatGroup root("root");
    Histogram h(&root, "lat", "latency");
    Histogram g(&root, "lat2", "latency");
    h.sample(10);
    g.sample(1000);
    g.sample(3000);
    h.merge(g);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.maxValue(), 3000.0);
    Histogram h2(&root, "lat3", "latency");
    h2.sample(10);
    h2.merge(g.data());
    EXPECT_EQ(h2.data(), h.data());
}

TEST(StatsTest, ChildGroupMayBeDestroyedFirst)
{
    StatGroup root("root");
    {
        StatGroup child("c", &root);
        Scalar b(&child, "b", "");
        b += 2;
    }
    std::ostringstream os;
    root.print(os); // must not touch the destroyed child
    EXPECT_EQ(os.str().find("c.b"), std::string::npos);
}

} // namespace
