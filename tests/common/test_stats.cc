/**
 * @file
 * Unit tests for summary statistics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"

namespace syncperf
{
namespace
{

TEST(Median, OddCount)
{
    const std::vector<double> v{5.0, 1.0, 3.0};
    EXPECT_DOUBLE_EQ(median(v), 3.0);
}

TEST(Median, EvenCountAveragesCenter)
{
    const std::vector<double> v{4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(median(v), 2.5);
}

TEST(Median, SingleElement)
{
    const std::vector<double> v{7.5};
    EXPECT_DOUBLE_EQ(median(v), 7.5);
}

TEST(Median, DoesNotMutateInput)
{
    std::vector<double> v{9.0, 1.0, 5.0};
    (void)median(v);
    EXPECT_EQ(v, (std::vector<double>{9.0, 1.0, 5.0}));
}

TEST(Median, DuplicateValues)
{
    const std::vector<double> v{2.0, 2.0, 2.0, 9.0};
    EXPECT_DOUBLE_EQ(median(v), 2.0);
}

TEST(Median, NegativeValues)
{
    const std::vector<double> v{-3.0, -1.0, -2.0};
    EXPECT_DOUBLE_EQ(median(v), -2.0);
}

TEST(Median, EmptyInputPanics)
{
    ScopedLogCapture capture;
    EXPECT_THROW((void)median(std::vector<double>{}), LogDeathException);
}

TEST(MedianInPlace, AgreesWithMedianOnOddAndEvenCounts)
{
    std::vector<double> odd{5.0, 1.0, 3.0};
    std::vector<double> even{4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(medianInPlace(odd), 3.0);
    EXPECT_DOUBLE_EQ(medianInPlace(even), 2.5);
}

TEST(MedianInPlace, MayPermuteButKeepsTheMultiset)
{
    std::vector<double> v{9.0, 1.0, 5.0, 3.0, 7.0};
    std::vector<double> sorted_before = v;
    std::sort(sorted_before.begin(), sorted_before.end());
    EXPECT_DOUBLE_EQ(medianInPlace(v), 5.0);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted_before);
}

TEST(MedianInPlace, EmptyInputPanics)
{
    ScopedLogCapture capture;
    std::vector<double> v;
    EXPECT_THROW((void)medianInPlace(v), LogDeathException);
}

TEST(MedianInPlace, AgreesWithMedianOnRandomizedSamples)
{
    // median() copies into scratch and defers to medianInPlace, so
    // the two must agree on every input shape.
    std::vector<double> v;
    for (int n = 1; n <= 33; ++n) {
        v.push_back(static_cast<double>((n * 7919) % 101));
        std::vector<double> copy = v;
        EXPECT_DOUBLE_EQ(medianInPlace(copy), median(v)) << "n=" << n;
    }
}

TEST(MeanStddev, ConstantSample)
{
    const std::vector<double> v{4.0, 4.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(v), 4.0);
    EXPECT_DOUBLE_EQ(stddev(v), 0.0);
}

TEST(MeanStddev, KnownSample)
{
    const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    EXPECT_DOUBLE_EQ(mean(v), 5.0);
    EXPECT_DOUBLE_EQ(stddev(v), 2.0);
}

TEST(MinMax, Basic)
{
    const std::vector<double> v{3.0, -2.0, 8.0};
    EXPECT_DOUBLE_EQ(minOf(v), -2.0);
    EXPECT_DOUBLE_EQ(maxOf(v), 8.0);
}

TEST(MaxOf, EmptyInputPanics)
{
    ScopedLogCapture capture;
    EXPECT_THROW((void)maxOf(std::vector<double>{}), LogDeathException);
}

TEST(Percentile, Endpoints)
{
    const std::vector<double> v{10.0, 20.0, 30.0, 40.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 40.0);
}

TEST(Percentile, Interpolates)
{
    const std::vector<double> v{0.0, 10.0};
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
}

TEST(Percentile, MedianAgreesWithMedianFunction)
{
    const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), median(v));
}

TEST(Summarize, EmptyGivesZeros)
{
    const Summary s = summarize({});
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Summarize, PopulatesAllFields)
{
    const std::vector<double> v{1.0, 2.0, 3.0};
    const Summary s = summarize(v);
    EXPECT_EQ(s.count, 3u);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 3.0);
    EXPECT_DOUBLE_EQ(s.mean, 2.0);
    EXPECT_DOUBLE_EQ(s.median, 2.0);
}

TEST(RunningStat, MatchesBatchStats)
{
    const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    RunningStat rs;
    for (double x : v)
        rs.add(x);
    EXPECT_EQ(rs.count(), v.size());
    EXPECT_NEAR(rs.mean(), mean(v), 1e-12);
    EXPECT_NEAR(rs.stddev(), stddev(v), 1e-12);
    EXPECT_DOUBLE_EQ(rs.min(), 2.0);
    EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat rs;
    EXPECT_EQ(rs.count(), 0u);
    EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
    EXPECT_DOUBLE_EQ(rs.stddev(), 0.0);
}

TEST(RunningStat, ResetClears)
{
    RunningStat rs;
    rs.add(5.0);
    rs.reset();
    EXPECT_EQ(rs.count(), 0u);
    EXPECT_DOUBLE_EQ(rs.max(), 0.0);
}

} // namespace
} // namespace syncperf
