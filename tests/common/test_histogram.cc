/**
 * @file
 * Unit tests for the log2-bucket histogram: bucket boundaries,
 * aggregate accessors, merge associativity, and equality semantics.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/histogram.hh"

namespace syncperf
{
namespace
{

TEST(Histogram, BucketIndexBoundaries)
{
    EXPECT_EQ(Histogram::bucketIndex(0), 0);
    EXPECT_EQ(Histogram::bucketIndex(1), 1);
    EXPECT_EQ(Histogram::bucketIndex(2), 2);
    EXPECT_EQ(Histogram::bucketIndex(3), 2);
    EXPECT_EQ(Histogram::bucketIndex(4), 3);
    EXPECT_EQ(Histogram::bucketIndex(7), 3);
    EXPECT_EQ(Histogram::bucketIndex(8), 4);
    EXPECT_EQ(Histogram::bucketIndex(1023), 10);
    EXPECT_EQ(Histogram::bucketIndex(1024), 11);
    EXPECT_EQ(Histogram::bucketIndex(~std::uint64_t{0}), 64);
}

TEST(Histogram, BucketBoundsPartitionTheDomain)
{
    // Every bucket's [low, high] range must be exactly the values
    // bucketIndex maps to it, with no gaps between buckets.
    for (int i = 0; i <= 64; ++i) {
        const std::uint64_t low = Histogram::bucketLow(i);
        const std::uint64_t high = Histogram::bucketHigh(i);
        EXPECT_LE(low, high) << "bucket " << i;
        EXPECT_EQ(Histogram::bucketIndex(low), i) << "bucket " << i;
        EXPECT_EQ(Histogram::bucketIndex(high), i) << "bucket " << i;
        if (i > 0) {
            EXPECT_EQ(Histogram::bucketHigh(i - 1) + 1, low)
                << "gap below bucket " << i;
        }
    }
    EXPECT_EQ(Histogram::bucketHigh(64), ~std::uint64_t{0});
}

TEST(Histogram, EmptyAggregates)
{
    const Histogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, RecordTracksAggregates)
{
    Histogram h;
    h.record(5);
    h.record(100);
    h.record(0);
    h.record(7);
    EXPECT_FALSE(h.empty());
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 112u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 28.0);
}

TEST(Histogram, PerBucketMinMaxAreWithinBounds)
{
    Histogram h;
    h.record(5);
    h.record(6);
    h.record(7);
    const auto &bs = h.buckets();
    ASSERT_GT(bs.size(), 3u);
    EXPECT_EQ(bs[3].count, 3u);
    EXPECT_EQ(bs[3].min, 5u);
    EXPECT_EQ(bs[3].max, 7u);
    EXPECT_EQ(bs[3].sum, 18u);
}

TEST(Histogram, MergeMatchesDirectRecording)
{
    const std::vector<std::uint64_t> xs = {0, 1, 1, 9, 300, 1 << 20};
    Histogram direct;
    Histogram a, b;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        direct.record(xs[i]);
        (i % 2 == 0 ? a : b).record(xs[i]);
    }
    a.merge(b);
    EXPECT_EQ(a, direct);
}

TEST(Histogram, MergeIsAssociativeAndCommutative)
{
    Histogram a, b, c;
    a.record(3);
    a.record(70);
    b.record(4);
    c.record(900);
    c.record(0);

    // (a + b) + c
    Histogram left = a;
    left.merge(b);
    left.merge(c);
    // a + (b + c)
    Histogram bc = b;
    bc.merge(c);
    Histogram right = a;
    right.merge(bc);
    EXPECT_EQ(left, right);

    // c + (b + a)
    Histogram ba = b;
    ba.merge(a);
    Histogram swapped = c;
    swapped.merge(ba);
    EXPECT_EQ(left, swapped);
}

TEST(Histogram, MergeIntoEmptyCopies)
{
    Histogram a;
    a.record(42);
    Histogram empty;
    empty.merge(a);
    EXPECT_EQ(empty, a);
    a.merge(Histogram{});
    EXPECT_EQ(empty, a);
}

TEST(Histogram, EqualityIgnoresTrailingEmptyBuckets)
{
    Histogram a;
    a.record(1 << 10); // grows storage to bucket 11
    a.clear();
    a.record(3);
    Histogram b;
    b.record(3);
    EXPECT_EQ(a, b);

    b.record(3);
    EXPECT_FALSE(a == b);
}

TEST(Histogram, SetBucketRoundTripsSerializedBuckets)
{
    Histogram original;
    original.record(17);
    original.record(1000);
    original.record(1001);

    // Rebuild from the nonzero buckets only, as a deserializer does.
    Histogram rebuilt;
    const auto &bs = original.buckets();
    for (std::size_t i = 0; i < bs.size(); ++i) {
        if (bs[i].count != 0)
            rebuilt.setBucket(static_cast<int>(i), bs[i]);
    }
    EXPECT_EQ(rebuilt, original);
    EXPECT_EQ(rebuilt.count(), 3u);
    EXPECT_EQ(rebuilt.sum(), original.sum());
}

} // namespace
} // namespace syncperf
