/**
 * @file
 * Tests for primitive descriptors and sweep helpers.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/primitives.hh"
#include "core/sweep.hh"

namespace syncperf::core
{
namespace
{

TEST(Primitives, NamesAreStable)
{
    EXPECT_EQ(ompPrimitiveName(OmpPrimitive::Barrier), "omp barrier");
    EXPECT_EQ(ompPrimitiveName(OmpPrimitive::Flush), "omp flush");
    EXPECT_EQ(cudaPrimitiveName(CudaPrimitive::SyncThreads),
              "__syncthreads()");
    EXPECT_EQ(cudaPrimitiveName(CudaPrimitive::AtomicCas),
              "atomicCAS()");
}

TEST(Primitives, TypelessClassification)
{
    EXPECT_TRUE(cudaPrimitiveIsTypeless(CudaPrimitive::SyncWarp));
    EXPECT_TRUE(cudaPrimitiveIsTypeless(CudaPrimitive::ThreadFence));
    EXPECT_FALSE(cudaPrimitiveIsTypeless(CudaPrimitive::AtomicAdd));
    EXPECT_FALSE(cudaPrimitiveIsTypeless(CudaPrimitive::ShflSync));
}

TEST(Primitives, CasHasNoFloatFlavor)
{
    EXPECT_TRUE(
        cudaPrimitiveSupports(CudaPrimitive::AtomicCas, DataType::Int32));
    EXPECT_TRUE(cudaPrimitiveSupports(CudaPrimitive::AtomicCas,
                                      DataType::UInt64));
    EXPECT_FALSE(cudaPrimitiveSupports(CudaPrimitive::AtomicCas,
                                       DataType::Float32));
    EXPECT_FALSE(cudaPrimitiveSupports(CudaPrimitive::AtomicExch,
                                       DataType::Float64));
    EXPECT_TRUE(
        cudaPrimitiveSupports(CudaPrimitive::AtomicAdd, DataType::Float64));
}

TEST(Sweep, OmpThreadCountsCoverTwoToMax)
{
    const auto ts = ompThreadCounts(8);
    EXPECT_EQ(ts.front(), 2);
    EXPECT_EQ(ts.back(), 8);
    EXPECT_EQ(ts.size(), 7u);
}

TEST(Sweep, OmpThreadCountsWithStepAlwaysIncludeMax)
{
    const auto ts = ompThreadCounts(32, 5);
    EXPECT_EQ(ts.front(), 2);
    EXPECT_EQ(ts.back(), 32);
    for (std::size_t i = 1; i < ts.size(); ++i)
        EXPECT_GT(ts[i], ts[i - 1]);
}

TEST(Sweep, CudaThreadCountsArePowersOfTwo)
{
    const auto ts = cudaThreadCounts(1024);
    EXPECT_EQ(ts.front(), 2);
    EXPECT_EQ(ts.back(), 1024);
    EXPECT_EQ(ts.size(), 10u);
    for (std::size_t i = 1; i < ts.size(); ++i)
        EXPECT_EQ(ts[i], 2 * ts[i - 1]);
    // The quick sweep keeps every other power of two and the maximum.
    EXPECT_EQ(cudaThreadCounts(1024, 2),
              (std::vector<int>{2, 8, 32, 128, 512, 1024}));
}

TEST(Sweep, CudaBlockCountsMatchPaper)
{
    // 1, 2, half, full, double for the RTX 4090's 128 SMs.
    EXPECT_EQ(cudaBlockCounts(128),
              (std::vector<int>{1, 2, 64, 128, 256}));
}

TEST(Sweep, CudaBlockCountsDeduplicateSmallDevices)
{
    // sm_count = 2: {1, 2, 1, 2, 4} -> {1, 2, 4}.
    EXPECT_EQ(cudaBlockCounts(2), (std::vector<int>{1, 2, 4}));
}

TEST(Sweep, CudaBlockCountsDropZeroHalf)
{
    // sm_count = 1: half rounds to 0 and must be dropped.
    EXPECT_EQ(cudaBlockCounts(1), (std::vector<int>{1, 2}));
}

TEST(Sweep, InvalidArgumentsPanic)
{
    ScopedLogCapture capture;
    EXPECT_THROW(ompThreadCounts(1), LogDeathException);
    EXPECT_THROW(ompThreadCounts(8, 0), LogDeathException);
    EXPECT_THROW(cudaThreadCounts(1), LogDeathException);
    EXPECT_THROW(cudaThreadCounts(1024, 0), LogDeathException);
    EXPECT_THROW(cudaBlockCounts(0), LogDeathException);
}

} // namespace
} // namespace syncperf::core
