/**
 * @file
 * Tests for the gpusim measurement target (kernel construction and
 * end-to-end measurements).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "core/gpusim_target.hh"

namespace syncperf::core
{
namespace
{

MeasurementConfig
fastConfig()
{
    auto cfg = MeasurementConfig::simGpuDefaults();
    cfg.runs = 1;
    cfg.attempts = 1;
    cfg.n_iter = 10;
    cfg.n_unroll = 2;
    return cfg;
}

TEST(GpuSimTargetKernels, TestHasOneMorePrimitive)
{
    CudaExperiment exp;
    exp.primitive = CudaPrimitive::SyncThreads;
    const auto pair = GpuSimTarget::buildKernels(exp, 20);
    EXPECT_EQ(pair.baseline.body.size(), 1u);
    EXPECT_EQ(pair.test.body.size(), 2u);
    EXPECT_EQ(pair.baseline.body_iters, 20);
    EXPECT_EQ(pair.test.body_iters, 20);
}

TEST(GpuSimTargetKernels, FenceKernelsShareStoresAndDifferByFence)
{
    CudaExperiment exp;
    exp.primitive = CudaPrimitive::ThreadFence;
    exp.location = Location::PrivateArray;
    const auto pair = GpuSimTarget::buildKernels(exp, 10);
    EXPECT_EQ(pair.baseline.body.size(), 2u);
    ASSERT_EQ(pair.test.body.size(), 3u);
    EXPECT_EQ(pair.test.body[1].kind, gpusim::GpuOpKind::Fence);
    EXPECT_EQ(pair.test.body[1].scope, gpusim::FenceScope::Device);
}

TEST(GpuSimTargetKernels, FenceScopesMapped)
{
    CudaExperiment exp;
    exp.primitive = CudaPrimitive::ThreadFenceBlock;
    auto pair = GpuSimTarget::buildKernels(exp, 1);
    EXPECT_EQ(pair.test.body[1].scope, gpusim::FenceScope::Block);
    exp.primitive = CudaPrimitive::ThreadFenceSystem;
    pair = GpuSimTarget::buildKernels(exp, 1);
    EXPECT_EQ(pair.test.body[1].scope, gpusim::FenceScope::System);
}

TEST(GpuSimTargetKernels, AtomicAddUsesAddressModeFromLocation)
{
    CudaExperiment exp;
    exp.primitive = CudaPrimitive::AtomicAdd;
    exp.location = Location::PrivateArray;
    exp.stride = 32;
    const auto pair = GpuSimTarget::buildKernels(exp, 1);
    EXPECT_EQ(pair.baseline.body[0].amode,
              gpusim::AddressMode::PerThread);
    EXPECT_EQ(pair.baseline.body[0].stride, 32);
}

TEST(GpuSimTargetKernels, CasOnFloatPanics)
{
    CudaExperiment exp;
    exp.primitive = CudaPrimitive::AtomicCas;
    exp.dtype = DataType::Float32;
    ScopedLogCapture capture;
    EXPECT_THROW(GpuSimTarget::buildKernels(exp, 1), LogDeathException);
}

TEST(GpuSimTarget, PaperBlockCountsForEachDevice)
{
    GpuSimTarget t4090(gpusim::GpuConfig::rtx4090(), fastConfig());
    EXPECT_EQ(t4090.paperBlockCounts(),
              (std::vector<int>{1, 2, 64, 128, 256}));
    GpuSimTarget ta100(gpusim::GpuConfig::a100(), fastConfig());
    EXPECT_EQ(ta100.paperBlockCounts(),
              (std::vector<int>{1, 2, 54, 108, 216}));
}

TEST(GpuSimTarget, SyncWarpMeasurementIsPositive)
{
    GpuSimTarget target(gpusim::GpuConfig::rtx4090(), fastConfig());
    CudaExperiment exp;
    exp.primitive = CudaPrimitive::SyncWarp;
    const auto m = target.measure(exp, {2, 64});
    EXPECT_GT(m.per_op_seconds, 0.0);
}

TEST(GpuSimTarget, ThroughputUsesDeviceClock)
{
    // A syncwarp costs syncwarp_latency cycles; throughput should be
    // close to clock / latency.
    auto cfg = gpusim::GpuConfig::rtx4090();
    GpuSimTarget target(cfg, fastConfig());
    CudaExperiment exp;
    exp.primitive = CudaPrimitive::SyncWarp;
    const auto m = target.measure(exp, {1, 32});
    const double expected =
        cfg.clock_ghz * 1e9 /
        static_cast<double>(cfg.syncwarp_latency + cfg.issue_ii);
    EXPECT_NEAR(m.opsPerSecondPerThread(), expected, 0.2 * expected);
}

TEST(GpuSimTarget, DeterministicAcrossSeedsWithoutJitter)
{
    GpuSimTarget a(gpusim::GpuConfig::rtx4090(), fastConfig(), 1);
    GpuSimTarget b(gpusim::GpuConfig::rtx4090(), fastConfig(), 42);
    CudaExperiment exp;
    exp.primitive = CudaPrimitive::AtomicAdd;
    EXPECT_DOUBLE_EQ(a.measure(exp, {2, 64}).per_op_seconds,
                     b.measure(exp, {2, 64}).per_op_seconds);
}

TEST(GpuSimTarget, BlockFenceMeasuresAsNearlyFree)
{
    GpuSimTarget target(gpusim::GpuConfig::rtx4090(), fastConfig());
    CudaExperiment fence_block;
    fence_block.primitive = CudaPrimitive::ThreadFenceBlock;
    fence_block.location = Location::PrivateArray;
    CudaExperiment fence_dev;
    fence_dev.primitive = CudaPrimitive::ThreadFence;
    fence_dev.location = Location::PrivateArray;
    const auto mb = target.measure(fence_block, {1, 64});
    const auto md = target.measure(fence_dev, {1, 64});
    EXPECT_LT(mb.per_op_seconds, 0.1 * md.per_op_seconds);
}

TEST(GpuSimTarget, MeasuresTheSlowestWarp)
{
    // Ten 250-thread blocks on two 512-thread SMs run in three waves,
    // each block ending in a 26-lane warp, so the warps of a launch
    // finish at different ticks. The measured cost must be the
    // difference of the slowest warps of direct runs that consume
    // the target's seeds (baseline first, then test).
    auto cfg = gpusim::GpuConfig::rtx4090();
    cfg.sm_count = 2;
    cfg.max_threads_per_sm = 512;
    const auto mcfg = fastConfig();
    const gpusim::LaunchConfig launch{10, 250};
    CudaExperiment exp;
    exp.primitive = CudaPrimitive::AtomicAdd;

    GpuSimTarget target(cfg, mcfg, 7);
    const auto m = target.measure(exp, launch);
    ASSERT_TRUE(m.valid);
    ASSERT_EQ(m.retries, 0);

    const auto pair =
        GpuSimTarget::buildKernels(exp, mcfg.opsPerMeasurement());
    const auto slowest = [&](const gpusim::GpuKernel &k,
                             std::uint64_t seed) {
        gpusim::GpuMachine machine(cfg, seed);
        const auto r = machine.run(k, launch, mcfg.n_warmup);
        EXPECT_LT(std::ranges::min(r.warp_cycles),
                  std::ranges::max(r.warp_cycles));
        return static_cast<double>(std::ranges::max(r.warp_cycles)) /
               (cfg.clock_ghz * 1e9);
    };
    const double b = slowest(pair.baseline, 7);
    const double t = slowest(pair.test, 8);
    EXPECT_EQ(m.per_op_seconds,
              (t - b) / static_cast<double>(mcfg.opsPerMeasurement()));
}

} // namespace
} // namespace syncperf::core
