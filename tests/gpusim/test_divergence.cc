/**
 * @file
 * Tests for the SIMT-divergence extension op.
 */

#include <gtest/gtest.h>

#include "gpusim/machine.hh"

namespace syncperf::gpusim
{
namespace
{

sim::Tick
runPaths(int paths, LaunchConfig launch, long iters = 50)
{
    GpuKernel k;
    k.body = {paths <= 1 ? GpuOp::alu() : GpuOp::divergentAlu(paths)};
    k.body_iters = iters;
    GpuMachine machine(GpuConfig::rtx4090());
    const auto r = machine.run(k, launch, 1);
    sim::Tick max = 0;
    for (auto c : r.warp_cycles)
        max = std::max(max, c);
    return max;
}

TEST(Divergence, CostGrowsLinearlyWithPaths)
{
    const auto p1 = runPaths(1, {1, 32});
    const auto p2 = runPaths(2, {1, 32});
    const auto p4 = runPaths(4, {1, 32});
    const auto p8 = runPaths(8, {1, 32});
    // Per-path increments are equal (constant divergence cost).
    EXPECT_EQ(p2 - p1, (p4 - p2) / 2);
    EXPECT_EQ(p4 - p2, (p8 - p4) / 2);
    EXPECT_GT(p2, p1);
}

TEST(Divergence, SinglePathEqualsPlainAlu)
{
    EXPECT_EQ(runPaths(1, {1, 32}),
              [] {
                  GpuKernel k;
                  k.body = {GpuOp::divergentAlu(1)};
                  k.body_iters = 50;
                  GpuMachine machine(GpuConfig::rtx4090());
                  const auto r = machine.run(k, {1, 32}, 1);
                  sim::Tick max = 0;
                  for (auto c : r.warp_cycles)
                      max = std::max(max, c);
                  return max;
              }());
}

TEST(Divergence, CostIndependentOfBlockCount)
{
    EXPECT_EQ(runPaths(8, {1, 64}), runPaths(8, {64, 64}));
}

TEST(Divergence, StatsCountPaths)
{
    GpuKernel k;
    k.body = {GpuOp::divergentAlu(4)};
    k.body_iters = 10;
    GpuMachine machine(GpuConfig::rtx4090());
    machine.run(k, {1, 32}, 1);
    // (1 warmup + 10 timed) iterations x 4 paths.
    EXPECT_EQ(machine.stats().get("gpu.divergent_paths"), 44u);
}

} // namespace
} // namespace syncperf::gpusim
