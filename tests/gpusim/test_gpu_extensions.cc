/**
 * @file
 * Tests for the GPU-model extension features: the warp-aggregation
 * ablation switch and the cooperative grid-wide barrier.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "gpusim/machine.hh"

namespace syncperf::gpusim
{
namespace
{

GpuKernel
kernelOf(std::vector<GpuOp> body, long iters = 30)
{
    GpuKernel k;
    k.body = std::move(body);
    k.body_iters = iters;
    return k;
}

TEST(WarpAggregationAblation, DisablingUsesPerLaneRequests)
{
    GpuConfig cfg = GpuConfig::rtx4090();
    cfg.enable_warp_aggregation = false;
    GpuMachine machine(cfg);
    machine.run(kernelOf({GpuOp::globalAtomic(
                    AtomicOp::Add, AddressMode::SingleShared, 0x1000)}),
                {1, 32}, 1);
    EXPECT_GT(machine.stats().get("gpu.atomic_unaggregated"), 0u);
    EXPECT_EQ(machine.stats().get("gpu.atomic_aggregated"), 0u);
}

TEST(WarpAggregationAblation, AggregationSpeedsUpFullWarps)
{
    const GpuKernel k = kernelOf({GpuOp::globalAtomic(
        AtomicOp::Add, AddressMode::SingleShared, 0x1000)});

    GpuConfig on = GpuConfig::rtx4090();
    GpuConfig off = on;
    off.enable_warp_aggregation = false;

    GpuMachine m_on(on);
    GpuMachine m_off(off);
    const auto with = m_on.run(k, {4, 256}, 1).total_cycles;
    const auto without = m_off.run(k, {4, 256}, 1).total_cycles;
    EXPECT_GT(without, 2 * with)
        << "32 per-lane requests must cost far more than 1 aggregated";
}

TEST(WarpAggregationAblation, SingleLaneUnaffected)
{
    // With one active lane there is nothing to aggregate; the two
    // settings must agree.
    const GpuKernel k = kernelOf({GpuOp::globalAtomic(
        AtomicOp::Add, AddressMode::SingleShared, 0x1000,
        DataType::Int32, 1, Predicate::Lane0)});
    GpuConfig on = GpuConfig::rtx4090();
    GpuConfig off = on;
    off.enable_warp_aggregation = false;
    GpuMachine m_on(on);
    GpuMachine m_off(off);
    EXPECT_EQ(m_on.run(k, {1, 32}, 1).total_cycles,
              m_off.run(k, {1, 32}, 1).total_cycles);
}

TEST(GridSync, SynchronizesResidentGrid)
{
    GpuConfig cfg = GpuConfig::rtx4090();
    GpuMachine machine(cfg);
    const auto result =
        machine.run(kernelOf({GpuOp::gridSync()}, 10), {8, 128}, 1);
    EXPECT_EQ(machine.stats().get("gpu.grid_sync"), 11u * 1u)
        << "one release per (warmup + timed) iteration";
    // Every warp of the grid runs the same number of barriers, so
    // all timed regions have identical length.
    for (auto c : result.warp_cycles)
        EXPECT_EQ(c, result.warp_cycles.front());
}

TEST(GridSync, CostGrowsWithBlockCount)
{
    GpuConfig cfg = GpuConfig::rtx4090();
    GpuMachine a(cfg);
    GpuMachine b(cfg);
    const auto few =
        a.run(kernelOf({GpuOp::gridSync()}, 20), {2, 64}, 1).total_cycles;
    const auto many =
        b.run(kernelOf({GpuOp::gridSync()}, 20), {64, 64}, 1)
            .total_cycles;
    EXPECT_GT(many, few);
}

TEST(GridSync, NonResidentGridIsFatal)
{
    GpuConfig cfg = GpuConfig::rtx4090();
    cfg.sm_count = 2;  // 8 blocks of 1024 threads cannot be resident
    GpuMachine machine(cfg);
    ScopedLogCapture capture;
    EXPECT_THROW(
        machine.run(kernelOf({GpuOp::gridSync()}), {8, 1024}, 1),
        LogDeathException);
}

TEST(GridSync, MoreExpensiveThanBlockSync)
{
    GpuConfig cfg = GpuConfig::rtx4090();
    GpuMachine a(cfg);
    GpuMachine b(cfg);
    const auto grid =
        a.run(kernelOf({GpuOp::gridSync()}, 20), {16, 256}, 1)
            .total_cycles;
    const auto block =
        b.run(kernelOf({GpuOp::syncThreads()}, 20), {16, 256}, 1)
            .total_cycles;
    EXPECT_GT(grid, block);
}

} // namespace
} // namespace syncperf::gpusim
