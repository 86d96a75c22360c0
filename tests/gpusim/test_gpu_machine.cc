/**
 * @file
 * Unit and behavioral tests for the SIMT GPU timing machine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/logging.hh"
#include "gpusim/machine.hh"

namespace syncperf::gpusim
{
namespace
{

GpuConfig
testGpu()
{
    GpuConfig c = GpuConfig::rtx4090();
    c.name = "test gpu";
    return c;
}

GpuKernel
bodyKernel(std::vector<GpuOp> body, long iters = 40)
{
    GpuKernel k;
    k.body = std::move(body);
    k.body_iters = iters;
    return k;
}

/** Mean timed cycles per body iteration across all warps. */
double
cyclesPerIteration(GpuMachine &machine, const GpuKernel &kernel,
                   LaunchConfig launch, int warmup = 2)
{
    const auto result = machine.run(kernel, launch, warmup);
    double sum = 0.0;
    for (auto c : result.warp_cycles)
        sum += static_cast<double>(c);
    return sum / static_cast<double>(result.warp_cycles.size()) /
           static_cast<double>(kernel.body_iters);
}

TEST(GpuMachine, RunsToCompletion)
{
    GpuMachine machine(testGpu());
    const auto result =
        machine.run(bodyKernel({GpuOp::alu()}), {2, 64}, 1);
    EXPECT_EQ(result.warp_cycles.size(), 4u);
    EXPECT_GT(result.total_cycles, 0u);
}

TEST(GpuMachine, Deterministic)
{
    const GpuKernel k = bodyKernel(
        {GpuOp::globalAtomic(AtomicOp::Add, AddressMode::SingleShared,
                             0x1000)});
    GpuMachine a(testGpu(), 3);
    GpuMachine b(testGpu(), 3);
    EXPECT_EQ(a.run(k, {4, 128}, 2).warp_cycles,
              b.run(k, {4, 128}, 2).warp_cycles);
}

TEST(GpuMachine, PartialWarpsGetLanesClamped)
{
    GpuMachine machine(testGpu());
    const auto result = machine.run(bodyKernel({GpuOp::alu()}), {1, 40}, 1);
    // 40 threads = one full warp + one 8-lane warp.
    EXPECT_EQ(result.warp_cycles.size(), 2u);
}

TEST(GpuMachine, RunResultHasOneEntryPerWarp)
{
    // The paper's largest geometry on the 2070: 80 blocks of 1024
    // threads is 81,920 threads in 2,560 warps, one entry each.
    GpuMachine machine(GpuConfig::rtx2070Super());
    const auto result =
        machine.run(bodyKernel({GpuOp::alu()}, 4), {80, 1024}, 1);
    EXPECT_EQ(result.warp_cycles.size(), 2560u);
}

TEST(GpuMachine, SyncThreadsConstantUpToOneWarp)
{
    const GpuKernel k = bodyKernel({GpuOp::syncThreads()});
    GpuMachine m2(testGpu());
    GpuMachine m32(testGpu());
    const double c2 = cyclesPerIteration(m2, k, {1, 2});
    const double c32 = cyclesPerIteration(m32, k, {1, 32});
    EXPECT_DOUBLE_EQ(c2, c32);
}

TEST(GpuMachine, SyncThreadsSlowsWithWarps)
{
    const GpuKernel k = bodyKernel({GpuOp::syncThreads()});
    GpuMachine m1(testGpu());
    GpuMachine m8(testGpu());
    const double c32 = cyclesPerIteration(m1, k, {1, 32});
    const double c256 = cyclesPerIteration(m8, k, {1, 256});
    EXPECT_GT(c256, 2.0 * c32);
}

TEST(GpuMachine, SyncThreadsIndependentOfBlockCount)
{
    const GpuKernel k = bodyKernel({GpuOp::syncThreads()});
    GpuMachine m1(testGpu());
    GpuMachine m64(testGpu());
    const double one = cyclesPerIteration(m1, k, {1, 256});
    const double many = cyclesPerIteration(m64, k, {64, 256});
    EXPECT_DOUBLE_EQ(one, many);
}

TEST(GpuMachine, SyncWarpFullSpeedUntilIssueSaturates)
{
    const GpuKernel k = bodyKernel({GpuOp::syncWarp()});
    // RTX 4090 preset: full rate up to 256 threads per SM.
    GpuMachine a(testGpu());
    GpuMachine b(testGpu());
    GpuMachine c(testGpu());
    const double c64 = cyclesPerIteration(a, k, {1, 64});
    const double c256 = cyclesPerIteration(b, k, {1, 256});
    const double c1024 = cyclesPerIteration(c, k, {1, 1024});
    // A startup transient of a cycle or two is tolerated; the knee
    // itself must be unambiguous.
    EXPECT_NEAR(c64, c256, 0.02 * c64);
    EXPECT_GT(c1024, 1.5 * c256);
}

TEST(GpuMachine, WarpAggregationCollapsesSameAddressAdds)
{
    const GpuKernel k = bodyKernel({GpuOp::globalAtomic(
        AtomicOp::Add, AddressMode::SingleShared, 0x1000)});
    GpuMachine machine(testGpu());
    machine.run(k, {1, 32}, 1);
    EXPECT_GT(machine.stats().get("gpu.atomic_aggregated"), 0u);
    EXPECT_EQ(machine.stats().get("gpu.atomic_per_thread"), 0u);
}

TEST(GpuMachine, AggregatedAddConstantWithinTwoWarpsPerSm)
{
    const GpuKernel k = bodyKernel({GpuOp::globalAtomic(
        AtomicOp::Add, AddressMode::SingleShared, 0x1000)});
    GpuMachine a(testGpu());
    GpuMachine b(testGpu());
    GpuMachine c(testGpu());
    const double one_warp = cyclesPerIteration(a, k, {1, 32});
    const double two_warps = cyclesPerIteration(b, k, {1, 64});
    const double four_warps = cyclesPerIteration(c, k, {1, 128});
    EXPECT_NEAR(one_warp, two_warps, 0.02 * one_warp);
    EXPECT_GT(four_warps, 1.5 * two_warps);
}

TEST(GpuMachine, CasNeverAggregates)
{
    const GpuKernel k = bodyKernel({GpuOp::globalAtomic(
        AtomicOp::Cas, AddressMode::SingleShared, 0x1000)});
    GpuMachine machine(testGpu());
    machine.run(k, {1, 32}, 1);
    EXPECT_EQ(machine.stats().get("gpu.atomic_aggregated"), 0u);
    EXPECT_GT(machine.stats().get("gpu.atomic_cas_like"), 0u);
}

TEST(GpuMachine, CasConstantUpToPipelineLanes)
{
    const GpuKernel k = bodyKernel({GpuOp::globalAtomic(
        AtomicOp::Cas, AddressMode::SingleShared, 0x1000)});
    GpuMachine a(testGpu());
    GpuMachine b(testGpu());
    GpuMachine c(testGpu());
    const double c1 = cyclesPerIteration(a, k, {1, 2});
    const double c4 = cyclesPerIteration(b, k, {1, 4});
    const double c32 = cyclesPerIteration(c, k, {1, 32});
    EXPECT_NEAR(c1, c4, 0.05 * c1);
    EXPECT_GT(c32, 2.0 * c4);
}

TEST(GpuMachine, PerThreadAtomicsUseUnits)
{
    const GpuKernel k = bodyKernel({GpuOp::globalAtomic(
        AtomicOp::Add, AddressMode::PerThread, 0x100000,
        DataType::Int32, 32)});
    GpuMachine machine(testGpu());
    machine.run(k, {1, 64}, 1);
    EXPECT_GT(machine.stats().get("gpu.atomic_per_thread"), 0u);
    EXPECT_EQ(machine.stats().get("gpu.atomic_aggregated"), 0u);
}

TEST(GpuMachine, IntAtomicsFasterThanDoubleAtScale)
{
    auto kernelFor = [](DataType t) {
        return bodyKernel({GpuOp::globalAtomic(
            AtomicOp::Add, AddressMode::SingleShared, 0x1000, t)});
    };
    GpuMachine mi(testGpu());
    GpuMachine md(testGpu());
    const double ci =
        cyclesPerIteration(mi, kernelFor(DataType::Int32), {64, 256});
    const double cd =
        cyclesPerIteration(md, kernelFor(DataType::Float64), {64, 256});
    EXPECT_LT(ci, cd);
}

TEST(GpuMachine, ShflSixtyFourBitCostsTwoMicroOps)
{
    GpuMachine machine(testGpu());
    machine.run(bodyKernel({GpuOp::shfl(DataType::Float64)}), {1, 32}, 1);
    const auto uops64 = machine.stats().get("gpu.shfl_uops");
    GpuMachine machine32(testGpu());
    machine32.run(bodyKernel({GpuOp::shfl(DataType::Int32)}), {1, 32}, 1);
    const auto uops32 = machine32.stats().get("gpu.shfl_uops");
    EXPECT_EQ(uops64, 2 * uops32);
}

TEST(GpuMachine, WideShflKneesAtHalfTheWarpCount)
{
    // 32-bit shuffles run at full speed at 512 threads/SM on the
    // 4090 preset; 64-bit ones have already slowed down.
    auto kernelFor = [](DataType t) {
        return bodyKernel({GpuOp::shfl(t)});
    };
    GpuMachine a(testGpu());
    GpuMachine b(testGpu());
    GpuMachine c(testGpu());
    GpuMachine d(testGpu());
    const double w32_256 =
        cyclesPerIteration(a, kernelFor(DataType::Int32), {1, 256});
    const double w32_512 =
        cyclesPerIteration(b, kernelFor(DataType::Int32), {1, 512});
    const double w64_256 =
        cyclesPerIteration(c, kernelFor(DataType::Float64), {1, 256});
    const double w64_512 =
        cyclesPerIteration(d, kernelFor(DataType::Float64), {1, 512});
    EXPECT_NEAR(w32_256, w32_512, 0.02 * w32_256);
    EXPECT_GT(w64_512, 1.2 * w64_256);
}

TEST(GpuMachine, VoteSlowerThanSyncWarpButFlat)
{
    GpuMachine a(testGpu());
    GpuMachine b(testGpu());
    const double sync =
        cyclesPerIteration(a, bodyKernel({GpuOp::syncWarp()}), {1, 64});
    const double vote =
        cyclesPerIteration(b, bodyKernel({GpuOp::vote()}), {1, 64});
    EXPECT_GT(vote, sync);
}

TEST(GpuMachine, FenceScopesOrderedByCost)
{
    auto kernelFor = [](FenceScope s) {
        return bodyKernel({GpuOp::globalStore(0x100000),
                           GpuOp::fence(s),
                           GpuOp::globalStore(0x200000)});
    };
    GpuMachine mb(testGpu());
    GpuMachine md(testGpu());
    GpuMachine ms(testGpu());
    const double block =
        cyclesPerIteration(mb, kernelFor(FenceScope::Block), {1, 32});
    const double device =
        cyclesPerIteration(md, kernelFor(FenceScope::Device), {1, 32});
    const double system =
        cyclesPerIteration(ms, kernelFor(FenceScope::System), {1, 32});
    EXPECT_LT(block, device);
    EXPECT_LT(device, system);
}

TEST(GpuMachine, SystemFenceJitterIsSeedDependent)
{
    const GpuKernel k = bodyKernel(
        {GpuOp::globalStore(0x100000), GpuOp::fence(FenceScope::System),
         GpuOp::globalStore(0x200000)});
    GpuMachine a(testGpu(), 1);
    GpuMachine b(testGpu(), 2);
    EXPECT_NE(a.run(k, {1, 32}, 1).total_cycles,
              b.run(k, {1, 32}, 1).total_cycles);
}

TEST(GpuMachine, SharedAtomicsStayOnTheSm)
{
    const GpuKernel k = bodyKernel(
        {GpuOp::sharedAtomic(AtomicOp::Max, 0x5000)});
    GpuMachine machine(testGpu());
    machine.run(k, {2, 64}, 1);
    EXPECT_GT(machine.stats().get("gpu.smem_atomic"), 0u);
    EXPECT_EQ(machine.stats().get("gpu.atomic_aggregated"), 0u);
}

TEST(GpuMachine, BlocksScheduleInWaves)
{
    // More blocks than can be resident: every block still runs.
    GpuConfig cfg = testGpu();
    cfg.sm_count = 2;
    GpuMachine machine(cfg);
    const auto result =
        machine.run(bodyKernel({GpuOp::alu()}), {8, 1024}, 1);
    EXPECT_EQ(machine.stats().get("gpu.blocks_launched"), 8u);
    EXPECT_EQ(machine.stats().get("gpu.blocks_retired"), 8u);
    EXPECT_EQ(result.warp_cycles.size(), 8u * 32u);
}

TEST(GpuMachine, ResidencyRespectsThreadLimit)
{
    // 1536 threads/SM on the 4090: two 1024-thread blocks cannot
    // share an SM, so with 1 SM the second block waits.
    GpuConfig cfg = testGpu();
    cfg.sm_count = 1;
    GpuMachine serial(cfg);
    const auto two_blocks =
        serial.run(bodyKernel({GpuOp::alu()}, 100), {2, 1024}, 1);

    GpuMachine parallel_m(cfg);
    const auto one_block =
        parallel_m.run(bodyKernel({GpuOp::alu()}, 100), {1, 1024}, 1);
    EXPECT_GT(two_blocks.total_cycles,
              static_cast<sim::Tick>(1.8 * one_block.total_cycles));
}

TEST(GpuMachine, ReduceSyncRequiresCc80)
{
    GpuConfig turing = GpuConfig::rtx2070Super();
    GpuMachine machine(turing);
    ScopedLogCapture capture;
    EXPECT_THROW(machine.run(bodyKernel({GpuOp::reduceSync()}), {1, 32}, 1),
                 LogDeathException);
}

TEST(GpuMachine, Thread0PredicateRunsOncePerBlock)
{
    const GpuKernel k = bodyKernel({GpuOp::globalAtomic(
        AtomicOp::Max, AddressMode::SingleShared, 0x1000,
        DataType::Int32, 1, Predicate::Thread0)});
    GpuMachine machine(testGpu());
    machine.run(k, {2, 128}, 1);
    // 2 blocks x (1 warmup + 40 timed) iterations, warp 0 only.
    EXPECT_EQ(machine.stats().get("gpu.atomic_aggregated"), 2u * 41u);
}

TEST(GpuMachine, InvalidLaunchPanics)
{
    GpuMachine machine(testGpu());
    ScopedLogCapture capture;
    EXPECT_THROW(machine.run(bodyKernel({GpuOp::alu()}), {0, 32}, 1),
                 LogDeathException);
    EXPECT_THROW(machine.run(bodyKernel({GpuOp::alu()}), {1, 2048}, 1),
                 LogDeathException);
}

TEST(GpuMachine, NoAtomicUnitsIsFatal)
{
    ScopedLogCapture capture;
    for (int units : {0, -1}) {
        GpuConfig cfg = testGpu();
        cfg.l2_atomic_units = units;
        EXPECT_THROW(GpuMachine machine(cfg), LogDeathException);
        ASSERT_FALSE(capture.messages().empty());
        EXPECT_NE(capture.messages().back().second.find("l2_atomic_units"),
                  std::string::npos);
    }
}

/** A kernel touching several decode paths: a same-address atomic, a
 * barrier, a shuffle, and a device fence. */
GpuKernel
imageTestKernel()
{
    return bodyKernel(
        {GpuOp::globalAtomic(AtomicOp::Add, AddressMode::SingleShared,
                             0x1000),
         GpuOp::syncThreads(), GpuOp::shfl(DataType::Int32),
         GpuOp::fence(FenceScope::Device)},
        25);
}

/** Cycles and stats of one launch agree with another's. */
void
expectSameRun(const GpuRunResult &a, const GpuMachine &ma,
              const GpuRunResult &b, const GpuMachine &mb)
{
    EXPECT_EQ(a.warp_cycles, b.warp_cycles);
    EXPECT_EQ(a.total_cycles, b.total_cycles);
    EXPECT_EQ(ma.stats().all(), mb.stats().all());
}

TEST(GpuMachineImage, BuiltImageRunMatchesColdRun)
{
    const GpuKernel k = imageTestKernel();
    GpuMachine cold(testGpu(), 5);
    const auto want = cold.run(k, {4, 128}, 2);

    GpuMachine warm(testGpu(), 5);
    const GpuMachine::DecodedImage image = warm.decode(k);
    expectSameRun(warm.run(image, {4, 128}, 2), warm, want, cold);
    // Replaying the image again stays identical.
    warm.reseed(5);
    expectSameRun(warm.run(image, {4, 128}, 2), warm, want, cold);
}

TEST(GpuMachineImage, ReplaysAcrossReseedsAndGeometries)
{
    // One image of a kernel whose system fence draws PCIe jitter,
    // replayed under interleaved seeds and grids, gives each (seed,
    // grid) exactly what a fresh machine built with that seed gives
    // for the kernel -- and so does the seeded run(kernel).
    GpuKernel k = imageTestKernel();
    k.body.push_back(GpuOp::fence(FenceScope::System));
    GpuMachine machine(testGpu());
    const GpuMachine::DecodedImage image = machine.decode(k);
    const LaunchConfig grids[] = {{4, 128}, {2, 64}, {1, 1024}, {4, 128}};
    std::map<std::uint64_t, std::vector<sim::Tick>> cycles;
    for (const LaunchConfig grid : grids) {
        for (const std::uint64_t s : {3, 11}) {
            SCOPED_TRACE(::testing::Message() << grid.blocks << 'x'
                                              << grid.threads_per_block
                                              << " seed " << s);
            GpuMachine fresh(testGpu(), s);
            const auto want = fresh.run(k, grid, 2);
            machine.reseed(s);
            expectSameRun(machine.run(image, grid, 2), machine, want,
                          fresh);
            expectSameRun(machine.run(k, grid, 2, s), machine, want,
                          fresh);
            if (grid.blocks == 4)
                cycles[s] = want.warp_cycles;
        }
    }
    EXPECT_NE(cycles[3], cycles[11]) << "the jitter never reached the cycles";
}

TEST(GpuMachineImage, RunsOnASecondMachine)
{
    // An image holds no machine state: decoded on one machine, it runs
    // on another of the same config exactly as there.
    const GpuKernel k = imageTestKernel();
    GpuMachine a(testGpu(), 9);
    GpuMachine b(testGpu(), 9);
    const GpuMachine::DecodedImage image = a.decode(k);
    const auto on_a = a.run(image, {4, 128}, 2);
    expectSameRun(b.run(image, {4, 128}, 2), b, on_a, a);
    b.reseed(9);
    expectSameRun(b.run(k, {4, 128}, 2), b, on_a, a);
}

TEST(GpuMachineImage, DtypeMergedShflKernelsShareAFingerprint)
{
    // shfl decodes identically for same-width element types, the GPU
    // half of the launch memo's decode collapse.
    const GpuKernel a = bodyKernel({GpuOp::shfl(DataType::Int32)});
    const GpuKernel b = bodyKernel({GpuOp::shfl(DataType::Float32)});
    const GpuKernel c = bodyKernel({GpuOp::vote()});
    GpuMachine machine(testGpu());
    const auto image_a = machine.decode(a);
    const auto image_b = machine.decode(b);
    EXPECT_NE(image_a.fingerprint, 0u);
    EXPECT_EQ(image_a.fingerprint, image_b.fingerprint);
    EXPECT_NE(image_a.fingerprint, machine.decode(c).fingerprint);

    machine.reseed(5);
    const auto run_a = machine.run(image_a, {2, 64}, 2);
    const auto stats_a = machine.stats().all();
    machine.reseed(5);
    const auto run_b = machine.run(image_b, {2, 64}, 2);
    EXPECT_EQ(run_b.total_cycles, run_a.total_cycles);
    EXPECT_EQ(run_b.warp_cycles, run_a.warp_cycles);
    EXPECT_EQ(machine.stats().all(), stats_a);
}

/**
 * Pinned per-thread atomic timings (Fig. 10's atomicAdd and Fig. 12's
 * value-returning atomicCAS). Each golden folds, with FNV-1a, the
 * per-thread cycles and kernel runtime of eight runs: element size
 * {4, 8} x base {sector-aligned, unaligned} x launch {one block with
 * a partial last warp, a three-wave grid}. Every run is also checked
 * to be identical with loop batching off. At 4 and 8 units, a warp
 * whose lanes sit a whole number of sectors apart folds onto one or
 * two units. A rewrite of the handler must reproduce the goldens
 * exactly; only a deliberate model change re-records them.
 */
constexpr int golden_units[] = {1, 4, 7, 8, 16, 40, 48};
constexpr int golden_strides[] = {0, 1, 3, 8, 32, 33};

// [op: add, cas][units][stride]
constexpr std::uint64_t per_thread_golden[2][7][6] = {
    {{0xf1e2a1643459035d, 0xf1e2a1643459035d, 0xf1e2a1643459035d,
      0xf1e2a1643459035d, 0xf1e2a1643459035d, 0xf1e2a1643459035d},
     {0xf1e2a1643459035d, 0xa19f5cc812a346e9, 0xa19f5cc812a346e9,
      0x4a6d5bd24dd7d589, 0xf1e2a1643459035d, 0xa19f5cc812a346e9},
     {0xf1e2a1643459035d, 0xfbeef91087fd69af, 0x77ca13e138fc1e63,
      0xf546a780d6049af1, 0xf546a780d6049af1, 0x3f0d7be91a4423f},
     {0xf1e2a1643459035d, 0xd640f497ef205949, 0x41a9be2902b50321,
      0x6a9d979016b644e9, 0x63885d0984084035, 0xa2307cc6e2724249},
     {0xf1e2a1643459035d, 0x308221ca4a2f482d, 0xa188acad44337515,
      0x4ecd3811fdb0eef9, 0x4a6d5bd24dd7d589, 0x950869d1662e1797},
     {0xf1e2a1643459035d, 0xe19f89304569cb8d, 0x4570a456c3b84bb5,
      0xafc12498c874e82d, 0xd8a7448b6d14d269, 0xd498ebed15b69201},
     {0xf1e2a1643459035d, 0xe6cee6d6163aab8d, 0x647dae78cd97478d,
      0x4267df8165a3ca5, 0x3e0bbc1d5f186bd, 0xe420108a92815a7d}},
    {{0x9cef89aad9e9c939, 0x9cef89aad9e9c939, 0x9cef89aad9e9c939,
      0x9cef89aad9e9c939, 0x9cef89aad9e9c939, 0x9cef89aad9e9c939},
     {0x9cef89aad9e9c939, 0x52e7628142419125, 0x2b26e0b396640541,
      0x23278737b9c4d219, 0x9cef89aad9e9c939, 0x52e7628142419125},
     {0x9cef89aad9e9c939, 0xdf0980414bda3f5d, 0x915f06cc96c87f9,
      0x87f6ea8756c3b921, 0x87f6ea8756c3b921, 0x5269409d3c7c5e29},
     {0x9cef89aad9e9c939, 0x7b3eb9a4b68e2c9b, 0x43d4c70eb45ee8d,
      0x5cb3aff3827b5739, 0x276e4bd8b16408e5, 0xa7eb0cd4ddb58355},
     {0x9cef89aad9e9c939, 0xf55710883aec840e, 0x6e749c0312916c91,
      0x6af3ba4124269659, 0x23278737b9c4d219, 0xb3c8dc02576a08c5},
     {0x9cef89aad9e9c939, 0xc2d7ec261dc8f176, 0xa7b2cf28abaaba3,
      0x2306de2185050e91, 0x2c14530224ae9c15, 0xf108af28cf321d4c},
     {0x9cef89aad9e9c939, 0xc1e9ebd0c5702f09, 0x8180e092f39ad977,
      0x229e01ec1482ace5, 0x5b9dd643d4d042ad, 0xd02c5ab2f18cf9f8}},
};

TEST(GpuMachine, PerThreadAtomicTimingsArePinned)
{
    const auto fold = [](std::uint64_t h, std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
        return h;
    };
    // The goldens fold one value per thread: each warp's entry once
    // for every lane it holds, in grid order.
    const auto foldPerThread = [&](std::uint64_t &h, const GpuRunResult &r,
                                   const GpuConfig &cfg,
                                   LaunchConfig launch) {
        const int warps = cfg.warpsPerBlock(launch.threads_per_block);
        for (std::size_t i = 0; i < r.warp_cycles.size(); ++i) {
            const int w = static_cast<int>(i) % warps;
            const int lanes = std::min(
                cfg.warp_size, launch.threads_per_block - w * cfg.warp_size);
            for (int lane = 0; lane < lanes; ++lane)
                h = fold(h, r.warp_cycles[i]);
        }
    };
    std::uint64_t windows = 0;
    for (int o = 0; o < 2; ++o) {
        const AtomicOp aop = o == 0 ? AtomicOp::Add : AtomicOp::Cas;
        for (int u = 0; u < 7; ++u) {
            GpuConfig cfg = testGpu();
            cfg.l2_atomic_units = golden_units[u];
            // Two SMs holding two 256-thread blocks each: ten blocks
            // run in three waves.
            cfg.sm_count = 2;
            cfg.max_threads_per_sm = 512;
            // A short fire-and-forget window, so atomicAdd's
            // completion depends on the unit queues and not only on
            // the LSU posting time.
            cfg.ff_window = 32;
            for (int s = 0; s < 6; ++s) {
                std::uint64_t h = 0xcbf29ce484222325ULL;
                for (DataType t : {DataType::Int32, DataType::Float64}) {
                    for (std::uint64_t base : {0x100000ULL, 0x100018ULL}) {
                        const GpuKernel k = bodyKernel(
                            {GpuOp::globalAtomic(aop, AddressMode::PerThread,
                                                 base, t, golden_strides[s])},
                            24);
                        for (LaunchConfig launch :
                             {LaunchConfig{1, 48}, LaunchConfig{10, 256}}) {
                            GpuMachine batched(cfg);
                            GpuMachine stepped(cfg);
                            stepped.setLoopBatch(false);
                            const auto r = batched.run(k, launch, 2);
                            windows += batched.loopBatch().windows;
                            ASSERT_EQ(r.warp_cycles,
                                      stepped.run(k, launch, 2).warp_cycles);
                            foldPerThread(h, r, cfg, launch);
                            h = fold(h, r.total_cycles);
                        }
                    }
                }
                EXPECT_EQ(h, per_thread_golden[o][u][s])
                    << (o == 0 ? "add" : "cas") << " units "
                    << golden_units[u] << " stride " << golden_strides[s]
                    << ": 0x" << std::hex << h;
            }
        }
    }
    // The batched leg must actually have batched somewhere.
    EXPECT_GT(windows, 0u);
}

} // namespace
} // namespace syncperf::gpusim
