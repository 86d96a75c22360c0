/**
 * @file
 * Seeded differential of the launch memo against direct runs. Each
 * seed draws a system (any of the three CPUs, the jittered
 * Threadripper included, or any of the three GPUs) and a few
 * experiment points on it -- primitive, data type, location, stride
 * and a team size or grid geometry -- and lets one target measure
 * them in a row, so the prepares of different images interleave and a
 * later point may be served launches an earlier one simulated. Every
 * measure() and every takeTelemetry() must equal a direct run
 * (tests/core/direct_run.hh) that simulates each launch single-stepped
 * on a fresh machine with the seed the target reached.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "direct_run.hh"

namespace syncperf::core
{
namespace
{

using testing::directCpuRun;
using testing::directGpuRun;
using testing::expectSameMeasurement;

/** Points one target measures per seed. */
constexpr int draws_per_seed = 4;

/** A small protocol with telemetry, so the samples are compared too. */
MeasurementConfig
protocol(MeasurementConfig cfg)
{
    cfg.runs = 2;
    cfg.attempts = 2;
    cfg.n_iter = 6;
    cfg.n_unroll = 2;
    cfg.telemetry = true;
    return cfg;
}

/** Location and stride; a shared variable keeps stride 1. */
template <class Exp>
void
drawPlacement(Pcg32 &rng, Exp &exp)
{
    static constexpr int strides[] = {1, 2, 8, 16, 32};
    if (rng.below(2) == 0)
        return;
    exp.location = Location::PrivateArray;
    exp.stride = strides[rng.below(std::size(strides))];
}

OmpExperiment
drawOmp(Pcg32 &rng)
{
    OmpExperiment exp;
    exp.primitive = static_cast<OmpPrimitive>(
        rng.below(static_cast<std::uint32_t>(OmpPrimitive::Flush) + 1));
    exp.dtype = all_data_types[rng.below(all_data_types.size())];
    drawPlacement(rng, exp);
    static constexpr Affinity affinities[] = {
        Affinity::System, Affinity::Spread, Affinity::Close};
    exp.affinity = affinities[rng.below(std::size(affinities))];
    return exp;
}

CudaExperiment
drawCuda(Pcg32 &rng)
{
    CudaExperiment exp;
    exp.primitive = static_cast<CudaPrimitive>(rng.below(
        static_cast<std::uint32_t>(CudaPrimitive::VoteSync) + 1));
    exp.dtype = all_data_types[rng.below(all_data_types.size())];
    if (!cudaPrimitiveSupports(exp.primitive, exp.dtype))
        exp.dtype = DataType::Int32;
    drawPlacement(rng, exp);
    return exp;
}

void
cpuLeg(const cpusim::CpuConfig &cpu, Pcg32 &rng)
{
    const MeasurementConfig mcfg =
        protocol(MeasurementConfig::simDefaults());
    CpuSimTarget target(cpu, mcfg);
    std::uint64_t seed = 1;
    const int max_team = std::min(cpu.totalHwThreads(), 24);
    for (int d = 0; d < draws_per_seed; ++d) {
        const OmpExperiment exp = drawOmp(rng);
        const int team = 1 + static_cast<int>(rng.below(
                                 static_cast<std::uint32_t>(max_team)));
        SCOPED_TRACE(::testing::Message()
                     << "draw " << d << ": "
                     << ompPrimitiveName(exp.primitive) << ' '
                     << dataTypeName(exp.dtype) << " stride "
                     << exp.stride << " team " << team);
        const auto direct = directCpuRun(cpu, mcfg, exp, team, seed);
        seed += direct.launches.size();
        expectSameMeasurement(target.measure(exp, team),
                              direct.measurement);
        EXPECT_EQ(target.takeTelemetry(), direct.telemetry);
    }
}

void
gpuLeg(const gpusim::GpuConfig &gpu, Pcg32 &rng)
{
    const MeasurementConfig mcfg =
        protocol(MeasurementConfig::simGpuDefaults());
    GpuSimTarget target(gpu, mcfg);
    std::uint64_t seed = 1;
    const int block_counts[] = {1, 2, gpu.sm_count / 2, gpu.sm_count};
    static constexpr int block_threads[] = {32, 64, 96, 256};
    for (int d = 0; d < draws_per_seed; ++d) {
        const CudaExperiment exp = drawCuda(rng);
        const gpusim::LaunchConfig geometry{
            block_counts[rng.below(std::size(block_counts))],
            block_threads[rng.below(std::size(block_threads))]};
        SCOPED_TRACE(::testing::Message()
                     << "draw " << d << ": "
                     << cudaPrimitiveName(exp.primitive) << ' '
                     << dataTypeName(exp.dtype) << " stride "
                     << exp.stride << ' ' << geometry.blocks << 'x'
                     << geometry.threads_per_block);
        const auto direct = directGpuRun(gpu, mcfg, exp, geometry, seed);
        seed += direct.launches.size();
        expectSameMeasurement(target.measure(exp, geometry),
                              direct.measurement);
        EXPECT_EQ(target.takeTelemetry(), direct.telemetry);
    }
}

class MemoDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(MemoDifferential, TargetMatchesDirectRuns)
{
    Pcg32 rng(static_cast<std::uint64_t>(GetParam()), 29);
    switch (rng.below(6)) {
      case 0: cpuLeg(cpusim::CpuConfig::system1(), rng); break;
      case 1: cpuLeg(cpusim::CpuConfig::system2(), rng); break;
      case 2: cpuLeg(cpusim::CpuConfig::system3(), rng); break;
      case 3: gpuLeg(gpusim::GpuConfig::rtx2070Super(), rng); break;
      case 4: gpuLeg(gpusim::GpuConfig::a100(), rng); break;
      default: gpuLeg(gpusim::GpuConfig::rtx4090(), rng); break;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoDifferential, ::testing::Range(1, 21));

} // namespace
} // namespace syncperf::core
