/**
 * @file
 * Reference measurements for the launch-memo tests: the protocol run
 * over launches that are all simulated, single-stepped, on a fresh
 * machine, with the seed sequence a sim target would consume. A
 * target must report exactly this, however many of its launches the
 * memo served.
 */

#ifndef SYNCPERF_TESTS_CORE_DIRECT_RUN_HH
#define SYNCPERF_TESTS_CORE_DIRECT_RUN_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/cpusim_target.hh"
#include "core/gpusim_target.hh"

namespace syncperf::core::testing
{

/** What a direct run produced. */
struct DirectRun
{
    Measurement measurement;
    TelemetrySample telemetry; ///< every launch's stats, merged
    std::vector<double> launches; ///< each launch's seconds, in order
};

/** @p exp at @p n_threads, every launch simulated by a CpuMachine. */
inline DirectRun
directCpuRun(const cpusim::CpuConfig &cfg, const MeasurementConfig &mcfg,
             const OmpExperiment &exp, int n_threads,
             std::uint64_t seed = 1)
{
    const OmpProgramPair pair = CpuSimTarget::buildPrograms(
        exp, n_threads, mcfg.opsPerMeasurement());
    cpusim::CpuMachine machine(cfg, exp.affinity);
    machine.setLoopBatch(false);
    DirectRun out;
    const auto launch = [&](const std::vector<cpusim::CpuProgram> &p) {
        machine.reseed(seed++);
        const auto result = machine.run(p, mcfg.n_warmup);
        out.telemetry.addStats(machine.stats());
        out.launches.push_back(
            static_cast<double>(std::ranges::max(result.thread_cycles)) /
            (cfg.base_clock_ghz * 1e9));
        return out.launches.back();
    };
    out.measurement =
        measurePrimitive([&] { return launch(pair.baseline); },
                         [&] { return launch(pair.test); }, mcfg);
    return out;
}

/** @p exp on @p geometry, every launch simulated by a GpuMachine. */
inline DirectRun
directGpuRun(const gpusim::GpuConfig &cfg, const MeasurementConfig &mcfg,
             const CudaExperiment &exp, gpusim::LaunchConfig geometry,
             std::uint64_t seed = 1)
{
    const CudaKernelPair pair =
        GpuSimTarget::buildKernels(exp, mcfg.opsPerMeasurement());
    gpusim::GpuMachine machine(cfg);
    machine.setLoopBatch(false);
    DirectRun out;
    const auto launch = [&](const gpusim::GpuKernel &kernel) {
        machine.reseed(seed++);
        const auto result = machine.run(kernel, geometry, mcfg.n_warmup);
        out.telemetry.addStats(machine.stats());
        out.launches.push_back(
            static_cast<double>(std::ranges::max(result.warp_cycles)) /
            (cfg.clock_ghz * 1e9));
        return out.launches.back();
    };
    out.measurement =
        measurePrimitive([&] { return launch(pair.baseline); },
                         [&] { return launch(pair.test); }, mcfg);
    return out;
}

/** Bit-exact equality of two measurements. */
inline void
expectSameMeasurement(const Measurement &a, const Measurement &b)
{
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.per_op_seconds, b.per_op_seconds);
    EXPECT_EQ(a.stddev_seconds, b.stddev_seconds);
    EXPECT_EQ(a.run_values, b.run_values);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.cov, b.cov);
    EXPECT_EQ(a.noise_retries, b.noise_retries);
}

} // namespace syncperf::core::testing

#endif // SYNCPERF_TESTS_CORE_DIRECT_RUN_HH
