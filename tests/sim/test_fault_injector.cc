/**
 * @file
 * Tests for the deterministic fault injector: every mode, plus its
 * integration with the sim targets and the atomic file layer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "common/atomic_file.hh"
#include "core/cpusim_target.hh"
#include "core/gpusim_target.hh"
#include "sim/fault_injector.hh"

namespace syncperf::sim
{
namespace
{

namespace fs = std::filesystem;

core::MeasurementConfig
tinyProtocol()
{
    auto cfg = core::MeasurementConfig::simDefaults();
    cfg.runs = 1;
    cfg.attempts = 1;
    cfg.n_iter = 5;
    cfg.n_unroll = 2;
    return cfg;
}

core::OmpExperiment
barrierExperiment()
{
    core::OmpExperiment exp;
    exp.primitive = core::OmpPrimitive::Barrier;
    return exp;
}

TEST(FaultInjector, InactiveByDefault)
{
    EXPECT_EQ(FaultInjector::active(), nullptr);
}

TEST(FaultInjector, ScopeInstallsAndRestores)
{
    FaultInjector outer;
    {
        FaultInjector::Scope a(outer);
        EXPECT_EQ(FaultInjector::active(), &outer);
        FaultInjector inner;
        {
            FaultInjector::Scope b(inner);
            EXPECT_EQ(FaultInjector::active(), &inner);
        }
        EXPECT_EQ(FaultInjector::active(), &outer);
    }
    EXPECT_EQ(FaultInjector::active(), nullptr);
}

TEST(FaultInjector, ClockSkewScalesRuntimes)
{
    FaultInjector faults;
    faults.setClockSkew(2.0);
    EXPECT_DOUBLE_EQ(faults.perturbSeconds(1.5e-3), 3.0e-3);
}

TEST(FaultInjector, JitterIsBoundedAndSeeded)
{
    FaultInjector a;
    a.setJitter(0.5, 99);
    FaultInjector b;
    b.setJitter(0.5, 99);
    for (int i = 0; i < 100; ++i) {
        const double pa = a.perturbSeconds(1.0);
        EXPECT_GE(pa, 1.0);
        EXPECT_LE(pa, 1.5);
        EXPECT_DOUBLE_EQ(pa, b.perturbSeconds(1.0));
    }

    FaultInjector c;
    c.setJitter(0.5, 100); // different seed, different stream
    bool any_different = false;
    FaultInjector d;
    d.setJitter(0.5, 99);
    for (int i = 0; i < 10; ++i)
        any_different |= c.perturbSeconds(1.0) != d.perturbSeconds(1.0);
    EXPECT_TRUE(any_different);
}

TEST(FaultInjector, PoisonsExactlyTheConfiguredWindow)
{
    FaultInjector faults;
    faults.poisonMeasurements(3, 2);
    EXPECT_FALSE(faults.shouldPoisonMeasurement()); // 1
    EXPECT_FALSE(faults.shouldPoisonMeasurement()); // 2
    EXPECT_TRUE(faults.shouldPoisonMeasurement());  // 3
    EXPECT_TRUE(faults.shouldPoisonMeasurement());  // 4
    EXPECT_FALSE(faults.shouldPoisonMeasurement()); // 5
    EXPECT_EQ(faults.measurementCount(), 5);
}

TEST(FaultInjector, FailsExactlyTheConfiguredWriteOps)
{
    FaultInjector faults;
    faults.failWrites(2, 1);
    EXPECT_TRUE(faults.onWriteOp("a.csv", "open").isOk());
    const Status s = faults.onWriteOp("a.csv", "commit");
    EXPECT_EQ(s.code(), ErrorCode::FaultInjected);
    EXPECT_TRUE(faults.onWriteOp("b.csv", "open").isOk());
    EXPECT_EQ(faults.writeOpCount(), 3);
}

TEST(FaultInjector, ScopeRoutesAtomicFileThroughInjector)
{
    const fs::path dir =
        fs::temp_directory_path() /
        ("syncperf_fault_injector_test_" + std::to_string(::getpid()));
    fs::remove_all(dir);

    FaultInjector faults;
    faults.failWrites(1, 1); // first op (the open) fails
    {
        FaultInjector::Scope scope(faults);
        AtomicFile out;
        EXPECT_EQ(out.open(dir / "x.csv").code(),
                  ErrorCode::FaultInjected);
        // Second op succeeds: transient fault.
        AtomicFile retry;
        ASSERT_TRUE(retry.open(dir / "x.csv").isOk());
        retry.stream() << "ok";
        EXPECT_TRUE(retry.commit().isOk());
    }
    EXPECT_TRUE(fs::exists(dir / "x.csv"));
    fs::remove_all(dir);
}

TEST(FaultInjector, SkewShiftsMeasuredCostDeterministically)
{
    const auto exp = barrierExperiment();
    const auto protocol = tinyProtocol();

    core::CpuSimTarget clean(cpusim::CpuConfig::system3(), protocol);
    const double baseline = clean.measure(exp, 2).per_op_seconds;

    FaultInjector faults;
    faults.setClockSkew(2.0);
    FaultInjector::Scope scope(faults);
    core::CpuSimTarget skewed(cpusim::CpuConfig::system3(), protocol);
    const auto m = skewed.measure(exp, 2);
    ASSERT_TRUE(m.valid);
    EXPECT_NEAR(m.per_op_seconds, 2.0 * baseline,
                1e-6 * std::fabs(baseline));
}

core::MeasurementConfig
tinyGpuProtocol()
{
    auto cfg = core::MeasurementConfig::simGpuDefaults();
    cfg.runs = 1;
    cfg.attempts = 1;
    cfg.n_iter = 5;
    cfg.n_unroll = 2;
    return cfg;
}

core::CudaExperiment
atomicAddExperiment()
{
    core::CudaExperiment exp;
    exp.primitive = core::CudaPrimitive::AtomicAdd;
    return exp;
}

TEST(FaultInjector, GpuSkewDoublesMeasuredCostExactly)
{
    // Scaling by two is exact in binary floating point, so the skew
    // applied to each launch's one reported runtime doubles the
    // measured cost bit for bit.
    const auto exp = atomicAddExperiment();
    core::GpuSimTarget clean(gpusim::GpuConfig::rtx4090(),
                             tinyGpuProtocol());
    const double baseline = clean.measure(exp, {2, 64}).per_op_seconds;

    FaultInjector faults;
    faults.setClockSkew(2.0);
    FaultInjector::Scope scope(faults);
    core::GpuSimTarget skewed(gpusim::GpuConfig::rtx4090(),
                              tinyGpuProtocol());
    const auto m = skewed.measure(exp, {2, 64});
    ASSERT_TRUE(m.valid);
    EXPECT_GT(baseline, 0.0);
    EXPECT_EQ(m.per_op_seconds, 2.0 * baseline);
}

TEST(FaultInjector, GpuJitterIsSeededPerLaunch)
{
    // Jitter draws once per launch from the injector's seeded stream:
    // two targets under equally seeded injectors measure the same
    // bits, and the jitter does move the result off the clean one.
    const auto exp = atomicAddExperiment();
    const auto measure = [&] {
        core::GpuSimTarget target(gpusim::GpuConfig::rtx4090(),
                                  tinyGpuProtocol());
        return target.measure(exp, {2, 64});
    };
    const core::Measurement clean = measure();
    const auto jittered = [&] {
        FaultInjector faults;
        faults.setJitter(0.5, 99);
        FaultInjector::Scope scope(faults);
        return measure();
    };
    const core::Measurement a = jittered();
    const core::Measurement b = jittered();
    ASSERT_TRUE(a.valid);
    ASSERT_TRUE(b.valid);
    EXPECT_EQ(a.per_op_seconds, b.per_op_seconds);
    EXPECT_EQ(a.stddev_seconds, b.stddev_seconds);
    EXPECT_EQ(a.run_values, b.run_values);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.cov, b.cov);
    EXPECT_NE(a.per_op_seconds, clean.per_op_seconds);
}

TEST(FaultInjector, TransientPoisonIsAbsorbedByProtocolRetry)
{
    FaultInjector faults;
    faults.poisonMeasurements(1, 1); // first timed launch only
    FaultInjector::Scope scope(faults);

    core::CpuSimTarget target(cpusim::CpuConfig::system3(),
                              tinyProtocol());
    const auto m = target.measure(barrierExperiment(), 2);
    EXPECT_TRUE(m.valid);
    EXPECT_GT(m.retries, 0);
    EXPECT_TRUE(std::isfinite(m.per_op_seconds));
}

TEST(FaultInjector, PersistentPoisonYieldsInvalidMeasurement)
{
    FaultInjector faults;
    faults.poisonMeasurements(1, 1 << 20); // every launch
    FaultInjector::Scope scope(faults);

    auto protocol = tinyProtocol();
    protocol.max_retries = 3;
    core::CpuSimTarget target(cpusim::CpuConfig::system3(), protocol);
    const auto m = target.measure(barrierExperiment(), 2);
    EXPECT_FALSE(m.valid);
    EXPECT_FALSE(m.error.empty());
    EXPECT_TRUE(std::isnan(m.per_op_seconds));
    EXPECT_TRUE(std::isnan(m.opsPerSecondPerThread()));
}

TEST(FaultInjector, GpuTargetHonorsPoisoning)
{
    FaultInjector faults;
    faults.poisonMeasurements(1, 1 << 20);
    FaultInjector::Scope scope(faults);

    auto protocol = tinyGpuProtocol();
    protocol.max_retries = 2;

    core::CudaExperiment exp;
    exp.primitive = core::CudaPrimitive::SyncWarp;
    core::GpuSimTarget target(gpusim::GpuConfig::rtx4090(), protocol);
    const auto m = target.measure(exp, {1, 32});
    EXPECT_FALSE(m.valid);
}

TEST(FaultInjector, KillAfterIsReadFromTheEnvironment)
{
    ::unsetenv("SYNCPERF_FAULT_KILL_AFTER");
    EXPECT_EQ(FaultInjector::killAfterFromEnv(), -1);
    ::setenv("SYNCPERF_FAULT_KILL_AFTER", "3", 1);
    EXPECT_EQ(FaultInjector::killAfterFromEnv(), 3);
    ::setenv("SYNCPERF_FAULT_KILL_AFTER", "0", 1);
    EXPECT_EQ(FaultInjector::killAfterFromEnv(), 0);
    for (const char *bad : {"", "-1", "2x", "x", "1:2"}) {
        ::setenv("SYNCPERF_FAULT_KILL_AFTER", bad, 1);
        EXPECT_EQ(FaultInjector::killAfterFromEnv(), -1) << bad;
    }
    ::unsetenv("SYNCPERF_FAULT_KILL_AFTER");
}

} // namespace
} // namespace syncperf::sim
