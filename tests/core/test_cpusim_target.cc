/**
 * @file
 * Tests for the cpusim measurement target (program construction and
 * end-to-end measurements).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "core/cpusim_target.hh"

namespace syncperf::core
{
namespace
{

MeasurementConfig
fastConfig()
{
    auto cfg = MeasurementConfig::simDefaults();
    cfg.runs = 1;
    cfg.attempts = 1;
    cfg.n_iter = 20;
    cfg.n_unroll = 2;
    return cfg;
}

TEST(CpuSimTargetPrograms, TestHasOneMorePrimitiveThanBaseline)
{
    OmpExperiment exp;
    exp.primitive = OmpPrimitive::Barrier;
    const auto pair = CpuSimTarget::buildPrograms(exp, 3, 10);
    ASSERT_EQ(pair.baseline.size(), 3u);
    ASSERT_EQ(pair.test.size(), 3u);
    EXPECT_EQ(pair.baseline[0].body.size(), 1u);
    EXPECT_EQ(pair.test[0].body.size(), 2u);
    EXPECT_EQ(pair.baseline[0].iterations, 10);
}

TEST(CpuSimTargetPrograms, ArrayExperimentsUsePerThreadSlots)
{
    OmpExperiment exp;
    exp.primitive = OmpPrimitive::AtomicUpdate;
    exp.location = Location::PrivateArray;
    exp.stride = 4;
    exp.dtype = DataType::UInt64;
    const auto pair = CpuSimTarget::buildPrograms(exp, 2, 1);
    const auto a0 = pair.baseline[0].body[0].addr;
    const auto a1 = pair.baseline[1].body[0].addr;
    EXPECT_EQ(a1 - a0, 4u * sizeof(unsigned long long));
}

TEST(CpuSimTargetPrograms, AtomicWriteTestTargetsSecondLine)
{
    OmpExperiment exp;
    exp.primitive = OmpPrimitive::AtomicWrite;
    const auto pair = CpuSimTarget::buildPrograms(exp, 1, 1);
    ASSERT_EQ(pair.test[0].body.size(), 2u);
    const auto a = pair.test[0].body[0].addr;
    const auto b = pair.test[0].body[1].addr;
    EXPECT_GE(b > a ? b - a : a - b, 64u) << "separate cache lines";
}

TEST(CpuSimTargetPrograms, AtomicReadBaselineIsPlainLoad)
{
    OmpExperiment exp;
    exp.primitive = OmpPrimitive::AtomicRead;
    const auto pair = CpuSimTarget::buildPrograms(exp, 1, 1);
    EXPECT_EQ(pair.baseline[0].body[0].kind, cpusim::CpuOpKind::Load);
    EXPECT_EQ(pair.test[0].body[0].kind, cpusim::CpuOpKind::AtomicLoad);
}

TEST(CpuSimTargetPrograms, CriticalWrapsBodyInLock)
{
    OmpExperiment exp;
    exp.primitive = OmpPrimitive::Critical;
    const auto pair = CpuSimTarget::buildPrograms(exp, 1, 1);
    const auto &body = pair.baseline[0].body;
    ASSERT_EQ(body.size(), 5u);
    EXPECT_EQ(body.front().kind, cpusim::CpuOpKind::LockAcquire);
    EXPECT_EQ(body.back().kind, cpusim::CpuOpKind::LockRelease);
}

TEST(CpuSimTargetPrograms, FlushTestFencesBetweenIncrements)
{
    OmpExperiment exp;
    exp.primitive = OmpPrimitive::Flush;
    exp.location = Location::PrivateArray;
    const auto pair = CpuSimTarget::buildPrograms(exp, 1, 1);
    EXPECT_EQ(pair.baseline[0].body.size(), 6u);
    ASSERT_EQ(pair.test[0].body.size(), 7u);
    EXPECT_EQ(pair.test[0].body[3].kind, cpusim::CpuOpKind::Fence);
}

TEST(CpuSimTarget, BarrierMeasurementIsPositive)
{
    CpuSimTarget target(cpusim::CpuConfig::system3(), fastConfig());
    OmpExperiment exp;
    exp.primitive = OmpPrimitive::Barrier;
    const auto m = target.measure(exp, 4);
    EXPECT_GT(m.per_op_seconds, 0.0);
}

TEST(CpuSimTarget, AtomicReadMeasuresAsFree)
{
    CpuSimTarget target(cpusim::CpuConfig::system2(), fastConfig());
    OmpExperiment exp;
    exp.primitive = OmpPrimitive::AtomicRead;
    const auto m = target.measure(exp, 4);
    EXPECT_DOUBLE_EQ(m.per_op_seconds, 0.0);
    EXPECT_TRUE(std::isinf(m.opsPerSecondPerThread()));
}

TEST(CpuSimTarget, CaptureCostsSameAsUpdate)
{
    CpuSimTarget tu(cpusim::CpuConfig::system3(), fastConfig());
    CpuSimTarget tc(cpusim::CpuConfig::system3(), fastConfig());
    OmpExperiment u;
    u.primitive = OmpPrimitive::AtomicUpdate;
    OmpExperiment c;
    c.primitive = OmpPrimitive::AtomicCapture;
    EXPECT_DOUBLE_EQ(tu.measure(u, 4).per_op_seconds,
                     tc.measure(c, 4).per_op_seconds);
}

TEST(CpuSimTarget, DeterministicForJitterFreeSystems)
{
    CpuSimTarget a(cpusim::CpuConfig::system2(), fastConfig(), 1);
    CpuSimTarget b(cpusim::CpuConfig::system2(), fastConfig(), 99);
    OmpExperiment exp;
    exp.primitive = OmpPrimitive::AtomicUpdate;
    EXPECT_DOUBLE_EQ(a.measure(exp, 8).per_op_seconds,
                     b.measure(exp, 8).per_op_seconds);
}

TEST(CpuSimTarget, System3JitterVariesAcrossSeeds)
{
    CpuSimTarget a(cpusim::CpuConfig::system3(), fastConfig(), 1);
    CpuSimTarget b(cpusim::CpuConfig::system3(), fastConfig(), 99);
    OmpExperiment exp;
    exp.primitive = OmpPrimitive::AtomicWrite;
    EXPECT_NE(a.measure(exp, 8).per_op_seconds,
              b.measure(exp, 8).per_op_seconds);
}

TEST(CpuSimTarget, OversubscriptionIsFatal)
{
    CpuSimTarget target(cpusim::CpuConfig::system3(), fastConfig());
    OmpExperiment exp;
    ScopedLogCapture capture;
    EXPECT_THROW(target.measure(exp, 33), LogDeathException);
}

TEST(CpuSimTarget, MeasuresTheSlowestThread)
{
    // Six threads spread over System 3 contend on one atomic under
    // its timing jitter, so neither the first nor the last thread is
    // reliably the slowest. The measured cost must be the difference
    // of the slowest threads of direct runs that consume the target's
    // seeds (baseline first, then test).
    const auto cfg = cpusim::CpuConfig::system3();
    const auto mcfg = fastConfig();
    OmpExperiment exp;
    exp.primitive = OmpPrimitive::AtomicUpdate;
    exp.affinity = Affinity::Spread;

    CpuSimTarget target(cfg, mcfg, 7);
    const auto m = target.measure(exp, 6);
    ASSERT_TRUE(m.valid);
    ASSERT_EQ(m.retries, 0);

    const auto pair =
        CpuSimTarget::buildPrograms(exp, 6, mcfg.opsPerMeasurement());
    const auto slowest = [&](const std::vector<cpusim::CpuProgram> &p,
                             std::uint64_t seed) {
        cpusim::CpuMachine machine(cfg, exp.affinity, seed);
        const auto r = machine.run(p, mcfg.n_warmup);
        EXPECT_LT(std::ranges::min(r.thread_cycles),
                  std::ranges::max(r.thread_cycles));
        return static_cast<double>(std::ranges::max(r.thread_cycles)) /
               (cfg.base_clock_ghz * 1e9);
    };
    const double b = slowest(pair.baseline, 7);
    const double t = slowest(pair.test, 8);
    EXPECT_EQ(m.per_op_seconds,
              (t - b) / static_cast<double>(mcfg.opsPerMeasurement()));
}

TEST(CpuSimTargetJitter, DecodeMarksOnlySystem3Images)
{
    // decode() marks every image of a config with transfer jitter (the
    // Threadripper, System 3) as drawing jitter, and no other, so the
    // target keys exactly those launches on their seed.
    constexpr OmpPrimitive primitives[] = {
        OmpPrimitive::Barrier,      OmpPrimitive::AtomicUpdate,
        OmpPrimitive::AtomicCapture, OmpPrimitive::AtomicRead,
        OmpPrimitive::AtomicWrite,  OmpPrimitive::Critical,
        OmpPrimitive::Flush,
    };
    const std::pair<cpusim::CpuConfig, bool> systems[] = {
        {cpusim::CpuConfig::system1(), false},
        {cpusim::CpuConfig::system2(), false},
        {cpusim::CpuConfig::system3(), true},
    };
    for (const auto &[cfg, jittered] : systems) {
        for (const OmpPrimitive p : primitives) {
            SCOPED_TRACE(::testing::Message()
                         << cfg.name << ' ' << ompPrimitiveName(p));
            OmpExperiment exp;
            exp.primitive = p;
            const cpusim::CpuMachine machine(cfg, exp.affinity);
            const auto pair = CpuSimTarget::buildPrograms(exp, 4, 4);
            EXPECT_EQ(machine.decode(pair.baseline).draws_jitter, jittered);
            EXPECT_EQ(machine.decode(pair.test).draws_jitter, jittered);
        }
    }
}

} // namespace
} // namespace syncperf::core
