/**
 * @file
 * Tests for core::LaunchMemo and the sim targets' memo keys: one
 * simulation per key under concurrency, served launches equal to
 * direct runs (jittered models included), sharing across targets
 * whose programs decode alike, and a key that separates launches
 * differing in any field their outcome depends on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hh"
#include "core/launch_memo.hh"
#include "direct_run.hh"

namespace syncperf::core
{
namespace
{

using testing::directCpuRun;
using testing::directGpuRun;
using testing::expectSameMeasurement;

long long
served()
{
    return metrics::value(metrics::Counter::SimCacheHits);
}

long long
simulated()
{
    return metrics::value(metrics::Counter::SimCacheMisses);
}

class LaunchMemoTest : public ::testing::Test
{
  protected:
    void SetUp() override { metrics::Registry::global().reset(); }
    void TearDown() override { metrics::Registry::global().reset(); }

    static MeasurementConfig
    cpuProtocol()
    {
        auto cfg = MeasurementConfig::simDefaults();
        cfg.runs = 2;
        cfg.attempts = 2;
        cfg.n_iter = 10;
        cfg.n_unroll = 2;
        cfg.telemetry = true;
        return cfg;
    }

    static MeasurementConfig
    gpuProtocol()
    {
        auto cfg = MeasurementConfig::simGpuDefaults();
        cfg.runs = 2;
        cfg.attempts = 2;
        cfg.n_iter = 5;
        cfg.n_unroll = 2;
        cfg.telemetry = true;
        return cfg;
    }
};

TEST_F(LaunchMemoTest, SingleFlightSimulatesOnceForConcurrentCallers)
{
    LaunchMemo memo;
    std::atomic<int> calls{0};
    std::atomic<int> arrived{0};
    constexpr int n_threads = 8;
    std::vector<const LaunchOutcome *> got(n_threads, nullptr);
    std::vector<std::thread> threads;
    for (int i = 0; i < n_threads; ++i) {
        threads.emplace_back([&, i] {
            ++arrived;
            while (arrived.load() < n_threads)
                std::this_thread::yield();
            got[i] = &memo.serve(42, [&] {
                ++calls;
                // Hold the claim so the other callers have to wait.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
                LaunchOutcome o;
                o.seconds = 1.5;
                o.events = 7;
                return o;
            });
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(calls.load(), 1);
    for (const LaunchOutcome *o : got) {
        ASSERT_EQ(o, got[0]);
        EXPECT_EQ(o->seconds, 1.5);
    }
    EXPECT_EQ(simulated(), 1);
    EXPECT_EQ(served(), n_threads - 1);
    EXPECT_EQ(metrics::value(metrics::Counter::SimEvents), 7);
}

TEST_F(LaunchMemoTest, FailedClaimLeavesTheKeyToTheNextCaller)
{
    LaunchMemo memo;
    EXPECT_THROW(memo.serve(1,
                            []() -> LaunchOutcome {
                                throw std::runtime_error("boom");
                            }),
                 std::runtime_error);
    const LaunchOutcome &o = memo.serve(1, [] {
        LaunchOutcome out;
        out.seconds = 2.0;
        return out;
    });
    EXPECT_EQ(o.seconds, 2.0);
    EXPECT_EQ(simulated(), 1);
}

TEST_F(LaunchMemoTest, CpuServedLaunchesEqualDirectRuns)
{
    // System 2 is jitter-free; System 3 (the Threadripper) draws
    // jitter on every line transfer, so its key carries the seed.
    for (const auto &cfg : {cpusim::CpuConfig::system2(),
                            cpusim::CpuConfig::system3()}) {
        SCOPED_TRACE(cfg.name);
        metrics::Registry::global().reset();
        OmpExperiment exp;
        exp.primitive = OmpPrimitive::AtomicUpdate;
        exp.affinity = Affinity::Spread;
        const auto want = directCpuRun(cfg, cpuProtocol(), exp, 4);

        auto memo = std::make_shared<LaunchMemo>();
        CpuSimTarget first(cfg, cpuProtocol(), 1, memo);
        expectSameMeasurement(first.measure(exp, 4), want.measurement);
        EXPECT_EQ(first.takeTelemetry(), want.telemetry);

        // A second target walks the same seeds: every launch served.
        const long long sims = simulated();
        CpuSimTarget second(cfg, cpuProtocol(), 1, memo);
        expectSameMeasurement(second.measure(exp, 4), want.measurement);
        EXPECT_EQ(second.takeTelemetry(), want.telemetry);
        EXPECT_EQ(simulated(), sims);
        EXPECT_EQ(second.loopBatch().total_iters,
                  first.loopBatch().total_iters);
    }
}

TEST_F(LaunchMemoTest, GpuServedLaunchesEqualDirectRuns)
{
    // __threadfence_system draws PCIe jitter, so its key carries the
    // seed; atomicAdd does not.
    for (const CudaPrimitive prim :
         {CudaPrimitive::AtomicAdd, CudaPrimitive::ThreadFenceSystem}) {
        SCOPED_TRACE(cudaPrimitiveName(prim));
        metrics::Registry::global().reset();
        const auto cfg = gpusim::GpuConfig::rtx2070Super();
        CudaExperiment exp;
        exp.primitive = prim;
        exp.location = prim == CudaPrimitive::AtomicAdd
                           ? Location::SharedVariable
                           : Location::PrivateArray;
        const gpusim::LaunchConfig geometry{2, 64};
        const auto want = directGpuRun(cfg, gpuProtocol(), exp, geometry);

        auto memo = std::make_shared<LaunchMemo>();
        GpuSimTarget first(cfg, gpuProtocol(), 1, memo);
        expectSameMeasurement(first.measure(exp, geometry),
                              want.measurement);
        EXPECT_EQ(first.takeTelemetry(), want.telemetry);

        const long long sims = simulated();
        GpuSimTarget second(cfg, gpuProtocol(), 1, memo);
        expectSameMeasurement(second.measure(exp, geometry),
                              want.measurement);
        EXPECT_EQ(second.takeTelemetry(), want.telemetry);
        EXPECT_EQ(simulated(), sims);
    }
}

TEST_F(LaunchMemoTest, CpuTargetsShareLaunchesAcrossDtypes)
{
    // int and unsigned long long atomic updates decode to the same
    // image, so the second dtype's point simulates nothing.
    const auto cfg = cpusim::CpuConfig::system2();
    OmpExperiment a;
    a.primitive = OmpPrimitive::AtomicUpdate;
    a.dtype = DataType::Int32;
    OmpExperiment b = a;
    b.dtype = DataType::UInt64;

    auto memo = std::make_shared<LaunchMemo>();
    CpuSimTarget ta(cfg, cpuProtocol(), 1, memo);
    CpuSimTarget tb(cfg, cpuProtocol(), 1, memo);
    const Measurement ma = ta.measure(a, 4);
    const long long sims = simulated();
    expectSameMeasurement(tb.measure(b, 4), ma);
    EXPECT_EQ(simulated(), sims);
    EXPECT_EQ(ta.takeTelemetry(), tb.takeTelemetry());
}

TEST_F(LaunchMemoTest, GpuTargetsShareLaunchesAcrossDtypes)
{
    // shfl decodes identically for same-width element types.
    const auto cfg = gpusim::GpuConfig::rtx2070Super();
    CudaExperiment a;
    a.primitive = CudaPrimitive::ShflSync;
    a.dtype = DataType::Int32;
    CudaExperiment b = a;
    b.dtype = DataType::Float32;

    auto memo = std::make_shared<LaunchMemo>();
    GpuSimTarget ta(cfg, gpuProtocol(), 1, memo);
    GpuSimTarget tb(cfg, gpuProtocol(), 1, memo);
    const Measurement ma = ta.measure(a, {2, 64});
    const long long sims = simulated();
    expectSameMeasurement(tb.measure(b, {2, 64}), ma);
    EXPECT_EQ(simulated(), sims);
    EXPECT_EQ(ta.takeTelemetry(), tb.takeTelemetry());
}

/** One CPU launch variant: a protocol, a placement, a team size. */
struct CpuVariant
{
    const char *what;
    MeasurementConfig protocol;
    Affinity affinity;
    int n_threads;
};

TEST_F(LaunchMemoTest, CpuKeySeparatesEveryFieldTheOutcomeDependsOn)
{
    // Every variant measures one point through one shared memo, each
    // differing from the first in one key field. Each must still
    // equal its own direct run -- and the direct runs must differ, so
    // a key that dropped the field would serve the wrong launches.
    const auto cfg = cpusim::CpuConfig::system2();
    auto warmup = cpuProtocol();
    warmup.n_warmup = 3;
    auto iterations = cpuProtocol();
    iterations.n_iter = 12;
    const std::vector<CpuVariant> variants = {
        {"reference", cpuProtocol(), Affinity::Spread, 4},
        {"warmup", warmup, Affinity::Spread, 4},
        {"iterations", iterations, Affinity::Spread, 4},
        {"affinity", cpuProtocol(), Affinity::Close, 4},
        {"threads", cpuProtocol(), Affinity::Spread, 6},
    };

    auto memo = std::make_shared<LaunchMemo>();
    const auto reference = [&] {
        OmpExperiment e;
        e.primitive = OmpPrimitive::AtomicUpdate;
        e.affinity = Affinity::Spread;
        return directCpuRun(cfg, cpuProtocol(), e, 4);
    }();
    for (const CpuVariant &v : variants) {
        SCOPED_TRACE(v.what);
        OmpExperiment exp;
        exp.primitive = OmpPrimitive::AtomicUpdate;
        exp.affinity = v.affinity;
        const auto want = directCpuRun(cfg, v.protocol, exp, v.n_threads);
        if (std::string(v.what) != "reference") {
            EXPECT_NE(want.telemetry, reference.telemetry);
        }
        CpuSimTarget target(cfg, v.protocol, 1, memo);
        expectSameMeasurement(target.measure(exp, v.n_threads),
                              want.measurement);
        EXPECT_EQ(target.takeTelemetry(), want.telemetry);
    }
}

/** One GPU launch variant: a protocol and a grid geometry. */
struct GpuVariant
{
    const char *what;
    MeasurementConfig protocol;
    gpusim::LaunchConfig geometry;
};

TEST_F(LaunchMemoTest, GpuKeySeparatesEveryFieldTheOutcomeDependsOn)
{
    const auto cfg = gpusim::GpuConfig::rtx2070Super();
    auto warmup = gpuProtocol();
    warmup.n_warmup = 3;
    auto iterations = gpuProtocol();
    iterations.n_iter = 6;
    const std::vector<GpuVariant> variants = {
        {"reference", gpuProtocol(), {2, 64}},
        {"warmup", warmup, {2, 64}},
        {"body_iters", iterations, {2, 64}},
        {"blocks", gpuProtocol(), {4, 64}},
        {"threads_per_block", gpuProtocol(), {2, 128}},
    };

    CudaExperiment exp;
    exp.primitive = CudaPrimitive::AtomicAdd;
    auto memo = std::make_shared<LaunchMemo>();
    const auto reference =
        directGpuRun(cfg, gpuProtocol(), exp, {2, 64});
    for (const GpuVariant &v : variants) {
        SCOPED_TRACE(v.what);
        const auto want = directGpuRun(cfg, v.protocol, exp, v.geometry);
        if (std::string(v.what) != "reference") {
            EXPECT_NE(want.telemetry, reference.telemetry);
        }
        GpuSimTarget target(cfg, v.protocol, 1, memo);
        expectSameMeasurement(target.measure(exp, v.geometry),
                              want.measurement);
        EXPECT_EQ(target.takeTelemetry(), want.telemetry);
    }
}

} // namespace
} // namespace syncperf::core
