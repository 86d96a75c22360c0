/**
 * @file
 * Tests for the launch memo as CpuSimTarget and GpuSimTarget use it:
 * served launches are bit-identical to a direct run that simulates
 * every launch, a jittered launch is never served to a later launch
 * of the same target, the campaign writes what direct runs produce,
 * and the served/simulated counters land in the deterministic
 * metrics class (identical across --jobs counts).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <unistd.h>

#include "common/csv.hh"
#include "common/metrics.hh"
#include "core/campaign.hh"
#include "core/sweep.hh"
#include "direct_run.hh"

namespace syncperf::core
{
namespace
{

namespace fs = std::filesystem;
using testing::directCpuRun;
using testing::directGpuRun;
using testing::expectSameMeasurement;

long long
hits()
{
    return metrics::value(metrics::Counter::SimCacheHits);
}

long long
misses()
{
    return metrics::value(metrics::Counter::SimCacheMisses);
}

class SimCacheTest : public ::testing::Test
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
        return cfg;
    }
};

TEST_F(SimCacheTest, CpuRepeatLaunchesHitAndMatchFirstMeasurement)
{
    // system2 is jitter-free, so every launch after the first pair
    // (baseline, test) is served by the target's memo.
    CpuSimTarget target(cpusim::CpuConfig::system2(), cpuProtocol());
    OmpExperiment exp;
    exp.primitive = OmpPrimitive::Barrier;

    const auto first = target.measure(exp, 4);
    EXPECT_EQ(misses(), 2); // one baseline + one test program
    EXPECT_GT(hits(), 0);   // runs*attempts = 4 pairs, 3 repeats each

    const auto hits_before = hits();
    const auto second = target.measure(exp, 4);
    EXPECT_EQ(misses(), 2) << "repeat measurement re-simulated";
    EXPECT_GT(hits(), hits_before);
    EXPECT_DOUBLE_EQ(first.per_op_seconds, second.per_op_seconds);
    EXPECT_DOUBLE_EQ(first.stddev_seconds, second.stddev_seconds);
}

TEST_F(SimCacheTest, CpuCacheDoesNotChangeResults)
{
    const auto cpu = cpusim::CpuConfig::system2();
    CpuSimTarget target(cpu, cpuProtocol());
    OmpExperiment exp;
    exp.primitive = OmpPrimitive::AtomicUpdate;

    const auto got = target.measure(exp, 4);
    EXPECT_GT(hits(), 0);
    expectSameMeasurement(got,
                          directCpuRun(cpu, cpuProtocol(), exp, 4)
                              .measurement);
}

TEST_F(SimCacheTest, CpuJitteredModelBypassesCache)
{
    // system3 has jitter_frac > 0: every launch draws from its own
    // seed's stream, so a target never serves one launch to another
    // and each is simulated exactly as a direct run would.
    const auto cpu = cpusim::CpuConfig::system3();
    CpuSimTarget target(cpu, cpuProtocol());
    OmpExperiment exp;
    exp.primitive = OmpPrimitive::Barrier;

    const auto first = directCpuRun(cpu, cpuProtocol(), exp, 4);
    const auto second = directCpuRun(cpu, cpuProtocol(), exp, 4,
                                     1 + first.launches.size());
    expectSameMeasurement(target.measure(exp, 4), first.measurement);
    expectSameMeasurement(target.measure(exp, 4), second.measurement);
    EXPECT_EQ(hits(), 0);
    EXPECT_EQ(misses(), static_cast<long long>(first.launches.size() +
                                               second.launches.size()));
}

TEST_F(SimCacheTest, GpuRepeatLaunchesHitAndMatchFirstMeasurement)
{
    GpuSimTarget target(gpusim::GpuConfig::rtx4090(), gpuProtocol());
    CudaExperiment exp;
    exp.primitive = CudaPrimitive::SyncThreads;
    const gpusim::LaunchConfig launch{2, 64};

    const auto first = target.measure(exp, launch);
    EXPECT_EQ(misses(), 2);
    EXPECT_GT(hits(), 0);

    const auto second = target.measure(exp, launch);
    EXPECT_EQ(misses(), 2);
    EXPECT_DOUBLE_EQ(first.per_op_seconds, second.per_op_seconds);
    EXPECT_DOUBLE_EQ(first.stddev_seconds, second.stddev_seconds);
}

TEST_F(SimCacheTest, GpuDifferentLaunchGeometryMisses)
{
    GpuSimTarget target(gpusim::GpuConfig::rtx4090(), gpuProtocol());
    CudaExperiment exp;
    exp.primitive = CudaPrimitive::SyncThreads;

    target.measure(exp, {2, 64});
    EXPECT_EQ(misses(), 2);
    target.measure(exp, {2, 128});
    EXPECT_EQ(misses(), 4) << "geometry change must re-simulate";
}

TEST_F(SimCacheTest, GpuSystemFenceBypassesCache)
{
    // __threadfence_system draws per-launch PCIe jitter: a target
    // never serves one of its kernel's launches to another.
    const auto gpu = gpusim::GpuConfig::rtx4090();
    GpuSimTarget target(gpu, gpuProtocol());
    CudaExperiment exp;
    exp.primitive = CudaPrimitive::ThreadFenceSystem;
    exp.location = Location::PrivateArray;

    const auto first = directGpuRun(gpu, gpuProtocol(), exp, {2, 64});
    const auto second = directGpuRun(gpu, gpuProtocol(), exp, {2, 64},
                                     1 + first.launches.size());
    expectSameMeasurement(target.measure(exp, {2, 64}),
                          first.measurement);
    expectSameMeasurement(target.measure(exp, {2, 64}),
                          second.measurement);
    // The baseline kernel (two stores, no fence) is simulated once;
    // every launch of the test kernel, which carries the system
    // fence, is simulated.
    const std::size_t launches =
        first.launches.size() + second.launches.size();
    EXPECT_EQ(misses(), static_cast<long long>(1 + launches / 2));
    EXPECT_EQ(hits(), static_cast<long long>(launches / 2 - 1));
}

/** Every regular file under @p dir, as relative path -> bytes. */
std::map<std::string, std::string>
snapshotTree(const fs::path &dir)
{
    std::map<std::string, std::string> out;
    if (!fs::exists(dir))
        return out;
    for (const auto &e : fs::recursive_directory_iterator(dir)) {
        if (!e.is_regular_file())
            continue;
        std::ifstream in(e.path(), std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        out[fs::relative(e.path(), dir).string()] = bytes.str();
    }
    return out;
}

/** @p file's bytes as the campaign writes it from direct runs. */
std::string
directCsv(const cpusim::CpuConfig &cpu, const MeasurementConfig &protocol,
          const OmpExperiment &exp, const std::vector<int> &threads)
{
    std::ostringstream bytes;
    CsvWriter csv(bytes);
    csv.header({"threads", "per_op_seconds", "throughput_per_thread",
                "stddev_seconds"});
    std::uint64_t seed = 1;
    for (int n : threads) {
        const auto run = directCpuRun(cpu, protocol, exp, n, seed);
        seed += run.launches.size();
        const Measurement &m = run.measurement;
        csv.field(static_cast<long long>(n))
            .field(m.per_op_seconds)
            .field(m.opsPerSecondPerThread())
            .field(m.stddev_seconds);
        csv.endRow();
    }
    return bytes.str();
}

TEST_F(SimCacheTest, CampaignOutputIsByteIdenticalWithCacheOff)
{
    // The campaign shares one memo across all its points, so most of
    // these launches are served -- across runs, attempts, dtypes and
    // primitives. Every CSV checked must still be what direct runs
    // give.
    const auto base =
        fs::temp_directory_path() /
        ("syncperf_sim_cache_" + std::to_string(::getpid()));
    fs::remove_all(base);

    auto cpu = cpusim::CpuConfig::system2(); // jitter-free
    cpu.cores_per_socket = 2;                // keep the sweep cheap

    CampaignOptions options;
    options.output_dir = base.string();
    options.quick = true;
    options.jobs = 2;
    const auto result = runOmpCampaign(cpu, cpuProtocol(), options);
    ASSERT_TRUE(result.ok());
    EXPECT_GT(hits(), 0);

    const auto tree = snapshotTree(base);
    const auto threads = ompThreadCounts(cpu.totalHwThreads(), 4);
    const std::string dir = sanitizeName(cpu.name) + "/";
    const auto expect_csv = [&](const std::string &file,
                                const OmpExperiment &exp) {
        const auto it = tree.find(dir + file);
        ASSERT_NE(it, tree.end()) << file << " missing";
        EXPECT_EQ(it->second, directCsv(cpu, cpuProtocol(), exp, threads))
            << file << " differs from direct runs";
    };
    OmpExperiment barrier;
    barrier.primitive = OmpPrimitive::Barrier;
    expect_csv("omp_barrier.csv", barrier);
    for (DataType t : all_data_types) {
        OmpExperiment update;
        update.primitive = OmpPrimitive::AtomicUpdate;
        update.dtype = t;
        update.affinity = Affinity::System;
        expect_csv("omp_atomic_update_" + std::string(dataTypeName(t)) +
                       ".csv",
                   update);
        OmpExperiment flush;
        flush.primitive = OmpPrimitive::Flush;
        flush.dtype = t;
        flush.location = Location::PrivateArray;
        flush.stride = 16;
        flush.affinity = Affinity::Close;
        expect_csv("omp_flush_s16_" + std::string(dataTypeName(t)) +
                       ".csv",
                   flush);
    }
    fs::remove_all(base);
}

TEST_F(SimCacheTest, CpuCacheHitsReplayIdenticalTelemetry)
{
    // A served launch must contribute the stored telemetry of its
    // simulation: the accumulated sample equals a direct run's, which
    // simulates every launch.
    auto protocol = cpuProtocol();
    protocol.telemetry = true;
    const auto cpu = cpusim::CpuConfig::system2();
    CpuSimTarget target(cpu, protocol);
    OmpExperiment exp;
    exp.primitive = OmpPrimitive::AtomicUpdate;

    target.measure(exp, 4);
    EXPECT_GT(hits(), 0);

    const auto a = target.takeTelemetry();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, directCpuRun(cpu, protocol, exp, 4).telemetry)
        << "served launches dropped or altered telemetry";
    ASSERT_EQ(a.histograms.count("cpu.acq_wait_ticks"), 1u);

    // takeTelemetry drains the accumulator.
    EXPECT_TRUE(target.takeTelemetry().empty());
}

TEST_F(SimCacheTest, GpuCacheHitsReplayIdenticalTelemetry)
{
    auto protocol = gpuProtocol();
    protocol.telemetry = true;
    const auto gpu = gpusim::GpuConfig::rtx4090();
    GpuSimTarget target(gpu, protocol);
    CudaExperiment exp;
    exp.primitive = CudaPrimitive::AtomicAdd;

    target.measure(exp, {2, 64});
    EXPECT_GT(hits(), 0);

    const auto a = target.takeTelemetry();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, directGpuRun(gpu, protocol, exp, {2, 64}).telemetry)
        << "served launches dropped or altered telemetry";
    ASSERT_EQ(a.histograms.count("gpu.atomic_wait_ticks"), 1u);
}

TEST_F(SimCacheTest, TelemetryOffKeepsAccumulatorEmpty)
{
    CpuSimTarget target(cpusim::CpuConfig::system2(), cpuProtocol());
    OmpExperiment exp;
    exp.primitive = OmpPrimitive::Barrier;
    target.measure(exp, 4);
    EXPECT_TRUE(target.takeTelemetry().empty());
}

TEST_F(SimCacheTest, CacheCountersAreDeterministicClass)
{
    // The jobs-1 vs jobs-N equality itself is covered by the campaign
    // metrics tests; this pins the classification that puts the cache
    // counters inside that comparison.
    EXPECT_TRUE(metrics::counterIsDeterministic(
        metrics::Counter::SimCacheHits));
    EXPECT_TRUE(metrics::counterIsDeterministic(
        metrics::Counter::SimCacheMisses));
}

} // namespace
} // namespace syncperf::core
