/**
 * @file
 * Integration tests: the paper's OpenMP claims (Section V-A),
 * asserted end-to-end through the measurement protocol on the CPU
 * timing model, plus the physics gates on the telemetry that
 * explains them (false sharing, contended waits, loop-batch
 * fallbacks) over the quick campaign's sweep of every CPU preset.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/cpusim_target.hh"
#include "core/launch_memo.hh"
#include "core/recommend.hh"
#include "core/sweep.hh"
#include "core/telemetry.hh"

namespace syncperf::core
{
namespace
{

MeasurementConfig
cfg()
{
    auto c = MeasurementConfig::simDefaults();
    c.runs = 1;
    c.attempts = 1;
    return c;
}

/** Sweep thread counts and return per-thread throughput. */
std::vector<double>
sweep(CpuSimTarget &target, const OmpExperiment &exp,
      const std::vector<int> &threads)
{
    std::vector<double> out;
    for (int t : threads)
        out.push_back(target.measure(exp, t).opsPerSecondPerThread());
    return out;
}

const std::vector<int> sweep_threads{2, 4, 8, 12, 16, 24, 32};

TEST(PaperOmp, Fig1BarrierDecaysThenPlateaus)
{
    CpuSimTarget target(cpusim::CpuConfig::system3(), cfg());
    OmpExperiment exp;
    exp.primitive = OmpPrimitive::Barrier;
    exp.affinity = Affinity::Spread;
    const auto thr = sweep(target, exp, sweep_threads);

    EXPECT_TRUE(barrierPlateaus(sweep_threads, thr).supported)
        << renderFindings({{barrierPlateaus(sweep_threads, thr)}});
    // Monotone non-increasing.
    for (std::size_t i = 1; i < thr.size(); ++i)
        EXPECT_LE(thr[i], thr[i - 1] * 1.02);
    // Hyperthreads (beyond 16 cores) barely hurt.
    EXPECT_TRUE(hyperthreadingIsFine(sweep_threads, thr, 16).supported);
}

TEST(PaperOmp, Fig2AtomicUpdateCollapsesAndIntBeatsFloat)
{
    CpuSimTarget target(cpusim::CpuConfig::system3(), cfg());
    OmpExperiment exp;
    exp.primitive = OmpPrimitive::AtomicUpdate;

    std::map<DataType, std::vector<double>> thr;
    for (DataType t : all_data_types) {
        exp.dtype = t;
        thr[t] = sweep(target, exp, sweep_threads);
    }

    EXPECT_TRUE(
        contendedAtomicsCollapse(sweep_threads, thr[DataType::Int32])
            .supported);
    // Integer types beat floating-point types at every thread count.
    for (std::size_t i = 0; i < sweep_threads.size(); ++i) {
        EXPECT_GT(thr[DataType::Int32][i], thr[DataType::Float32][i]);
        EXPECT_GT(thr[DataType::UInt64][i], thr[DataType::Float64][i]);
    }
    // Word size does not matter within a class (64-bit CPUs).
    for (std::size_t i = 0; i < sweep_threads.size(); ++i) {
        EXPECT_NEAR(thr[DataType::Int32][i], thr[DataType::UInt64][i],
                    0.05 * thr[DataType::Int32][i]);
    }
}

TEST(PaperOmp, Fig3StrideKneesFollowElementSize)
{
    CpuSimTarget target(cpusim::CpuConfig::system3(), cfg());
    const std::vector<int> strides{1, 4, 8, 16};

    auto throughputAt = [&](DataType t, int stride) {
        OmpExperiment exp;
        exp.primitive = OmpPrimitive::AtomicUpdate;
        exp.location = Location::PrivateArray;
        exp.dtype = t;
        exp.stride = stride;
        return target.measure(exp, 16).opsPerSecondPerThread();
    };

    // 8-byte types escape false sharing at stride 8 (64-byte lines).
    const double ull_s4 = throughputAt(DataType::UInt64, 4);
    const double ull_s8 = throughputAt(DataType::UInt64, 8);
    EXPECT_GT(ull_s8, 3.0 * ull_s4);

    // 4-byte types need stride 16.
    const double int_s8 = throughputAt(DataType::Int32, 8);
    const double int_s16 = throughputAt(DataType::Int32, 16);
    EXPECT_GT(int_s16, 3.0 * int_s8);

    // At stride 1 the 4-byte types are at most as fast as the 8-byte
    // types (twice as many words share a line).
    EXPECT_LE(throughputAt(DataType::Int32, 1),
              throughputAt(DataType::UInt64, 1));

    // Once padding removes false sharing, integer beats floating
    // point (pure RMW cost), regardless of width.
    EXPECT_GT(throughputAt(DataType::Int32, 16),
              throughputAt(DataType::Float32, 16));

    // The recommendation rule fires on the measured series.
    std::vector<double> int_series;
    for (int s : strides)
        int_series.push_back(throughputAt(DataType::Int32, s));
    EXPECT_TRUE(
        paddingRemovesFalseSharing(strides, int_series, 16).supported);
}

TEST(PaperOmp, Fig4AtomicWriteTypeIndependentAndSystem3Jitters)
{
    CpuSimTarget target(cpusim::CpuConfig::system2(), cfg());
    OmpExperiment exp;
    exp.primitive = OmpPrimitive::AtomicWrite;

    exp.dtype = DataType::Int32;
    const auto thr_int = sweep(target, exp, sweep_threads);
    exp.dtype = DataType::Float64;
    const auto thr_dbl = sweep(target, exp, sweep_threads);
    for (std::size_t i = 0; i < thr_int.size(); ++i)
        EXPECT_NEAR(thr_int[i], thr_dbl[i], 0.02 * thr_int[i]);

    // System 3 (Threadripper) results jitter run to run; System 2's
    // do not.
    auto c = cfg();
    c.runs = 2;
    c.attempts = 2;
    CpuSimTarget sys3(cpusim::CpuConfig::system3(), c);
    exp.dtype = DataType::Int32;
    const auto m3 = sys3.measure(exp, 16);
    EXPECT_GT(m3.stddev_seconds, 0.0);

    CpuSimTarget sys2(cpusim::CpuConfig::system2(), c);
    const auto m2 = sys2.measure(exp, 16);
    EXPECT_DOUBLE_EQ(m2.stddev_seconds, 0.0);
}

TEST(PaperOmp, AtomicReadHasNoOverhead)
{
    CpuSimTarget target(cpusim::CpuConfig::system3(), cfg());
    OmpExperiment exp;
    exp.primitive = OmpPrimitive::AtomicRead;
    for (int threads : {2, 8, 32}) {
        const auto m = target.measure(exp, threads);
        EXPECT_DOUBLE_EQ(m.per_op_seconds, 0.0) << threads;
    }
}

TEST(PaperOmp, Fig5CriticalSlowerThanAtomicEverywhere)
{
    CpuSimTarget ta(cpusim::CpuConfig::system3(), cfg());
    CpuSimTarget tc(cpusim::CpuConfig::system3(), cfg());
    OmpExperiment atomic;
    atomic.primitive = OmpPrimitive::AtomicUpdate;
    OmpExperiment critical;
    critical.primitive = OmpPrimitive::Critical;
    critical.affinity = Affinity::Spread;

    const auto thr_atomic = sweep(ta, atomic, sweep_threads);
    const auto thr_critical = sweep(tc, critical, sweep_threads);
    EXPECT_TRUE(
        criticalSlowerThanAtomic(thr_atomic, thr_critical).supported);
}

TEST(PaperOmp, Fig6FlushCheapWithoutFalseSharingExpensiveWith)
{
    CpuSimTarget target(cpusim::CpuConfig::system2(), cfg());
    OmpExperiment exp;
    exp.primitive = OmpPrimitive::Flush;
    exp.location = Location::PrivateArray;
    exp.affinity = Affinity::Close;
    exp.dtype = DataType::UInt64;

    exp.stride = 1;
    const double contended =
        target.measure(exp, 32).opsPerSecondPerThread();
    exp.stride = 8;  // 8 * 8 bytes = one full line
    const double padded =
        target.measure(exp, 32).opsPerSecondPerThread();
    EXPECT_GT(padded, 5.0 * contended);

    // Without false sharing, flush throughput is flat across thread
    // counts ("little per-thread performance impact").
    const auto flat = sweep(target, exp, sweep_threads);
    for (double v : flat)
        EXPECT_NEAR(v, flat.front(), 0.2 * flat.front());
}

// ------------------------------------------------------------------
// Physics gates on the telemetry. Each runs the quick campaign's
// sweep (`campaign omp`: team sizes 2, 6, 10, ... up to the machine's
// hardware threads, strides 1, 8 and 16) with telemetry on, and pins
// the simulator to the paper's explanation of its curves.

/** One CPU preset of the paper's Table I. */
struct CpuPreset
{
    const char *name;
    cpusim::CpuConfig (*make)();
};

// Without it gtest prints the struct's pointer bytes into the test
// names, which then change from build to build.
void
PrintTo(const CpuPreset &p, std::ostream *os)
{
    *os << p.name;
}

/** Cache line size the false-sharing rule is stated for. */
constexpr std::size_t cache_line_bytes = 64;

/** Strides of the quick campaign. */
const std::vector<int> quick_strides{1, 8, 16};

/** Telemetry of one experiment: one sample per team size. */
struct TelemetrySweep
{
    std::vector<std::pair<int, TelemetrySample>> points;
    sim::LoopBatchCounters loop_batch;
};

class PaperOmpPhysics : public ::testing::TestWithParam<CpuPreset>
{
  protected:
    /** Run @p exp over the quick team sizes with telemetry on. */
    TelemetrySweep
    run(const OmpExperiment &exp)
    {
        auto c = cfg();
        c.telemetry = true;
        CpuSimTarget target(cpu_, c, 1, memo_);
        TelemetrySweep out;
        for (int n : ompThreadCounts(cpu_.totalHwThreads(), 4)) {
            const auto m = target.measure(exp, n);
            EXPECT_TRUE(m.valid) << n << " threads: " << m.error;
            out.points.emplace_back(n, target.takeTelemetry());
        }
        out.loop_batch = target.loopBatch();
        return out;
    }

    /** A strided per-thread-slot experiment, as the campaign builds it. */
    static OmpExperiment
    strided(OmpPrimitive prim, DataType t, int stride)
    {
        OmpExperiment e;
        e.primitive = prim;
        e.dtype = t;
        e.location = Location::PrivateArray;
        e.stride = stride;
        e.affinity = prim == OmpPrimitive::Flush ? Affinity::Close
                                                 : Affinity::System;
        return e;
    }

    /** A single-address experiment on the shared variable. */
    static OmpExperiment
    shared(OmpPrimitive prim, DataType t, Affinity affinity)
    {
        OmpExperiment e;
        e.primitive = prim;
        e.dtype = t;
        e.affinity = affinity;
        return e;
    }

    /** Every experiment of the quick campaign, in its order. */
    static std::vector<OmpExperiment>
    quickCampaign()
    {
        std::vector<OmpExperiment> out{
            shared(OmpPrimitive::Barrier, DataType::Int32,
                   Affinity::Spread),
            shared(OmpPrimitive::Critical, DataType::Int32,
                   Affinity::Spread),
            shared(OmpPrimitive::AtomicRead, DataType::Int32,
                   Affinity::System),
        };
        for (DataType t : all_data_types) {
            for (auto prim : {OmpPrimitive::AtomicUpdate,
                              OmpPrimitive::AtomicCapture,
                              OmpPrimitive::AtomicWrite})
                out.push_back(shared(prim, t, Affinity::System));
            for (int stride : quick_strides) {
                out.push_back(strided(OmpPrimitive::AtomicUpdate, t, stride));
                out.push_back(strided(OmpPrimitive::Flush, t, stride));
            }
        }
        return out;
    }

    cpusim::CpuConfig cpu_ = GetParam().make();
    std::shared_ptr<LaunchMemo> memo_ = std::make_shared<LaunchMemo>();
};

// Once stride x element size spans a whole 64-byte line, every thread
// owns its line, so nothing can ping-pong (Figs. 3 and 6).
TEST_P(PaperOmpPhysics, FullLineStrideNeverPingPongs)
{
    int gated = 0;
    for (DataType t : all_data_types) {
        for (int stride : quick_strides) {
            if (stride * dataTypeSize(t) < cache_line_bytes)
                continue; // threads genuinely share lines
            for (auto prim : {OmpPrimitive::AtomicUpdate,
                              OmpPrimitive::Flush}) {
                ++gated;
                for (const auto &[n, s] : run(strided(prim, t, stride)).points)
                    EXPECT_EQ(s.counter("cpu.line_ping_pong"), 0u)
                        << ompPrimitiveName(prim) << " " << dataTypeName(t)
                        << " stride " << stride << ", " << n << " threads";
            }
        }
    }
    EXPECT_EQ(gated, 12); // s16 for all four types, s8 for ull/double
}

// More threads queue longer on the contended line's exclusive service
// slot, never shorter (Fig. 2): the mean cpu.acq_wait_ticks may dip by
// at most 5% from one team size to the next, and must end above where
// it started.
TEST_P(PaperOmpPhysics, ContendedWaitGrowsWithThreads)
{
    constexpr double slack = 0.05;
    for (DataType t : all_data_types) {
        for (auto prim : {OmpPrimitive::AtomicUpdate,
                          OmpPrimitive::AtomicCapture}) {
            std::vector<std::pair<int, double>> series;
            for (const auto &[n, s] :
                 run(shared(prim, t, Affinity::System)).points) {
                const auto it = s.histograms.find("cpu.acq_wait_ticks");
                if (it != s.histograms.end())
                    series.emplace_back(n, it->second.mean());
            }
            const std::string what = std::string(ompPrimitiveName(prim)) +
                                     " " + std::string(dataTypeName(t));
            ASSERT_GE(series.size(), 2u) << what;
            for (std::size_t i = 1; i < series.size(); ++i)
                EXPECT_GE(series[i].second,
                          series[i - 1].second * (1 - slack))
                    << what << ": mean wait fell from "
                    << series[i - 1].second << " ("
                    << series[i - 1].first << " threads) to "
                    << series[i].second << " (" << series[i].first
                    << " threads)";
            EXPECT_GT(series.back().second, series.front().second)
                << what << ": no wait growth across the sweep";
        }
    }
}

// Contention shifts the timing pattern the loop batcher fingerprints,
// so a sweep that saw line ping-pongs or contended locks while the
// batcher engaged must also have seen it fall back.
TEST_P(PaperOmpPhysics, ContentionForcesLoopBatchFallbacks)
{
    std::uint64_t contention = 0;
    sim::LoopBatchCounters lb;
    for (const OmpExperiment &exp : quickCampaign()) {
        const TelemetrySweep sweep = run(exp);
        for (const auto &[n, s] : sweep.points)
            contention += s.counter("cpu.line_ping_pong") +
                          s.counter("cpu.lock_contended");
        lb.merge(sweep.loop_batch);
    }
    // A window advances at least one period, so the two engage
    // together.
    EXPECT_EQ(lb.batched_iters > 0, lb.windows > 0)
        << lb.batched_iters << " iters in " << lb.windows << " windows";
    EXPECT_GT(contention, 0u);
    EXPECT_GT(lb.batched_iters, 0u);
    EXPECT_GT(lb.fallbacks, 0u)
        << contention << " contention events, " << lb.batched_iters
        << " batched iterations";
}

INSTANTIATE_TEST_SUITE_P(
    AllCpus, PaperOmpPhysics,
    ::testing::Values(CpuPreset{"system1", &cpusim::CpuConfig::system1},
                      CpuPreset{"system2", &cpusim::CpuConfig::system2},
                      CpuPreset{"system3", &cpusim::CpuConfig::system3}),
    [](const auto &info) { return std::string(info.param.name); });

} // namespace
} // namespace syncperf::core
