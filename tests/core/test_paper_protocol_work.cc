/**
 * @file
 * Exact work pins at the paper's loop length: points measured
 * through the sim targets with MeasurementConfig::paperDefaults()
 * (9 runs x 7 attempts of 1,000 x 100 timed iterations), pinning the
 * target's loop-batching counters and the events the measurement
 * simulated. The campaign's counter pins (the `.counters` files in
 * tests/digests) run 30 x 5 iterations, where the batcher's window
 * never grows past a few boundaries; these points catch a schedule
 * change that only shows at the paper's length. A change to the batcher that moves them
 * re-blesses the constants here, with old and new values in
 * CHANGES.md.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/metrics.hh"
#include "core/cpusim_target.hh"
#include "core/gpusim_target.hh"

namespace syncperf::core
{
namespace
{

/** The work one measurement did. */
struct Work
{
    sim::LoopBatchCounters lb;
    long long sim_events = 0;
};

/** Measure one point on the fresh @p target and return its work. */
template <class Target, class Experiment, class Shape>
Work
measure(Target &&target, const Experiment &exp, Shape shape)
{
    const long long events_before =
        metrics::value(metrics::Counter::SimEvents);
    const auto m = target.measure(exp, shape);
    EXPECT_TRUE(m.valid) << m.error;
    return {target.loopBatch(),
            metrics::value(metrics::Counter::SimEvents) - events_before};
}

/** Measure Fig. 6's stride-1 `int` flush point, as the campaign
 * builds it, at @p n_threads on System 2. */
Work
measureFlush(int n_threads)
{
    OmpExperiment e;
    e.primitive = OmpPrimitive::Flush;
    e.dtype = DataType::Int32;
    e.location = Location::PrivateArray;
    e.stride = 1;
    e.affinity = Affinity::Close;
    return measure(CpuSimTarget(cpusim::CpuConfig::system2(),
                                MeasurementConfig::paperDefaults()),
                   e, n_threads);
}

void
expectWork(const Work &w, std::uint64_t batched_iters,
           std::uint64_t total_iters, std::uint64_t windows,
           std::uint64_t fallbacks, long long sim_events)
{
    EXPECT_EQ(w.lb.batched_iters, batched_iters);
    EXPECT_EQ(w.lb.total_iters, total_iters);
    EXPECT_EQ(w.lb.windows, windows);
    EXPECT_EQ(w.lb.fallbacks, fallbacks);
    EXPECT_EQ(w.sim_events, sim_events);
}

TEST(PaperProtocolWork, FlushAt22Threads)
{
    expectWork(measureFlush(22), 276'727'248, 277'200'000, 315, 13'293,
               52'042);
}

TEST(PaperProtocolWork, FlushAt34Threads)
{
    expectWork(measureFlush(34), 428'162'112, 428'400'000, 252, 59'472,
               27'406);
}

// Fig. 10's per-thread atomicAdd on the RTX 2070 Super: a launch
// that both batches and falls back.
TEST(PaperProtocolWork, RtxAtomicAddBatchesAndFallsBack)
{
    CudaExperiment exp;
    exp.primitive = CudaPrimitive::AtomicAdd;
    exp.dtype = DataType::Int32;
    exp.location = Location::PrivateArray;
    exp.stride = 1;
    expectWork(measure(GpuSimTarget(gpusim::GpuConfig::rtx2070Super(),
                                    MeasurementConfig::paperDefaults()),
                       exp, gpusim::LaunchConfig{40, 256}),
               4'031'818'560, 4'032'000'000, 126, 189, 7'680);
}

} // namespace
} // namespace syncperf::core
