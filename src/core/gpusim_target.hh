/**
 * @file
 * Adapter that runs CUDA-primitive experiments on the GPU timing
 * model, translating each CudaExperiment into baseline/test kernels
 * per the paper's Listing 3 template.
 */

#ifndef SYNCPERF_CORE_GPUSIM_TARGET_HH
#define SYNCPERF_CORE_GPUSIM_TARGET_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/measure_config.hh"
#include "core/primitives.hh"
#include "core/protocol.hh"
#include "core/telemetry.hh"
#include "gpusim/machine.hh"

namespace syncperf::core
{

/** Baseline and test kernels for one experiment point. */
struct CudaKernelPair
{
    gpusim::GpuKernel baseline;
    gpusim::GpuKernel test;
};

/**
 * Measurement target backed by gpusim.
 *
 * Owns one machine instance reused across launches (warm event queue
 * and decoded kernel images) and memoizes results keyed by the
 * simulated input.
 * Only kernels without a system-scope fence are cached: every other
 * op sequence is deterministic per (kernel, launch, warmup), so a
 * hit is bit-identical to re-simulating, while __threadfence_system
 * draws per-launch PCIe jitter and always re-simulates. Seeds are
 * consumed on hits too, so cache state never shifts the jitter
 * stream.
 */
class GpuSimTarget
{
  public:
    GpuSimTarget(gpusim::GpuConfig cfg, MeasurementConfig mcfg,
                 std::uint64_t seed = 1);

    /**
     * Run the full measurement protocol for one experiment point.
     *
     * @param exp The primitive and its parameters.
     * @param launch Grid geometry (the paper sweeps blocks in
     *        {1, 2, SMs/2, SMs, 2*SMs} and threads in powers of two
     *        up to 1024).
     */
    Measurement measure(const CudaExperiment &exp,
                        gpusim::LaunchConfig launch);

    /** Build the baseline/test kernel pair (exposed for tests). */
    static CudaKernelPair buildKernels(const CudaExperiment &exp,
                                       long body_iters);

    const gpusim::GpuConfig &config() const { return cfg_; }

    /**
     * Lane-grouping key for @p exp: a digest of the decoded-image
     * fingerprints of the baseline/test kernel pair. Decoding is
     * launch-geometry independent, so equal keys mean bit-identical
     * measurement walks at every swept geometry (the campaign's
     * lane-lockstep agreement test). As a side effect the pair's
     * images are built on the target's machine, so the decode doubles
     * as the image measure() replays.
     */
    std::uint64_t laneKey(const CudaExperiment &exp);

    /**
     * The seed the next simulated launch will consume. Lane peeling
     * hands this to the solo target that takes over a diverged lane,
     * keeping its jitter stream exactly where a never-grouped run of
     * that point would be.
     */
    std::uint64_t seedCursor() const { return next_seed_; }

    /** Block counts the paper sweeps for this device. */
    std::vector<int> paperBlockCounts() const;

    /**
     * Telemetry accumulated by every launch since the last take
     * (all runs/attempts/retries of the measure() calls in between),
     * and reset the accumulator. Empty unless mcfg.telemetry is set.
     * Cache hits contribute the stored telemetry of the original
     * simulation, so the sample is independent of cache state.
     */
    TelemetrySample takeTelemetry();

    /**
     * Loop-batching activity accumulated over every launch this
     * target actually simulated (cache hits replay stored results
     * and add nothing). Feeds the loop_batch_* metrics counters and
     * the --explain batch-ratio annotation.
     */
    const sim::LoopBatchCounters &loopBatch() const { return lb_; }

  private:
    /**
     * Simulate (or replay from the cache) one launch and return its
     * slowest warp's runtime in seconds, after any active fault
     * injector has perturbed or poisoned it.
     */
    double runOnce(const gpusim::GpuKernel &kernel,
                   gpusim::LaunchConfig launch);

    /** Digest of everything a jitter-free launch's outcome depends on. */
    std::uint64_t cacheKey(const gpusim::GpuKernel &kernel,
                           gpusim::LaunchConfig launch) const;

    /**
     * Digest of everything the decoded form of @p kernel depends on
     * within the target's machine: the op sequences, never warmup,
     * launch geometry, or body_iters. Non-zero by construction -- key
     * 0 is the machine's "decode normally" sentinel.
     */
    static std::uint64_t imageKey(const gpusim::GpuKernel &kernel);

    /**
     * Make sure the machine holds the image of @p kernel under
     * @p dkey, decoding it (counted in pool_cold_builds) when absent.
     * Returns true when the image was already there.
     */
    bool ensureImage(std::uint64_t dkey, const gpusim::GpuKernel &kernel);

    /** Pure simulator output (pre fault injection) of one launch:
     * its slowest warp's seconds. */
    struct CacheEntry
    {
        double seconds = 0.0;
        TelemetrySample telemetry;
    };

    gpusim::GpuConfig cfg_;
    MeasurementConfig mcfg_;
    std::uint64_t next_seed_;

    std::unique_ptr<gpusim::GpuMachine> machine_;

    std::unordered_map<std::uint64_t, CacheEntry> cache_;

    /** Accumulates across launches until takeTelemetry(). */
    TelemetrySample telemetry_;

    /** Accumulates across every simulated (non-cache-hit) launch. */
    sim::LoopBatchCounters lb_;
};

} // namespace syncperf::core

#endif // SYNCPERF_CORE_GPUSIM_TARGET_HH
