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
#include <utility>
#include <vector>

#include "core/launch_memo.hh"
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
 * Owns one machine instance reused across launches (a warm event
 * queue) and consults the launch memo it shares with the other
 * targets of its campaign.
 *
 * A launch's memo key is everything its outcome depends on: the grid
 * geometry, the warmup, body_iters, the fingerprint of the decoded
 * kernel image, and -- only for a kernel with a system-scope fence,
 * the one op that draws PCIe jitter, on every fence it executes --
 * the seed. A served launch is therefore bit-identical to simulating
 * it. Seeds are consumed by every launch, so two targets that measure
 * points with equal images walk equal seed sequences and share even
 * their jittered launches.
 */
class GpuSimTarget
{
  public:
    /**
     * @param memo The launch memo to consult; null gives the target a
     *        private one.
     */
    GpuSimTarget(gpusim::GpuConfig cfg, MeasurementConfig mcfg,
                 std::uint64_t seed = 1,
                 std::shared_ptr<LaunchMemo> memo = nullptr);

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
     * A digest of the decoded-image fingerprints of @p exp's
     * baseline/test kernel pair. Nothing calls it: it stays only
     * because perfbench's layer probe links against it.
     */
    std::uint64_t laneKey(const CudaExperiment &exp);

    /** Block counts the paper sweeps for this device. */
    std::vector<int> paperBlockCounts() const;

    /**
     * Telemetry accumulated by every launch since the last take
     * (all runs/attempts/retries of the measure() calls in between),
     * and reset the accumulator. Empty unless mcfg.telemetry is set.
     * A served launch contributes the stored telemetry of its
     * simulation, so the sample does not depend on who simulated it.
     */
    TelemetrySample takeTelemetry();

    /**
     * Loop-batching activity summed over every launch this target
     * consumed, simulated or served, so it does not depend on the
     * schedule. Feeds the --explain batch-ratio annotation.
     */
    const sim::LoopBatchCounters &loopBatch() const { return lb_; }

  private:
    /** One launch the protocol repeats, keyed. */
    struct Launch
    {
        const gpusim::GpuKernel *kernel = nullptr;
        gpusim::LaunchConfig geometry;
        std::uint64_t key = 0; ///< memo key, short of the seed
        bool jittered = false; ///< has a system-scope fence
    };

    /** Compute the memo key of launching @p kernel on @p geometry. */
    Launch prepare(const gpusim::GpuKernel &kernel,
                   gpusim::LaunchConfig geometry);

    /**
     * Serve one launch from the memo (simulating it on first
     * request) and return its slowest warp's runtime in seconds,
     * after any active fault injector has perturbed or poisoned it.
     */
    double runOnce(const Launch &launch);

    /** Simulate @p launch on the machine with @p seed. */
    LaunchOutcome simulate(const Launch &launch, std::uint64_t seed);

    /**
     * The fingerprint of @p kernel decoded on the machine (one
     * decode, counted in pool_cold_builds).
     */
    std::uint64_t fingerprint(const gpusim::GpuKernel &kernel);

    gpusim::GpuConfig cfg_;
    MeasurementConfig mcfg_;
    std::uint64_t next_seed_;

    std::unique_ptr<gpusim::GpuMachine> machine_;

    std::shared_ptr<LaunchMemo> memo_;

    /** Accumulates across launches until takeTelemetry(). */
    TelemetrySample telemetry_;

    /** Accumulates across every launch, simulated or served. */
    sim::LoopBatchCounters lb_;
};

} // namespace syncperf::core

#endif // SYNCPERF_CORE_GPUSIM_TARGET_HH
