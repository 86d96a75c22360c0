/**
 * @file
 * Adapter that runs OpenMP-primitive experiments on the CPU timing
 * model, translating each OmpExperiment into baseline/test thread
 * programs per the paper's Listing 2 template.
 */

#ifndef SYNCPERF_CORE_CPUSIM_TARGET_HH
#define SYNCPERF_CORE_CPUSIM_TARGET_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/measure_config.hh"
#include "core/primitives.hh"
#include "core/protocol.hh"
#include "core/telemetry.hh"
#include "cpusim/machine.hh"

namespace syncperf::core
{

/** Baseline and test programs for one experiment point. */
struct OmpProgramPair
{
    std::vector<cpusim::CpuProgram> baseline;
    std::vector<cpusim::CpuProgram> test;
};

/**
 * Measurement target backed by cpusim.
 *
 * Holds the machine configuration, a seed counter that gives every
 * simulated launch an independent deterministic jitter stream (so
 * the protocol's runs/attempts see run-to-run variation exactly
 * where the model has jitter), its own machine instance (warm event
 * queue and decoded program images across the thousands of launches
 * a sweep performs), and a result cache keyed by the simulated input.
 *
 * The cache only ever serves jitter-free configurations
 * (cfg.jitter_frac == 0), where a launch's outcome is a pure
 * function of (programs, affinity, warmup) -- a hit is bit-identical
 * to re-simulating. Jittered models (the paper's Threadripper) take
 * a fresh seed per launch and always re-simulate. Seeds are consumed
 * on hits too, so cache state never shifts the jitter stream.
 */
class CpuSimTarget
{
  public:
    CpuSimTarget(cpusim::CpuConfig cfg, MeasurementConfig mcfg,
                 std::uint64_t seed = 1);

    /**
     * Run the full measurement protocol for one experiment point.
     *
     * @param exp The primitive and its parameters.
     * @param n_threads Team size (the paper sweeps 2..max HW threads).
     */
    Measurement measure(const OmpExperiment &exp, int n_threads);

    /**
     * Build the baseline/test program pair (exposed for tests).
     *
     * @param iterations Timed body repetitions per thread.
     */
    static OmpProgramPair buildPrograms(const OmpExperiment &exp,
                                        int n_threads, long iterations);

    const cpusim::CpuConfig &config() const { return cfg_; }

    /**
     * Lane-grouping key for @p exp at @p n_threads: a digest of the
     * placement policy plus the decoded-image fingerprints of the
     * baseline/test program pair. Points with equal keys at every
     * swept team size perform bit-identical measurement walks (the
     * campaign's lane-lockstep agreement test). As a side effect the
     * pair's images are built on the target's machine, so the decode
     * doubles as the image measure() replays.
     */
    std::uint64_t laneKey(const OmpExperiment &exp, int n_threads);

    /**
     * The seed the next simulated launch will consume. Lane peeling
     * hands this to the solo target that takes over a diverged lane,
     * keeping its jitter stream exactly where a never-grouped run of
     * that point would be.
     */
    std::uint64_t seedCursor() const { return next_seed_; }

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
    /** Simulate one launch, filling @p out with per-thread seconds. */
    void runOnce(const std::vector<cpusim::CpuProgram> &p,
                 Affinity affinity, std::vector<double> &out);

    /** The target's machine, rebuilt when the affinity changes. */
    cpusim::CpuMachine &machineFor(Affinity affinity);

    /**
     * Make sure the current machine holds the image of @p p under
     * @p dkey, decoding it (counted in pool_cold_builds) when absent.
     * Returns true when the image was already there.
     */
    bool ensureImage(std::uint64_t dkey,
                     const std::vector<cpusim::CpuProgram> &p);

    /** Digest of everything a jitter-free launch's outcome depends on. */
    std::uint64_t cacheKey(const std::vector<cpusim::CpuProgram> &p,
                           Affinity affinity) const;

    /**
     * Digest of everything the decoded form of @p p depends on
     * within the target's machine: the program bodies, never warmup,
     * placement, or iteration counts. Non-zero by construction --
     * key 0 is the machines' "decode normally" sentinel.
     */
    static std::uint64_t
    imageKey(const std::vector<cpusim::CpuProgram> &p);

    /** Pure simulator output (pre fault injection) of one launch. */
    struct CacheEntry
    {
        std::vector<double> seconds;
        TelemetrySample telemetry;
    };

    cpusim::CpuConfig cfg_;
    MeasurementConfig mcfg_;
    std::uint64_t next_seed_;

    std::unique_ptr<cpusim::CpuMachine> machine_;
    Affinity machine_affinity_ = Affinity::Spread;

    std::unordered_map<std::uint64_t, CacheEntry> cache_;

    /** Accumulates across launches until takeTelemetry(). */
    TelemetrySample telemetry_;

    /** Accumulates across every simulated (non-cache-hit) launch. */
    sim::LoopBatchCounters lb_;
};

} // namespace syncperf::core

#endif // SYNCPERF_CORE_CPUSIM_TARGET_HH
