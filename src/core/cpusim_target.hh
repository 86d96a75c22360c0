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
#include <utility>
#include <vector>

#include "core/launch_memo.hh"
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
 * launch an independent deterministic jitter stream (so the
 * protocol's runs/attempts see run-to-run variation exactly where
 * the model has jitter), its own machine instance (a warm event queue
 * across the thousands of launches a sweep performs), and the launch
 * memo it shares with the other targets of its campaign.
 *
 * A launch's memo key is everything its outcome depends on: the
 * placement, the warmup, every program's iteration count, the
 * fingerprint of the decoded image (which folds the team size), and
 * -- only when the model draws jitter (cfg.jitter_frac != 0, the
 * paper's Threadripper) -- the seed. A served launch is therefore
 * bit-identical to simulating it. Seeds are consumed by every launch, so two targets
 * that measure points with equal images walk equal seed sequences and
 * share even their jittered launches.
 */
class CpuSimTarget
{
  public:
    /**
     * @param memo The launch memo to consult; null gives the target a
     *        private one.
     */
    CpuSimTarget(cpusim::CpuConfig cfg, MeasurementConfig mcfg,
                 std::uint64_t seed = 1,
                 std::shared_ptr<LaunchMemo> memo = nullptr);

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
     * A digest of the placement policy plus the decoded-image
     * fingerprints of @p exp's baseline/test pair at @p n_threads.
     * Nothing calls it: it stays only because perfbench's layer probe
     * links against it.
     */
    std::uint64_t laneKey(const OmpExperiment &exp, int n_threads);

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
        const std::vector<cpusim::CpuProgram> *programs = nullptr;
        std::uint64_t key = 0; ///< memo key, short of the seed
    };

    /** Compute the memo key of launching @p p with @p affinity. */
    Launch prepare(const std::vector<cpusim::CpuProgram> &p,
                   Affinity affinity);

    /**
     * Serve one launch from the memo (simulating it on first
     * request) and return its slowest thread's runtime in seconds,
     * after any active fault injector has perturbed or poisoned it.
     */
    double runOnce(const Launch &launch);

    /** Simulate @p launch on the machine with @p seed. */
    LaunchOutcome simulate(const Launch &launch, std::uint64_t seed);

    /** The target's machine, rebuilt when the affinity changes. */
    cpusim::CpuMachine &machineFor(Affinity affinity);

    /**
     * The fingerprint of @p p decoded on the current machine (one
     * decode, counted in pool_cold_builds).
     */
    std::uint64_t fingerprint(const std::vector<cpusim::CpuProgram> &p);

    cpusim::CpuConfig cfg_;
    MeasurementConfig mcfg_;
    std::uint64_t next_seed_;

    std::unique_ptr<cpusim::CpuMachine> machine_;
    Affinity machine_affinity_ = Affinity::Spread;

    std::shared_ptr<LaunchMemo> memo_;

    /** Accumulates across launches until takeTelemetry(). */
    TelemetrySample telemetry_;

    /** Accumulates across every launch, simulated or served. */
    sim::LoopBatchCounters lb_;
};

} // namespace syncperf::core

#endif // SYNCPERF_CORE_CPUSIM_TARGET_HH
