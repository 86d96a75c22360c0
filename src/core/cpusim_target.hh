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
#include <vector>

#include "core/primitives.hh"
#include "core/sim_target.hh"
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
 * Measurement target backed by cpusim: the engine over a CpuMachine,
 * rebuilt when the placement changes, with the Listing 2 programs of
 * each point. Its launches key on the placement and every program's
 * iteration count (see SimTarget for the rest of the key).
 */
class CpuSimTarget : public SimTarget<cpusim::CpuMachine>
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

    /**
     * A digest of the placement policy plus the decoded-image
     * fingerprints of @p exp's baseline/test pair at @p n_threads.
     * Nothing calls it: it stays only because perfbench's layer probe
     * links against it.
     */
    std::uint64_t laneKey(const OmpExperiment &exp, int n_threads);

  private:
    /** Key the launch of @p programs with @p affinity. */
    Launch prepare(const std::vector<cpusim::CpuProgram> &programs,
                   Affinity affinity);

    /** Make the machine for @p affinity unless it is current. */
    void machineFor(Affinity affinity);

    Affinity machine_affinity_ = Affinity::Spread;
};

} // namespace syncperf::core

#endif // SYNCPERF_CORE_CPUSIM_TARGET_HH
