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
#include <vector>

#include "core/primitives.hh"
#include "core/sim_target.hh"
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
 * Measurement target backed by gpusim: the engine over one GpuMachine
 * with the Listing 3 kernels of each point. Its launches key on the
 * grid geometry and body_iters (see SimTarget for the rest of the
 * key).
 */
class GpuSimTarget : public SimTarget<gpusim::GpuMachine>
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

    /**
     * A digest of the decoded-image fingerprints of @p exp's
     * baseline/test kernel pair. Nothing calls it: it stays only
     * because perfbench's layer probe links against it.
     */
    std::uint64_t laneKey(const CudaExperiment &exp);

    /** Block counts the paper sweeps for this device. */
    std::vector<int> paperBlockCounts() const;

  private:
    /** Key the launch of @p kernel on @p geometry. */
    Launch prepare(const gpusim::GpuKernel &kernel,
                   gpusim::LaunchConfig geometry);
};

} // namespace syncperf::core

#endif // SYNCPERF_CORE_GPUSIM_TARGET_HH
