/**
 * @file
 * Implementation of the gpusim measurement target.
 */

#include "gpusim_target.hh"

#include "common/logging.hh"

namespace syncperf::core
{
namespace
{

using gpusim::AddressMode;
using gpusim::AtomicOp;
using gpusim::FenceScope;
using gpusim::GpuKernel;
using gpusim::GpuOp;

// Simulated address layout.
constexpr std::uint64_t shared_var_addr = 0x1000;
constexpr std::uint64_t array_a_addr = 0x1000000;
constexpr std::uint64_t array_b_addr = 0x2000000;

/** Body ops for @p exp with @p copies of the measured primitive. */
std::vector<GpuOp>
buildBody(const CudaExperiment &exp, int copies)
{
    const DataType t = exp.dtype;
    const AddressMode amode = exp.location == Location::SharedVariable
        ? AddressMode::SingleShared
        : AddressMode::PerThread;
    std::vector<GpuOp> body;

    switch (exp.primitive) {
      case CudaPrimitive::SyncThreads:
        for (int c = 0; c < copies; ++c)
            body.push_back(GpuOp::syncThreads());
        break;

      case CudaPrimitive::SyncWarp:
        for (int c = 0; c < copies; ++c)
            body.push_back(GpuOp::syncWarp());
        break;

      case CudaPrimitive::AtomicAdd:
        for (int c = 0; c < copies; ++c) {
            body.push_back(GpuOp::globalAtomic(
                AtomicOp::Add, amode,
                amode == AddressMode::SingleShared ? shared_var_addr
                                                   : array_a_addr,
                t, exp.stride));
        }
        break;

      case CudaPrimitive::AtomicCas:
        SYNCPERF_ASSERT(isIntegerType(t),
                        "atomicCAS has no floating-point flavor");
        for (int c = 0; c < copies; ++c) {
            body.push_back(GpuOp::globalAtomic(
                AtomicOp::Cas, amode,
                amode == AddressMode::SingleShared ? shared_var_addr
                                                   : array_a_addr,
                t, exp.stride));
        }
        break;

      case CudaPrimitive::AtomicExch:
        SYNCPERF_ASSERT(isIntegerType(t),
                        "atomicExch on int/ull only in these tests");
        for (int c = 0; c < copies; ++c) {
            body.push_back(GpuOp::globalAtomic(
                AtomicOp::Exch, amode,
                amode == AddressMode::SingleShared ? shared_var_addr
                                                   : array_a_addr,
                t, exp.stride));
        }
        break;

      case CudaPrimitive::ThreadFence:
      case CudaPrimitive::ThreadFenceBlock:
      case CudaPrimitive::ThreadFenceSystem: {
        // Update a private element in each of two arrays; the test
        // fences between the updates (same setup as the OpenMP
        // flush, Fig 14).
        const FenceScope scope =
            exp.primitive == CudaPrimitive::ThreadFence
                ? FenceScope::Device
                : exp.primitive == CudaPrimitive::ThreadFenceBlock
                      ? FenceScope::Block
                      : FenceScope::System;
        body.push_back(GpuOp::globalStore(array_a_addr, t, exp.stride));
        if (copies > 1)
            body.push_back(GpuOp::fence(scope));
        body.push_back(GpuOp::globalStore(array_b_addr, t, exp.stride));
        break;
      }

      case CudaPrimitive::ShflSync:
        for (int c = 0; c < copies; ++c)
            body.push_back(GpuOp::shfl(t));
        break;

      case CudaPrimitive::VoteSync:
        for (int c = 0; c < copies; ++c)
            body.push_back(GpuOp::vote());
        break;
    }
    return body;
}

} // namespace

GpuSimTarget::GpuSimTarget(gpusim::GpuConfig cfg, MeasurementConfig mcfg,
                           std::uint64_t seed,
                           std::shared_ptr<LaunchMemo> memo)
    : SimTarget(cfg, cfg.clock_ghz, mcfg, seed, std::move(memo))
{
    machine_ = std::make_unique<gpusim::GpuMachine>(cfg_);
}

CudaKernelPair
GpuSimTarget::buildKernels(const CudaExperiment &exp, long body_iters)
{
    CudaKernelPair pair;
    pair.baseline.body = buildBody(exp, 1);
    pair.baseline.body_iters = body_iters;
    pair.test.body = buildBody(exp, 2);
    pair.test.body_iters = body_iters;
    return pair;
}

std::vector<int>
GpuSimTarget::paperBlockCounts() const
{
    return {1, 2, cfg_.sm_count / 2, cfg_.sm_count, cfg_.sm_count * 2};
}

std::uint64_t
GpuSimTarget::laneKey(const CudaExperiment &exp)
{
    const auto pair = buildKernels(exp, mcfg_.opsPerMeasurement());
    ConfigHasher h;
    h.add(decode(pair.baseline).fingerprint)
        .add(decode(pair.test).fingerprint);
    return h.digest();
}

GpuSimTarget::Launch
GpuSimTarget::prepare(const gpusim::GpuKernel &kernel,
                      gpusim::LaunchConfig geometry)
{
    ConfigHasher fields;
    fields.add(geometry.blocks)
        .add(geometry.threads_per_block)
        .add(static_cast<std::uint64_t>(kernel.body_iters));
    return keyLaunch(fields, kernel,
                     [&kernel, geometry](gpusim::GpuMachine &machine,
                                         int warmup, std::uint64_t seed) {
                         return machine.run(kernel, geometry, warmup, seed)
                             .warp_cycles;
                     });
}

Measurement
GpuSimTarget::measure(const CudaExperiment &exp,
                      gpusim::LaunchConfig launch)
{
    SYNCPERF_ASSERT(cudaPrimitiveIsTypeless(exp.primitive) ||
                    cudaPrimitiveSupports(exp.primitive, exp.dtype));
    const auto pair = buildKernels(exp, mcfg_.opsPerMeasurement());
    const Launch baseline = prepare(pair.baseline, launch);
    const Launch test = prepare(pair.test, launch);
    return measureLaunches(baseline, test);
}

} // namespace syncperf::core
