/**
 * @file
 * Implementation of the gpusim measurement target.
 */

#include "gpusim_target.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "core/manifest.hh"
#include "sim/fault_injector.hh"

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

/** True when any op of @p ops is a system-scope fence (the one GPU
 * op that draws seeded jitter, on every fence it executes). */
bool
hasSystemFence(const std::vector<GpuOp> &ops)
{
    for (const auto &o : ops) {
        if (o.kind == gpusim::GpuOpKind::Fence &&
            o.scope == FenceScope::System) {
            return true;
        }
    }
    return false;
}

} // namespace

GpuSimTarget::GpuSimTarget(gpusim::GpuConfig cfg, MeasurementConfig mcfg,
                           std::uint64_t seed,
                           std::shared_ptr<LaunchMemo> memo)
    : cfg_(std::move(cfg)), mcfg_(mcfg), next_seed_(seed),
      machine_(std::make_unique<gpusim::GpuMachine>(cfg_)),
      memo_(memo ? std::move(memo) : std::make_shared<LaunchMemo>())
{
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
GpuSimTarget::fingerprint(const gpusim::GpuKernel &kernel)
{
    metrics::add(metrics::Counter::PoolColdBuilds);
    return machine_->decode(kernel).fingerprint;
}

std::uint64_t
GpuSimTarget::laneKey(const CudaExperiment &exp)
{
    const auto pair = buildKernels(exp, mcfg_.opsPerMeasurement());
    ConfigHasher h;
    h.add(fingerprint(pair.baseline)).add(fingerprint(pair.test));
    return h.digest();
}

GpuSimTarget::Launch
GpuSimTarget::prepare(const gpusim::GpuKernel &kernel,
                      gpusim::LaunchConfig geometry)
{
    ConfigHasher h;
    h.add(geometry.blocks)
        .add(geometry.threads_per_block)
        .add(mcfg_.n_warmup)
        .add(static_cast<std::uint64_t>(kernel.body_iters))
        .add(fingerprint(kernel));
    return {&kernel, geometry, h.digest(),
            hasSystemFence(kernel.prologue) ||
                hasSystemFence(kernel.body) ||
                hasSystemFence(kernel.epilogue)};
}

double
GpuSimTarget::runOnce(const Launch &launch)
{
    // Every launch consumes a seed, served or not, so two targets
    // measuring points with equal images walk equal seed sequences.
    const std::uint64_t seed = next_seed_++;
    // Only a system-scope fence draws from the seed's stream; any
    // other kernel's outcome does not depend on it.
    std::uint64_t key = launch.key;
    if (launch.jittered)
        key = ConfigHasher().add(key).add(seed).digest();
    const LaunchOutcome &outcome =
        memo_->serve(key, [&] { return simulate(launch, seed); });
    if (mcfg_.telemetry)
        telemetry_.merge(outcome.telemetry);
    lb_.merge(outcome.loop_batch);
    return sim::FaultInjector::reportLaunch(outcome.seconds);
}

LaunchOutcome
GpuSimTarget::simulate(const Launch &launch, std::uint64_t seed)
{
    gpusim::GpuMachine &machine = *machine_;
    metrics::add(metrics::Counter::PoolClones);
    machine.setLoopBatch(mcfg_.loop_batch);
    const std::uint64_t events = machine.eventQueue().executed();
    const auto result = machine.run(*launch.kernel, launch.geometry,
                                    mcfg_.n_warmup, seed);
    LaunchOutcome outcome;
    // Max in ticks, then one conversion: the cast and the division by
    // a positive clock are monotone, so this is bit-identical to
    // converting every entry and taking the max.
    const sim::Tick slowest = std::ranges::max(result.warp_cycles);
    outcome.seconds = static_cast<double>(slowest) / (cfg_.clock_ghz * 1e9);
    outcome.loop_batch = machine.loopBatch();
    outcome.events = machine.eventQueue().executed() - events;
    if (mcfg_.telemetry)
        outcome.telemetry.addStats(machine.stats());
    return outcome;
}

TelemetrySample
GpuSimTarget::takeTelemetry()
{
    TelemetrySample taken = std::move(telemetry_);
    telemetry_ = TelemetrySample{};
    return taken;
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
    return measurePrimitive([&] { return runOnce(baseline); },
                            [&] { return runOnce(test); }, mcfg_);
}

} // namespace syncperf::core
