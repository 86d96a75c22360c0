/**
 * @file
 * Implementation of the cpusim measurement target.
 */

#include "cpusim_target.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "core/manifest.hh"
#include "sim/fault_injector.hh"

namespace syncperf::core
{
namespace
{

using cpusim::CpuOp;
using cpusim::CpuOpKind;
using cpusim::CpuProgram;

// Simulated address layout: well-separated variables and arrays.
constexpr std::uint64_t shared_var_addr = 0x1000;
constexpr std::uint64_t shared_var2_addr = 0x2000;  // second write target
constexpr std::uint64_t lock_addr = 0x3000;
constexpr std::uint64_t critical_data_addr = 0x4000;
constexpr std::uint64_t array_a_addr = 0x100000;
constexpr std::uint64_t array_b_addr = 0x200000;

CpuOp
op(CpuOpKind kind, std::uint64_t addr, DataType dtype)
{
    CpuOp o;
    o.kind = kind;
    o.addr = addr;
    o.dtype = dtype;
    return o;
}

/** Target address for a thread's private slot. */
std::uint64_t
slotAddr(std::uint64_t base, int tid, int stride, DataType dtype)
{
    return base + static_cast<std::uint64_t>(tid) * stride *
                      dataTypeSize(dtype);
}

/** One inner-loop iteration's ops for @p exp, with @p copies of the
 * measured primitive (1 = baseline, 2 = test). */
std::vector<CpuOp>
buildBody(const OmpExperiment &exp, int tid, int copies)
{
    const DataType t = exp.dtype;
    std::vector<CpuOp> body;

    const std::uint64_t target =
        exp.location == Location::SharedVariable
            ? shared_var_addr
            : slotAddr(array_a_addr, tid, exp.stride, t);

    switch (exp.primitive) {
      case OmpPrimitive::Barrier:
        for (int c = 0; c < copies; ++c)
            body.push_back(op(CpuOpKind::Barrier, 0, t));
        break;

      case OmpPrimitive::AtomicUpdate:
      case OmpPrimitive::AtomicCapture:
        // Capture additionally reads the old value into a register,
        // which costs nothing extra on the modeled CPUs (the paper
        // found capture and update indistinguishable).
        for (int c = 0; c < copies; ++c)
            body.push_back(op(CpuOpKind::AtomicRmw, target, t));
        break;

      case OmpPrimitive::AtomicRead:
        // Baseline: plain read. Test: the same read, atomically.
        body.push_back(op(copies == 1 ? CpuOpKind::Load
                                      : CpuOpKind::AtomicLoad,
                          target, t));
        break;

      case OmpPrimitive::AtomicWrite:
        // Baseline writes one shared location; the test writes a
        // second shared location on a separate cache line (Fig 4).
        body.push_back(op(CpuOpKind::AtomicStore, shared_var_addr, t));
        if (copies > 1)
            body.push_back(op(CpuOpKind::AtomicStore, shared_var2_addr, t));
        break;

      case OmpPrimitive::Critical:
        for (int c = 0; c < copies; ++c) {
            CpuOp acq = op(CpuOpKind::LockAcquire, lock_addr, t);
            acq.lock_id = 0;
            body.push_back(acq);
            body.push_back(op(CpuOpKind::Load, critical_data_addr, t));
            body.push_back(op(CpuOpKind::Alu, 0, t));
            body.push_back(op(CpuOpKind::Store, critical_data_addr, t));
            CpuOp rel = op(CpuOpKind::LockRelease, lock_addr, t);
            rel.lock_id = 0;
            body.push_back(rel);
        }
        break;

      case OmpPrimitive::Flush: {
        // Increment a private element of each of two arrays; the
        // test inserts the flush between the increments (Fig 6).
        const std::uint64_t a = slotAddr(array_a_addr, tid, exp.stride, t);
        const std::uint64_t b = slotAddr(array_b_addr, tid, exp.stride, t);
        body.push_back(op(CpuOpKind::Load, a, t));
        body.push_back(op(CpuOpKind::Alu, 0, t));
        body.push_back(op(CpuOpKind::Store, a, t));
        if (copies > 1)
            body.push_back(op(CpuOpKind::Fence, 0, t));
        body.push_back(op(CpuOpKind::Load, b, t));
        body.push_back(op(CpuOpKind::Alu, 0, t));
        body.push_back(op(CpuOpKind::Store, b, t));
        break;
      }
    }
    return body;
}

} // namespace

CpuSimTarget::CpuSimTarget(cpusim::CpuConfig cfg, MeasurementConfig mcfg,
                           std::uint64_t seed,
                           std::shared_ptr<LaunchMemo> memo)
    : cfg_(std::move(cfg)), mcfg_(mcfg), next_seed_(seed),
      memo_(memo ? std::move(memo) : std::make_shared<LaunchMemo>())
{
}

OmpProgramPair
CpuSimTarget::buildPrograms(const OmpExperiment &exp, int n_threads,
                            long iterations)
{
    SYNCPERF_ASSERT(n_threads >= 1);
    OmpProgramPair pair;
    for (int tid = 0; tid < n_threads; ++tid) {
        CpuProgram base;
        base.body = buildBody(exp, tid, 1);
        base.iterations = iterations;
        pair.baseline.push_back(std::move(base));

        CpuProgram test;
        test.body = buildBody(exp, tid, 2);
        test.iterations = iterations;
        pair.test.push_back(std::move(test));
    }
    return pair;
}

cpusim::CpuMachine &
CpuSimTarget::machineFor(Affinity affinity)
{
    // A machine serves one placement.
    if (!machine_ || machine_affinity_ != affinity) {
        machine_ = std::make_unique<cpusim::CpuMachine>(cfg_, affinity);
        machine_affinity_ = affinity;
    }
    return *machine_;
}

std::uint64_t
CpuSimTarget::fingerprint(const std::vector<cpusim::CpuProgram> &programs)
{
    metrics::add(metrics::Counter::PoolColdBuilds);
    return machine_->decode(programs).fingerprint;
}

std::uint64_t
CpuSimTarget::laneKey(const OmpExperiment &exp, int n_threads)
{
    const auto pair =
        buildPrograms(exp, n_threads, mcfg_.opsPerMeasurement());
    machineFor(exp.affinity);
    ConfigHasher h;
    h.add(static_cast<int>(exp.affinity))
        .add(fingerprint(pair.baseline))
        .add(fingerprint(pair.test));
    return h.digest();
}

CpuSimTarget::Launch
CpuSimTarget::prepare(const std::vector<cpusim::CpuProgram> &programs,
                      Affinity affinity)
{
    // simulate() runs the launch on the machine for its placement.
    machineFor(affinity);
    // The fingerprint already folds the team size.
    ConfigHasher h;
    h.add(static_cast<int>(affinity)).add(mcfg_.n_warmup);
    for (const auto &prog : programs)
        h.add(static_cast<std::uint64_t>(prog.iterations));
    h.add(fingerprint(programs));
    return {&programs, h.digest()};
}

double
CpuSimTarget::runOnce(const Launch &launch)
{
    // Every launch consumes a seed, served or not, so two targets
    // measuring points with equal images walk equal seed sequences.
    const std::uint64_t seed = next_seed_++;
    // Only a jittered model draws from the seed's stream; without
    // jitter the outcome does not depend on it.
    std::uint64_t key = launch.key;
    if (cfg_.jitter_frac != 0.0)
        key = ConfigHasher().add(key).add(seed).digest();
    const LaunchOutcome &outcome =
        memo_->serve(key, [&] { return simulate(launch, seed); });
    if (mcfg_.telemetry)
        telemetry_.merge(outcome.telemetry);
    lb_.merge(outcome.loop_batch);
    return sim::FaultInjector::reportLaunch(outcome.seconds);
}

LaunchOutcome
CpuSimTarget::simulate(const Launch &launch, std::uint64_t seed)
{
    cpusim::CpuMachine &machine = *machine_;
    metrics::add(metrics::Counter::PoolClones);
    machine.setLoopBatch(mcfg_.loop_batch);
    const std::uint64_t events = machine.eventQueue().executed();
    const auto result = machine.run(*launch.programs, mcfg_.n_warmup, seed);
    LaunchOutcome outcome;
    // Max in ticks, then one conversion: the cast and the division by
    // a positive clock are monotone, so this is bit-identical to
    // converting every entry and taking the max.
    const sim::Tick slowest = std::ranges::max(result.thread_cycles);
    outcome.seconds =
        static_cast<double>(slowest) / (cfg_.base_clock_ghz * 1e9);
    outcome.loop_batch = machine.loopBatch();
    outcome.events = machine.eventQueue().executed() - events;
    if (mcfg_.telemetry)
        outcome.telemetry.addStats(machine.stats());
    return outcome;
}

TelemetrySample
CpuSimTarget::takeTelemetry()
{
    TelemetrySample taken = std::move(telemetry_);
    telemetry_ = TelemetrySample{};
    return taken;
}

Measurement
CpuSimTarget::measure(const OmpExperiment &exp, int n_threads)
{
    if (n_threads > cfg_.totalHwThreads()) {
        fatal("{} threads exceed {} hardware threads of {}", n_threads,
              cfg_.totalHwThreads(), cfg_.name);
    }
    const auto pair =
        buildPrograms(exp, n_threads, mcfg_.opsPerMeasurement());
    const Launch baseline = prepare(pair.baseline, exp.affinity);
    const Launch test = prepare(pair.test, exp.affinity);
    return measurePrimitive([&] { return runOnce(baseline); },
                            [&] { return runOnce(test); }, mcfg_);
}

} // namespace syncperf::core
