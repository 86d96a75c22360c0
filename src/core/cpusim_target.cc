/**
 * @file
 * Implementation of the cpusim measurement target.
 */

#include "cpusim_target.hh"

#include "common/logging.hh"

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
    : SimTarget(cfg, cfg.base_clock_ghz, mcfg, seed, std::move(memo))
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

void
CpuSimTarget::machineFor(Affinity affinity)
{
    // A machine serves one placement.
    if (!machine_ || machine_affinity_ != affinity) {
        machine_ = std::make_unique<cpusim::CpuMachine>(cfg_, affinity);
        machine_affinity_ = affinity;
    }
}

std::uint64_t
CpuSimTarget::laneKey(const OmpExperiment &exp, int n_threads)
{
    const auto pair =
        buildPrograms(exp, n_threads, mcfg_.opsPerMeasurement());
    machineFor(exp.affinity);
    ConfigHasher h;
    h.add(static_cast<int>(exp.affinity))
        .add(decode(pair.baseline).fingerprint)
        .add(decode(pair.test).fingerprint);
    return h.digest();
}

CpuSimTarget::Launch
CpuSimTarget::prepare(const std::vector<cpusim::CpuProgram> &programs,
                      Affinity affinity)
{
    // The fingerprint already folds the team size.
    ConfigHasher fields;
    fields.add(static_cast<int>(affinity));
    for (const auto &prog : programs)
        fields.add(static_cast<std::uint64_t>(prog.iterations));
    return keyLaunch(fields, programs,
                     [&programs](cpusim::CpuMachine &machine, int warmup,
                                 std::uint64_t seed) {
                         return machine.run(programs, warmup, seed)
                             .thread_cycles;
                     });
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
    machineFor(exp.affinity);
    const Launch baseline = prepare(pair.baseline, exp.affinity);
    const Launch test = prepare(pair.test, exp.affinity);
    return measureLaunches(baseline, test);
}

} // namespace syncperf::core
