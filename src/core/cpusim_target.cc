/**
 * @file
 * Implementation of the cpusim measurement target.
 */

#include "cpusim_target.hh"

#include <algorithm>
#include <limits>

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
                           std::uint64_t seed)
    : cfg_(std::move(cfg)), mcfg_(mcfg), next_seed_(seed)
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
    // A machine serves one placement; a new one starts without
    // images, so what a machine holds depends only on the launches
    // of this target (the pool_* counters' --jobs invariance).
    if (!machine_ || machine_affinity_ != affinity) {
        machine_ = std::make_unique<cpusim::CpuMachine>(cfg_, affinity);
        machine_affinity_ = affinity;
    }
    return *machine_;
}

bool
CpuSimTarget::ensureImage(std::uint64_t dkey,
                          const std::vector<cpusim::CpuProgram> &programs)
{
    if (machine_->hasImage(dkey))
        return true;
    machine_->buildImage(dkey, programs);
    metrics::add(metrics::Counter::PoolColdBuilds);
    return false;
}

std::uint64_t
CpuSimTarget::cacheKey(const std::vector<cpusim::CpuProgram> &programs,
                       Affinity affinity) const
{
    ConfigHasher h;
    h.add(static_cast<int>(affinity)).add(mcfg_.n_warmup);
    h.add(static_cast<std::uint64_t>(programs.size()));
    for (const auto &prog : programs) {
        h.add(static_cast<std::uint64_t>(prog.iterations));
        h.add(static_cast<std::uint64_t>(prog.body.size()));
        for (const auto &o : prog.body) {
            h.add(static_cast<int>(o.kind))
                .add(o.addr)
                .add(static_cast<int>(o.dtype))
                .add(o.lock_id);
        }
    }
    return h.digest();
}

std::uint64_t
CpuSimTarget::imageKey(const std::vector<cpusim::CpuProgram> &programs)
{
    ConfigHasher h;
    h.add(static_cast<std::uint64_t>(programs.size()));
    for (const auto &prog : programs) {
        h.add(static_cast<std::uint64_t>(prog.body.size()));
        for (const auto &o : prog.body) {
            h.add(static_cast<int>(o.kind))
                .add(o.addr)
                .add(static_cast<int>(o.dtype))
                .add(o.lock_id);
        }
    }
    const std::uint64_t digest = h.digest();
    return digest == 0 ? 1 : digest;
}

std::uint64_t
CpuSimTarget::laneKey(const OmpExperiment &exp, int n_threads)
{
    const auto pair =
        buildPrograms(exp, n_threads, mcfg_.opsPerMeasurement());
    cpusim::CpuMachine &machine = machineFor(exp.affinity);
    const auto fingerprint =
        [&](const std::vector<cpusim::CpuProgram> &programs) {
            const std::uint64_t dkey = imageKey(programs);
            ensureImage(dkey, programs);
            return machine.imageFingerprint(dkey);
        };
    ConfigHasher h;
    h.add(static_cast<int>(exp.affinity))
        .add(fingerprint(pair.baseline))
        .add(fingerprint(pair.test));
    return h.digest();
}

double
CpuSimTarget::runOnce(const std::vector<cpusim::CpuProgram> &programs,
                      Affinity affinity)
{
    // The seed is consumed unconditionally so the stream of seeds --
    // and therefore any jittered launch that follows -- is identical
    // whether or not earlier launches hit the cache.
    const std::uint64_t seed = next_seed_++;

    // Only a jitter-free model is a pure function of its inputs;
    // with jitter_frac > 0 every launch draws from its own rng
    // stream and must be simulated.
    const bool cacheable = mcfg_.sim_cache && cfg_.jitter_frac == 0.0;

    std::uint64_t key = 0;
    bool hit = false;
    double seconds = 0.0;
    if (cacheable) {
        key = cacheKey(programs, affinity);
        if (auto it = cache_.find(key); it != cache_.end()) {
            seconds = it->second.seconds;
            // A hit replays the stored telemetry of the original
            // simulation, so the accumulated sample is identical
            // with and without the cache.
            if (mcfg_.telemetry)
                telemetry_.merge(it->second.telemetry);
            hit = true;
            metrics::add(metrics::Counter::SimCacheHits);
        }
    }
    if (!hit) {
        cpusim::CpuMachine &machine = machineFor(affinity);
        // Decode each distinct program set once per machine into an
        // image, then replay it for every later launch. The image
        // holds exactly what the decode would rebuild, so results are
        // identical.
        const std::uint64_t dkey = imageKey(programs);
        if (ensureImage(dkey, programs))
            metrics::add(metrics::Counter::PoolClones);
        machine.reseed(seed);
        machine.setLoopBatch(mcfg_.loop_batch);
        const std::uint64_t events = machine.eventQueue().executed();
        const auto result = machine.run(programs, mcfg_.n_warmup, dkey);
        metrics::add(metrics::Counter::SimEvents,
                     static_cast<long long>(
                         machine.eventQueue().executed() - events));
        lb_.merge(machine.loopBatch());
        metrics::add(metrics::Counter::LoopBatchIters,
                     static_cast<long long>(
                         machine.loopBatch().batched_iters));
        metrics::add(metrics::Counter::LoopBatchWindows,
                     static_cast<long long>(machine.loopBatch().windows));
        metrics::add(metrics::Counter::LoopBatchFallbacks,
                     static_cast<long long>(
                         machine.loopBatch().fallbacks));
        // Max in ticks, then one conversion: the cast and the
        // division by a positive clock are monotone, so this is
        // bit-identical to converting every entry and taking the max.
        const sim::Tick slowest = std::ranges::max(result.thread_cycles);
        seconds = static_cast<double>(slowest) / (cfg_.base_clock_ghz * 1e9);
        TelemetrySample launch;
        if (mcfg_.telemetry) {
            launch.addStats(machine.stats());
            telemetry_.merge(launch);
        }
        if (cacheable) {
            cache_.emplace(key,
                           CacheEntry{seconds, std::move(launch)});
            metrics::add(metrics::Counter::SimCacheMisses);
        }
    }
    // Faults perturb after the cache stage: cached entries hold pure
    // simulator output, and the injector's own rng advances once per
    // launch either way.
    if (auto *faults = sim::FaultInjector::active()) {
        if (faults->shouldPoisonMeasurement())
            return std::numeric_limits<double>::quiet_NaN();
        return faults->perturbSeconds(seconds);
    }
    return seconds;
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
    return measurePrimitive(
        [&] { return runOnce(pair.baseline, exp.affinity); },
        [&] { return runOnce(pair.test, exp.affinity); }, mcfg_);
}

} // namespace syncperf::core
