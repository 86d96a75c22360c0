/**
 * @file
 * Implementation of the native measurement target.
 *
 * Structure mirrors the paper's Listing 2: warmup iterations, a team
 * barrier, a timed loop of the primitive, per-thread timing.
 */

#include "native_target.hh"

#include <atomic>
#include <chrono>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "threadlib/atomics.hh"
#include "threadlib/barrier.hh"
#include "threadlib/locks.hh"
#include "threadlib/parallel_region.hh"

namespace syncperf::core
{
namespace
{

using Clock = std::chrono::steady_clock;

double
elapsedSeconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Cache-line padded atomic slot for the private-array experiments. */
template <typename T>
struct alignas(64) PaddedAtomic
{
    std::atomic<T> value{};
};

/**
 * Run one timed execution. @p iteration is invoked
 * cfg.opsPerMeasurement() times per thread inside the timed region
 * and receives (tid, copies) with copies = 1 for the baseline call
 * and 2 for the test call.
 */
template <typename Body>
std::vector<double>
timedRegion(int n_threads, const MeasurementConfig &cfg, Affinity affinity,
            threadlib::Barrier &align, const Body &iteration, int copies)
{
    std::vector<double> seconds(n_threads, 0.0);
    const long iters = cfg.opsPerMeasurement();

    threadlib::parallelRegion(n_threads, [&](int tid) {
        for (int w = 0; w < cfg.n_warmup; ++w)
            iteration(tid, copies);

        align.arriveAndWait(tid);
        const auto start = Clock::now();
        for (long i = 0; i < iters; ++i)
            iteration(tid, copies);
        const auto stop = Clock::now();
        seconds[tid] = elapsedSeconds(start, stop);
    }, affinity);
    return seconds;
}

/** Typed state + iteration body for one experiment. */
template <typename T>
class TypedExperiment
{
  public:
    TypedExperiment(const OmpExperiment &exp, int n_threads)
        : exp_(exp), barrier_(n_threads),
          array_a_(static_cast<std::size_t>(n_threads) *
                   std::max(1, exp.stride)),
          array_b_(array_a_.size())
    {
    }

    void
    operator()(int tid, int copies) const
    {
        auto *self = const_cast<TypedExperiment *>(this);
        switch (exp_.primitive) {
          case OmpPrimitive::Barrier:
            for (int c = 0; c < copies; ++c)
                self->barrier_.arriveAndWait(tid);
            return;

          case OmpPrimitive::AtomicUpdate:
            for (int c = 0; c < copies; ++c)
                threadlib::atomicUpdate(self->target(tid), T{1});
            return;

          case OmpPrimitive::AtomicCapture:
            for (int c = 0; c < copies; ++c)
                sink_ += static_cast<double>(
                    threadlib::atomicCapture(self->target(tid), T{1}));
            return;

          case OmpPrimitive::AtomicRead:
            // Baseline: plain read; test: atomic read.
            if (copies == 1) {
                sink_ += static_cast<double>(
                    reinterpret_cast<const volatile T &>(
                        self->target(tid)));
            } else {
                sink_ += static_cast<double>(
                    threadlib::atomicRead(self->target(tid)));
            }
            return;

          case OmpPrimitive::AtomicWrite:
            threadlib::atomicWrite(self->shared_, T{2});
            if (copies > 1)
                threadlib::atomicWrite(self->shared2_, T{2});
            return;

          case OmpPrimitive::Critical:
            for (int c = 0; c < copies; ++c) {
                self->lock_.acquire();
                self->plain_ += T{1};
                self->lock_.release();
            }
            return;

          case OmpPrimitive::Flush: {
            auto &a = self->array_a_[slot(tid)].value;
            auto &b = self->array_b_[slot(tid)].value;
            a.store(a.load(std::memory_order_relaxed) + T{1},
                    std::memory_order_relaxed);
            if (copies > 1)
                threadlib::flush();
            b.store(b.load(std::memory_order_relaxed) + T{1},
                    std::memory_order_relaxed);
            return;
          }
        }
    }

  private:
    std::size_t
    slot(int tid) const
    {
        return static_cast<std::size_t>(tid) * std::max(1, exp_.stride);
    }

    std::atomic<T> &
    target(int tid)
    {
        return exp_.location == Location::SharedVariable
            ? shared_
            : array_a_[slot(tid)].value;
    }

    OmpExperiment exp_;
    threadlib::CentralBarrier barrier_;
    alignas(64) std::atomic<T> shared_{};
    alignas(64) std::atomic<T> shared2_{};
    alignas(64) T plain_{};
    threadlib::TtasLock lock_;
    std::vector<PaddedAtomic<T>> array_a_;
    std::vector<PaddedAtomic<T>> array_b_;

    /** Defeats dead-code elimination of reads. */
    static thread_local double sink_;
};

template <typename T>
thread_local double TypedExperiment<T>::sink_ = 0.0;

template <typename T>
Measurement
measureTyped(const OmpExperiment &exp, int n_threads,
             const MeasurementConfig &cfg)
{
    TypedExperiment<T> state(exp, n_threads);
    threadlib::CentralBarrier align(n_threads);
    return measurePrimitive(
        [&] {
            return maxOf(timedRegion(n_threads, cfg, exp.affinity, align,
                                     state, 1));
        },
        [&] {
            return maxOf(timedRegion(n_threads, cfg, exp.affinity, align,
                                     state, 2));
        },
        cfg);
}

} // namespace

NativeTarget::NativeTarget(MeasurementConfig mcfg) : mcfg_(mcfg) {}

Measurement
NativeTarget::measure(const OmpExperiment &exp, int n_threads)
{
    SYNCPERF_ASSERT(n_threads >= 1);
    switch (exp.dtype) {
      case DataType::Int32:
        return measureTyped<int>(exp, n_threads, mcfg_);
      case DataType::UInt64:
        return measureTyped<unsigned long long>(exp, n_threads, mcfg_);
      case DataType::Float32:
        return measureTyped<float>(exp, n_threads, mcfg_);
      case DataType::Float64:
        return measureTyped<double>(exp, n_threads, mcfg_);
    }
    panic("unhandled data type");
}

} // namespace syncperf::core
