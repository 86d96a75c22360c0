/**
 * @file
 * Implementation of the OpenMP-pragma measurement target.
 *
 * Each primitive's timed loop is instantiated as its own template so
 * the measured pragma sits alone in the loop body with no runtime
 * dispatch around it, mirroring the paper's per-test source files.
 */

#include "omp_pragma_target.hh"

#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "threadlib/parallel_region.hh"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace syncperf::core
{

#ifndef _OPENMP

OmpPragmaTarget::OmpPragmaTarget(MeasurementConfig mcfg) : mcfg_(mcfg) {}

bool
OmpPragmaTarget::available()
{
    return false;
}

int
OmpPragmaTarget::maxThreads()
{
    return 1;
}

Measurement
OmpPragmaTarget::measure(const OmpExperiment &, int)
{
    fatal("this build has no OpenMP support; use NativeTarget or the "
          "CPU model instead");
}

#else  // _OPENMP

namespace
{

/** Shared state of one experiment, cache-line separated. */
template <typename T>
struct OmpState
{
    explicit OmpState(const OmpExperiment &exp, int n_threads)
        : stride(std::max(1, exp.stride)),
          array_a(static_cast<std::size_t>(n_threads) * stride + 1),
          array_b(array_a.size())
    {
    }

    alignas(64) T shared_var{};
    alignas(64) T shared_var2{};
    alignas(64) T critical_var{};
    int stride;
    std::vector<T> array_a;
    std::vector<T> array_b;
};

/** Defeats dead-code elimination. */
volatile double dce_sink = 0.0;

/**
 * One full timed execution (Listing 2): warmup, team barrier, timed
 * loop of the primitive, per-thread wall time.
 */
template <typename T, OmpPrimitive P>
std::vector<double>
timedRun(OmpState<T> &s, int n_threads, const MeasurementConfig &cfg,
         Affinity affinity, int copies)
{
    std::vector<double> seconds(n_threads, 0.0);
    const long iters = cfg.opsPerMeasurement();

#pragma omp parallel num_threads(n_threads)
    {
        const int tid = omp_get_thread_num();
        threadlib::bindThisThread(tid, n_threads, affinity);
        const std::size_t slot =
            static_cast<std::size_t>(tid) * s.stride;
        double sink = 0.0;

        auto body = [&](int c) {
            if constexpr (P == OmpPrimitive::Barrier) {
                (void)c;
#pragma omp barrier
                if (c > 1) {
#pragma omp barrier
                }
            } else if constexpr (P == OmpPrimitive::AtomicUpdate) {
                for (int i = 0; i < c; ++i) {
#pragma omp atomic update
                    s.shared_var += T{1};
                }
            } else if constexpr (P == OmpPrimitive::AtomicCapture) {
                for (int i = 0; i < c; ++i) {
                    T captured;
#pragma omp atomic capture
                    {
                        captured = s.shared_var;
                        s.shared_var += T{1};
                    }
                    sink += static_cast<double>(captured);
                }
            } else if constexpr (P == OmpPrimitive::AtomicRead) {
                if (c == 1) {
                    sink += static_cast<double>(
                        *const_cast<const volatile T *>(&s.shared_var));
                } else {
                    T value;
#pragma omp atomic read
                    value = s.shared_var;
                    sink += static_cast<double>(value);
                }
            } else if constexpr (P == OmpPrimitive::AtomicWrite) {
#pragma omp atomic write
                s.shared_var = T{2};
                if (c > 1) {
#pragma omp atomic write
                    s.shared_var2 = T{2};
                }
            } else if constexpr (P == OmpPrimitive::Critical) {
                for (int i = 0; i < c; ++i) {
#pragma omp critical(syncperf_cs)
                    {
                        s.critical_var += T{1};
                    }
                }
            } else if constexpr (P == OmpPrimitive::Flush) {
                s.array_a[slot] += T{1};
                if (c > 1) {
#pragma omp flush
                }
                s.array_b[slot] += T{1};
            }
        };

        for (int w = 0; w < cfg.n_warmup; ++w)
            body(copies);

#pragma omp barrier
        const double start = omp_get_wtime();
        for (long i = 0; i < iters; ++i)
            body(copies);
        const double stop = omp_get_wtime();

        seconds[tid] = stop - start;
        dce_sink = dce_sink + sink;
    }
    return seconds;
}

/** Array-targeted atomic update needs its own loop body. */
template <typename T>
std::vector<double>
timedRunArrayUpdate(OmpState<T> &s, int n_threads,
                    const MeasurementConfig &cfg, Affinity affinity,
                    int copies)
{
    std::vector<double> seconds(n_threads, 0.0);
    const long iters = cfg.opsPerMeasurement();

#pragma omp parallel num_threads(n_threads)
    {
        const int tid = omp_get_thread_num();
        threadlib::bindThisThread(tid, n_threads, affinity);
        T *element =
            &s.array_a[static_cast<std::size_t>(tid) * s.stride];

        auto body = [&](int c) {
            for (int i = 0; i < c; ++i) {
#pragma omp atomic update
                *element += T{1};
            }
        };

        for (int w = 0; w < cfg.n_warmup; ++w)
            body(copies);

#pragma omp barrier
        const double start = omp_get_wtime();
        for (long i = 0; i < iters; ++i)
            body(copies);
        const double stop = omp_get_wtime();
        seconds[tid] = stop - start;
    }
    return seconds;
}

template <typename T, OmpPrimitive P>
Measurement
measurePrim(const OmpExperiment &exp, int n_threads,
            const MeasurementConfig &cfg)
{
    OmpState<T> state(exp, n_threads);
    const bool array_update =
        P == OmpPrimitive::AtomicUpdate &&
        exp.location == Location::PrivateArray;
    auto run = [&](int copies) {
        if (array_update) {
            return timedRunArrayUpdate<T>(state, n_threads, cfg,
                                          exp.affinity, copies);
        }
        return timedRun<T, P>(state, n_threads, cfg, exp.affinity,
                              copies);
    };
    return measurePrimitive([&] { return maxOf(run(1)); },
                            [&] { return maxOf(run(2)); }, cfg);
}

template <typename T>
Measurement
measureTyped(const OmpExperiment &exp, int n_threads,
             const MeasurementConfig &cfg)
{
    switch (exp.primitive) {
      case OmpPrimitive::Barrier:
        return measurePrim<T, OmpPrimitive::Barrier>(exp, n_threads,
                                                     cfg);
      case OmpPrimitive::AtomicUpdate:
        return measurePrim<T, OmpPrimitive::AtomicUpdate>(exp, n_threads,
                                                          cfg);
      case OmpPrimitive::AtomicCapture:
        return measurePrim<T, OmpPrimitive::AtomicCapture>(
            exp, n_threads, cfg);
      case OmpPrimitive::AtomicRead:
        return measurePrim<T, OmpPrimitive::AtomicRead>(exp, n_threads,
                                                        cfg);
      case OmpPrimitive::AtomicWrite:
        return measurePrim<T, OmpPrimitive::AtomicWrite>(exp, n_threads,
                                                         cfg);
      case OmpPrimitive::Critical:
        return measurePrim<T, OmpPrimitive::Critical>(exp, n_threads,
                                                      cfg);
      case OmpPrimitive::Flush:
        return measurePrim<T, OmpPrimitive::Flush>(exp, n_threads, cfg);
    }
    panic("unhandled OpenMP primitive");
}

} // namespace

OmpPragmaTarget::OmpPragmaTarget(MeasurementConfig mcfg) : mcfg_(mcfg) {}

bool
OmpPragmaTarget::available()
{
    return true;
}

int
OmpPragmaTarget::maxThreads()
{
    return omp_get_max_threads();
}

Measurement
OmpPragmaTarget::measure(const OmpExperiment &exp, int n_threads)
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

#endif // _OPENMP

} // namespace syncperf::core
