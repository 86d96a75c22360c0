/**
 * @file
 * The paper's baseline/test differencing protocol (Section III-IV).
 *
 * A primitive's cost is measured by timing a baseline function and a
 * test function that performs the primitive one extra time per inner
 * iteration, then subtracting median runtimes. This isolates the
 * primitive from all framework overhead (loops, calls, timing).
 */

#ifndef SYNCPERF_CORE_PROTOCOL_HH
#define SYNCPERF_CORE_PROTOCOL_HH

#include <functional>
#include <string>
#include <vector>

#include "core/measure_config.hh"

namespace syncperf::core
{

/**
 * One timed execution of a baseline or test function: returns the
 * runtime of its slowest participating thread, in seconds. That is
 * the only number the protocol reads from an attempt (Section IV),
 * so each target reduces its threads (or, on the GPU, its warps) to
 * it before returning.
 */
using TimedFunction = std::function<double()>;

/** Outcome of the full measurement procedure for one primitive. */
struct Measurement
{
    /** Median-of-runs cost of a single primitive execution, seconds.
     * May be ~0 (or slightly negative within noise) for free
     * primitives such as an atomic read. */
    double per_op_seconds = 0.0;

    /** Standard deviation of the per-run values. */
    double stddev_seconds = 0.0;

    /** The per-run values the median was taken over. */
    std::vector<double> run_values;

    /** Invalid (test < baseline) attempts that were re-tried. */
    int retries = 0;

    /** Coefficient of variation (stddev / |median|) of the final
     * per-run values; 0 for free primitives (|median| ~ 0). */
    double cov = 0.0;

    /** Full re-measurements triggered by the CoV noise gate. */
    int noise_retries = 0;

    /** False when no finite value could be produced (pathological
     * timing that exhausted the retry budget); @ref error says why.
     * Invalid measurements report NaN cost and throughput. */
    bool valid = true;

    /** Why the measurement is invalid; empty when valid. */
    std::string error;

    /**
     * Per-thread throughput in operations per second, the paper's
     * reporting metric (1 / runtime). Infinity when the measured
     * cost is zero or negative (primitive is free); NaN when the
     * measurement is invalid.
     */
    double opsPerSecondPerThread() const;
};

/**
 * Run the paper's measurement procedure.
 *
 * For each of cfg.runs runs, gather cfg.attempts valid
 * (baseline, test) pairs -- an attempt is valid when the maximum
 * test runtime across threads is at least the maximum baseline
 * runtime; invalid attempts are re-tried (Section IV). The run's
 * value is (median test - median baseline) / ops. The final value is
 * the median over runs.
 *
 * Non-finite runtimes (a pathological sample, e.g. injected by
 * sim::FaultInjector) also count as invalid attempts; when they
 * exhaust cfg.max_retries the returned Measurement has valid ==
 * false instead of terminating the process, so a campaign can
 * journal the failure and continue.
 *
 * When cfg.cov_gate > 0 and the per-run values are noisier than the
 * gate allows, the whole procedure is redone with doubled attempts
 * (bounded exponential backoff, at most cfg.max_noise_retries
 * times); the result records the retry count and the final CoV.
 *
 * When cfg.telemetry is set, the simulator targets accumulate probe
 * telemetry across every launch this procedure performs -- all runs,
 * all attempts, baseline and test programs, and any protocol or
 * noise retries. A telemetry sample therefore scales with the
 * repetition settings; it describes the whole measurement, not one
 * launch.
 *
 * @param baseline Times cfg.opsPerMeasurement() baseline iterations.
 * @param test Same, with one extra primitive per iteration.
 */
Measurement measurePrimitive(const TimedFunction &baseline,
                             const TimedFunction &test,
                             const MeasurementConfig &cfg);

} // namespace syncperf::core

#endif // SYNCPERF_CORE_PROTOCOL_HH
