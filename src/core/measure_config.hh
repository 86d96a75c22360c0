/**
 * @file
 * Measurement-protocol parameters (Section IV of the paper).
 */

#ifndef SYNCPERF_CORE_MEASURE_CONFIG_HH
#define SYNCPERF_CORE_MEASURE_CONFIG_HH

namespace syncperf::core
{

/**
 * Knobs of the paper's measurement procedure. The paper's values
 * (paperDefaults) suit noisy physical hardware; the simulators are
 * deterministic (up to modeled jitter), so simDefaults uses fewer
 * repetitions and shorter loops to keep sweeps fast without changing
 * any shape.
 */
struct MeasurementConfig
{
    int runs = 9;          ///< independent runs; final value is their median
    int attempts = 7;      ///< valid (baseline, test) pairs per run
    int n_iter = 1000;     ///< timed outer-loop iterations
    int n_unroll = 100;    ///< unrolled inner-loop factor
    int n_warmup = 3;      ///< untimed warmup iterations
    int max_retries = 50;  ///< cap on invalid-measurement retries per run

    /**
     * Noise gate: when the coefficient of variation of the per-run
     * values (stddev / |median|) exceeds this, the whole measurement
     * is redone with doubled attempts (bounded exponential backoff),
     * up to max_noise_retries times. <= 0 disables the gate; it also
     * never applies to free primitives (|median| ~ 0), whose relative
     * noise is unbounded by construction.
     */
    double cov_gate = 0.0;

    /** Re-measurement cap for the noise gate. */
    int max_noise_retries = 3;

    /**
     * Collect microarchitectural telemetry (core/telemetry.hh):
     * targets fold every launch's sim::StatSet into a per-point
     * TelemetrySample retrievable via takeTelemetry(). Recording in
     * the machines is always on (interned probes, O(1)); this knob
     * only controls the aggregation and artifact emission, never the
     * simulated timing, so it cannot change any measured value and
     * is left out of the campaign config hash.
     */
    bool telemetry = false;

    /**
     * Let the simulators advance proven-periodic steady-state loop
     * windows algebraically (docs/performance.md, "Loop batching").
     * Results are bit-identical either way -- the detector only
     * batches what it has proven periodic -- so this knob cannot
     * change any output and is, like telemetry, left out of the
     * campaign's config hash. Disable to force single-stepping
     * (--no-loop-batch; used by the identity tests).
     */
    bool loop_batch = true;

    /** Total primitive executions the measured difference covers. */
    long opsPerMeasurement() const
    {
        return static_cast<long>(n_iter) * n_unroll;
    }

    /** The paper's configuration for physical hardware, plus the
     * noise gate at its hardware default (25% CoV). */
    static MeasurementConfig
    paperDefaults()
    {
        MeasurementConfig c;
        c.cov_gate = 0.25;
        return c;
    }

    /** Reduced repetition for the deterministic simulators. */
    static MeasurementConfig
    simDefaults()
    {
        MeasurementConfig c;
        c.runs = 3;
        c.attempts = 2;
        c.n_iter = 30;
        c.n_unroll = 5;
        c.n_warmup = 2;
        return c;
    }

    /** Even shorter loops for wide GPU sweeps (many resident warps). */
    static MeasurementConfig
    simGpuDefaults()
    {
        MeasurementConfig c;
        c.runs = 3;
        c.attempts = 2;
        c.n_iter = 20;
        c.n_unroll = 4;
        c.n_warmup = 2;
        return c;
    }
};

} // namespace syncperf::core

#endif // SYNCPERF_CORE_MEASURE_CONFIG_HH
