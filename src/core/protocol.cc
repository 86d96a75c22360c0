/**
 * @file
 * Implementation of the measurement protocol.
 */

#include "protocol.hh"

#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/stats.hh"
#include "common/status.hh"
#include "common/trace.hh"

namespace syncperf::core
{
namespace
{

/** CoV from an already-computed median and stddev; 0 for free
 * primitives whose median is indistinguishable from zero. */
double
coefficientOfVariation(double med, double sd)
{
    med = std::fabs(med);
    if (med < 1e-18)
        return 0.0;
    return sd / med;
}

/**
 * One full pass of the paper's procedure: cfg.runs runs of
 * @p attempts valid pairs each. Fills @p out.run_values and
 * accumulates out.retries; non-ok when pathological (non-finite)
 * timing exhausts the retry budget.
 */
Status
measureOnce(const TimedFunction &baseline, const TimedFunction &test,
            const MeasurementConfig &cfg, int attempts, Measurement &out)
{
    out.run_values.clear();
    out.run_values.reserve(cfg.runs);

    for (int run = 0; run < cfg.runs; ++run) {
        std::vector<double> base_maxes;
        std::vector<double> test_maxes;
        base_maxes.reserve(attempts);
        test_maxes.reserve(attempts);

        int retries_left = cfg.max_retries;
        while (static_cast<int>(test_maxes.size()) < attempts) {
            const double b_max = baseline();
            const double t_max = test();
            if (!std::isfinite(b_max) || !std::isfinite(t_max)) {
                // Pathological sample (hardware hiccup, injected
                // fault): retry like any other invalid attempt, but
                // never accept it -- a non-finite value would poison
                // every statistic downstream.
                if (retries_left-- > 0) {
                    ++out.retries;
                    metrics::add(metrics::Counter::FaultsSurvived);
                    continue;
                }
                return Status::error(
                    ErrorCode::MeasurementError,
                    "non-finite runtime persisted through {} retries "
                    "(run {}, attempt {})", cfg.max_retries, run,
                    static_cast<int>(test_maxes.size()));
            }
            if (t_max < b_max && retries_left-- > 0) {
                // Faulty measurement (system jitter); re-attempt.
                ++out.retries;
                continue;
            }
            if (t_max < b_max) {
                warn("retry budget exhausted; accepting test < baseline "
                     "({} < {})", t_max, b_max);
            }
            base_maxes.push_back(b_max);
            test_maxes.push_back(t_max);
        }

        // Both vectors are dead after this, so the in-place median
        // (no copy, no allocation) is safe on this hot path.
        const double diff =
            medianInPlace(test_maxes) - medianInPlace(base_maxes);
        out.run_values.push_back(
            diff / static_cast<double>(cfg.opsPerMeasurement()));
    }
    return Status::ok();
}

/** Publish a finished measurement's retry totals to the registry. */
void
recordRetryCounters(const Measurement &m)
{
    if (m.retries > 0)
        metrics::add(metrics::Counter::ProtocolRetries, m.retries);
    if (m.noise_retries > 0)
        metrics::add(metrics::Counter::NoiseRetries, m.noise_retries);
}

} // namespace

double
Measurement::opsPerSecondPerThread() const
{
    if (!valid || !std::isfinite(per_op_seconds))
        return std::numeric_limits<double>::quiet_NaN();
    if (per_op_seconds <= 0.0)
        return std::numeric_limits<double>::infinity();
    return 1.0 / per_op_seconds;
}

Measurement
measurePrimitive(const TimedFunction &baseline, const TimedFunction &test,
                 const MeasurementConfig &cfg)
{
    SYNCPERF_ASSERT(cfg.runs >= 1 && cfg.attempts >= 1);
    SYNCPERF_ASSERT(cfg.opsPerMeasurement() >= 1);

    Measurement out;
    int attempts = cfg.attempts;
    while (true) {
        Status status;
        {
            // The "attempt" trace level: one span per full pass of
            // the protocol (a CoV-gate retry shows as another pass).
            trace::Span pass_span("measure_pass", "attempt");
            status = measureOnce(baseline, test, cfg, attempts, out);
        }
        if (!status.isOk()) {
            out.valid = false;
            out.error = status.message();
            out.per_op_seconds =
                std::numeric_limits<double>::quiet_NaN();
            out.stddev_seconds =
                std::numeric_limits<double>::quiet_NaN();
            recordRetryCounters(out);
            return out;
        }
        out.per_op_seconds = median(out.run_values);
        out.stddev_seconds = stddev(out.run_values);
        out.cov = coefficientOfVariation(out.per_op_seconds,
                                         out.stddev_seconds);
        if (cfg.cov_gate <= 0.0 || out.cov <= cfg.cov_gate ||
            out.noise_retries >= cfg.max_noise_retries) {
            if (cfg.cov_gate > 0.0 && out.cov > cfg.cov_gate) {
                warn("noise gate still exceeded after {} re-measures "
                     "(CoV {:.3f} > {:.3f}); accepting",
                     out.noise_retries, out.cov, cfg.cov_gate);
            }
            recordRetryCounters(out);
            return out;
        }
        // Too noisy: back off by doubling the sample size.
        ++out.noise_retries;
        attempts *= 2;
    }
}

} // namespace syncperf::core
