/**
 * @file
 * Tests for the baseline/test differencing protocol.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/protocol.hh"

namespace syncperf::core
{
namespace
{

MeasurementConfig
tinyConfig()
{
    MeasurementConfig cfg;
    cfg.runs = 3;
    cfg.attempts = 3;
    cfg.n_iter = 10;
    cfg.n_unroll = 10;
    cfg.max_retries = 5;
    return cfg;
}

TEST(Protocol, SubtractsBaselineAndDividesByOps)
{
    const auto cfg = tinyConfig();
    // baseline = 1 ms, test = 2 ms: one primitive costs
    // 1 ms / 100 ops = 10 us.
    const auto m = measurePrimitive(
        [] { return 1e-3; },
        [] { return 2e-3; }, cfg);
    EXPECT_NEAR(m.per_op_seconds, 1e-5, 1e-12);
    EXPECT_DOUBLE_EQ(m.stddev_seconds, 0.0);
    EXPECT_EQ(m.run_values.size(), 3u);
    EXPECT_EQ(m.retries, 0);
}

TEST(Protocol, RetriesWhenTestBeatsBaseline)
{
    const auto cfg = tinyConfig();
    int test_calls = 0;
    const auto m = measurePrimitive(
        [] { return 2e-3; },
        [&] {
            // First call of each run looks faulty (test < baseline).
            ++test_calls;
            return test_calls % 3 == 1 ? 1e-3 : 3e-3;
        },
        cfg);
    EXPECT_GT(m.retries, 0);
    EXPECT_NEAR(m.per_op_seconds, 1e-5, 1e-12);
}

TEST(Protocol, RetryBudgetExhaustionWarnsAndAccepts)
{
    auto cfg = tinyConfig();
    cfg.runs = 1;
    cfg.attempts = 1;
    cfg.max_retries = 2;
    ScopedLogCapture capture;
    const auto m = measurePrimitive(
        [] { return 2e-3; },
        [] { return 1e-3; }, cfg);
    // Negative difference accepted after exhausting retries.
    EXPECT_LT(m.per_op_seconds, 0.0);
    EXPECT_EQ(m.retries, 2);
    bool warned = false;
    for (const auto &[level, msg] : capture.messages())
        warned |= (level == LogLevel::Warn);
    EXPECT_TRUE(warned);
}

TEST(Protocol, MedianOverRunsRejectsOutlierRun)
{
    auto cfg = tinyConfig();
    cfg.runs = 3;
    cfg.attempts = 1;
    int run = 0;
    const auto m = measurePrimitive(
        [] { return 1e-3; },
        [&] {
            ++run;
            // One run is wildly slow; the median ignores it.
            return run == 2 ? 100e-3 : 2e-3;
        },
        cfg);
    EXPECT_NEAR(m.per_op_seconds, 1e-5, 1e-12);
    EXPECT_GT(m.stddev_seconds, 0.0);
}

TEST(Protocol, MedianWithinRunRejectsOutlierAttempt)
{
    auto cfg = tinyConfig();
    cfg.runs = 1;
    cfg.attempts = 5;
    int call = 0;
    const auto m = measurePrimitive(
        [] { return 1e-3; },
        [&] {
            ++call;
            return call == 3 ? 50e-3 : 2e-3;
        },
        cfg);
    EXPECT_NEAR(m.per_op_seconds, 1e-5, 1e-12);
}

TEST(Protocol, ZeroDifferenceGivesInfiniteThroughput)
{
    const auto cfg = tinyConfig();
    const auto m = measurePrimitive(
        [] { return 1e-3; },
        [] { return 1e-3; }, cfg);
    EXPECT_DOUBLE_EQ(m.per_op_seconds, 0.0);
    EXPECT_TRUE(std::isinf(m.opsPerSecondPerThread()));
}

TEST(Protocol, ThroughputIsReciprocal)
{
    Measurement m;
    m.per_op_seconds = 2e-9;
    EXPECT_DOUBLE_EQ(m.opsPerSecondPerThread(), 5e8);
}

TEST(Protocol, OpsPerMeasurementMultiplies)
{
    MeasurementConfig cfg;
    cfg.n_iter = 1000;
    cfg.n_unroll = 100;
    EXPECT_EQ(cfg.opsPerMeasurement(), 100000L);
}

TEST(Protocol, PaperDefaultsMatchSectionFour)
{
    const auto cfg = MeasurementConfig::paperDefaults();
    EXPECT_EQ(cfg.runs, 9);
    EXPECT_EQ(cfg.attempts, 7);
    EXPECT_EQ(cfg.n_iter, 1000);
    EXPECT_EQ(cfg.n_unroll, 100);
}

TEST(Protocol, FreePrimitiveMayCostSlightlyNegative)
{
    // A free primitive's test loop can come out marginally faster
    // than baseline within noise; once the retry budget is spent the
    // (negative) value is accepted and reported as infinite
    // throughput, not an error.
    auto cfg = tinyConfig();
    cfg.runs = 1;
    cfg.attempts = 1;
    cfg.max_retries = 1;
    ScopedLogCapture capture;
    const auto m = measurePrimitive(
        [] { return 1.000e-3; },
        [] { return 0.999e-3; }, cfg);
    EXPECT_TRUE(m.valid);
    EXPECT_LT(m.per_op_seconds, 0.0);
    EXPECT_TRUE(std::isinf(m.opsPerSecondPerThread()));
    EXPECT_EQ(m.noise_retries, 0); // |median| > 0 but gate disabled
}

TEST(Protocol, RetryCountAccumulatesAcrossRuns)
{
    auto cfg = tinyConfig();
    cfg.runs = 3;
    cfg.attempts = 2;
    int test_calls = 0;
    const auto m = measurePrimitive(
        [] { return 2e-3; },
        [&] {
            // Every third test call looks faulty.
            ++test_calls;
            return test_calls % 3 == 0 ? 1e-3 : 3e-3;
        },
        cfg);
    // 3 runs x 2 attempts = 6 valid pairs; calls 3 and 6 were
    // retried, so 8 total test calls and exactly 2 retries.
    EXPECT_EQ(m.retries, 2);
    EXPECT_EQ(test_calls, 8);
    EXPECT_TRUE(m.valid);
}

TEST(Protocol, NonFiniteTimingRetriesThenFailsRecoverably)
{
    auto cfg = tinyConfig();
    cfg.runs = 1;
    cfg.attempts = 1;
    cfg.max_retries = 3;
    int calls = 0;
    const auto m = measurePrimitive(
        [&] {
            ++calls;
            return std::numeric_limits<double>::quiet_NaN();
        },
        [] { return 2e-3; }, cfg);
    EXPECT_FALSE(m.valid);
    EXPECT_NE(m.error.find("non-finite"), std::string::npos);
    EXPECT_TRUE(std::isnan(m.per_op_seconds));
    EXPECT_TRUE(std::isnan(m.opsPerSecondPerThread()));
    EXPECT_EQ(m.retries, 3);
    EXPECT_EQ(calls, 4); // initial attempt + 3 retries
}

TEST(Protocol, TransientNonFiniteTimingIsRetriedAway)
{
    auto cfg = tinyConfig();
    cfg.runs = 1;
    cfg.attempts = 1;
    int calls = 0;
    const auto m = measurePrimitive(
        [&] {
            return ++calls == 1
                       ? std::numeric_limits<double>::infinity()
                       : 1e-3;
        },
        [] { return 2e-3; }, cfg);
    EXPECT_TRUE(m.valid);
    EXPECT_EQ(m.retries, 1);
    EXPECT_NEAR(m.per_op_seconds, 1e-5, 1e-12);
}

TEST(Protocol, CovGateRemeasuresNoisySamplesWithBackoff)
{
    auto cfg = tinyConfig();
    cfg.runs = 5;
    cfg.attempts = 1;
    cfg.cov_gate = 0.05;
    cfg.max_noise_retries = 3;

    // Seeded high-noise test function: per-run spread far beyond the
    // 5% gate, so every pass re-triggers the backoff until the cap.
    Pcg32 rng(1234);
    int test_calls = 0;
    ScopedLogCapture capture; // swallow the "still exceeded" warning
    const auto m = measurePrimitive(
        [] { return 1e-3; },
        [&] {
            ++test_calls;
            return 2e-3 + 8e-3 * rng.uniform();
        },
        cfg);
    EXPECT_TRUE(m.valid);
    EXPECT_EQ(m.noise_retries, cfg.max_noise_retries);
    EXPECT_GT(m.cov, cfg.cov_gate);
    // Attempts double every pass: 5 runs x (1 + 2 + 4 + 8) attempts.
    EXPECT_EQ(test_calls, 5 * (1 + 2 + 4 + 8) + m.retries);
}

TEST(Protocol, CovGateLeavesQuietMeasurementsAlone)
{
    auto cfg = tinyConfig();
    cfg.cov_gate = 0.25;
    int test_calls = 0;
    const auto m = measurePrimitive(
        [] { return 1e-3; },
        [&] {
            ++test_calls;
            return 2e-3;
        },
        cfg);
    EXPECT_TRUE(m.valid);
    EXPECT_EQ(m.noise_retries, 0);
    EXPECT_DOUBLE_EQ(m.cov, 0.0);
    EXPECT_EQ(test_calls, cfg.runs * cfg.attempts);
}

TEST(Protocol, CovGateSkipsFreePrimitives)
{
    // A free primitive has |median| ~ 0, where relative noise is
    // meaningless; the gate must not loop on it.
    auto cfg = tinyConfig();
    cfg.cov_gate = 0.1;
    int test_calls = 0;
    const auto m = measurePrimitive(
        [] { return 1e-3; },
        [&] {
            ++test_calls;
            return 1e-3;
        },
        cfg);
    EXPECT_TRUE(m.valid);
    EXPECT_EQ(m.noise_retries, 0);
    EXPECT_DOUBLE_EQ(m.cov, 0.0);
    EXPECT_EQ(test_calls, cfg.runs * cfg.attempts);
}

} // namespace
} // namespace syncperf::core
