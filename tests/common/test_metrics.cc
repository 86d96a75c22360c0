/**
 * @file
 * Tests for the counter registry: exact aggregation under concurrent
 * writers, max-gauge semantics, reset isolation, and the stable
 * name/classification tables the metrics.json schema depends on.
 * The concurrent cases also run under the `tsan` preset.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hh"

namespace syncperf::metrics
{
namespace
{

class MetricsRegistryTest : public ::testing::Test
{
  protected:
    void SetUp() override { Registry::global().reset(); }
    void TearDown() override { Registry::global().reset(); }
};

TEST_F(MetricsRegistryTest, CountersStartAtZero)
{
    for (std::size_t i = 0; i < counter_count; ++i)
        EXPECT_EQ(value(static_cast<Counter>(i)), 0);
}

TEST_F(MetricsRegistryTest, AddAccumulatesWithDeltas)
{
    add(Counter::ProtocolRetries);
    add(Counter::ProtocolRetries, 4);
    EXPECT_EQ(value(Counter::ProtocolRetries), 5);
    EXPECT_EQ(value(Counter::NoiseRetries), 0);
}

TEST_F(MetricsRegistryTest, ConcurrentAddsAreExact)
{
    constexpr int threads = 8;
    constexpr int adds_per_thread = 20000;

    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([] {
            for (int i = 0; i < adds_per_thread; ++i)
                add(Counter::PointsCommitted);
        });
    }
    for (auto &w : workers)
        w.join();

    EXPECT_EQ(value(Counter::PointsCommitted),
              static_cast<long long>(threads) * adds_per_thread);
}

TEST_F(MetricsRegistryTest, ConcurrentRecordMaxKeepsTheMaximum)
{
    constexpr int threads = 8;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([t] {
            // Interleaved ascending runs from every thread; the
            // global maximum is the largest value any thread offers.
            for (int i = 0; i <= 1000; ++i)
                recordMax(Counter::ExecutorMaxQueueDepth,
                          i * threads + t);
        });
    }
    for (auto &w : workers)
        w.join();

    EXPECT_EQ(value(Counter::ExecutorMaxQueueDepth),
              1000 * threads + (threads - 1));
}

TEST_F(MetricsRegistryTest, RecordMaxNeverLowers)
{
    recordMax(Counter::ExecutorMaxQueueDepth, 7);
    recordMax(Counter::ExecutorMaxQueueDepth, 3);
    EXPECT_EQ(value(Counter::ExecutorMaxQueueDepth), 7);
}

TEST_F(MetricsRegistryTest, ResetZeroesEveryCounter)
{
    for (std::size_t i = 0; i < counter_count; ++i)
        add(static_cast<Counter>(i), static_cast<long long>(i) + 1);
    Registry::global().reset();
    for (std::size_t i = 0; i < counter_count; ++i)
        EXPECT_EQ(value(static_cast<Counter>(i)), 0);
}

TEST_F(MetricsRegistryTest, NamesAreUniqueNonEmptySnakeCase)
{
    std::set<std::string> seen;
    for (std::size_t i = 0; i < counter_count; ++i) {
        const auto name =
            std::string(counterName(static_cast<Counter>(i)));
        ASSERT_FALSE(name.empty());
        EXPECT_TRUE(seen.insert(name).second)
            << "duplicate counter name " << name;
        for (const char c : name) {
            EXPECT_TRUE((c >= 'a' && c <= 'z') || c == '_')
                << "non-snake_case name " << name;
        }
    }
}

TEST_F(MetricsRegistryTest, DeterminismClassificationIsStable)
{
    // The determinism contract metrics.json and the jobs-equality
    // test depend on (see docs/observability.md).
    EXPECT_TRUE(counterIsDeterministic(Counter::PointsCommitted));
    EXPECT_TRUE(counterIsDeterministic(Counter::PointsFailed));
    EXPECT_TRUE(counterIsDeterministic(Counter::PointsSkipped));
    EXPECT_TRUE(counterIsDeterministic(Counter::ProtocolRetries));
    EXPECT_TRUE(counterIsDeterministic(Counter::NoiseRetries));
    EXPECT_TRUE(counterIsDeterministic(Counter::FaultsInjected));
    EXPECT_TRUE(counterIsDeterministic(Counter::FaultsSurvived));
    EXPECT_TRUE(counterIsDeterministic(Counter::SimEvents));

    // Checkpoint cadence depends on --jobs (every commit serial,
    // batched in parallel), so the counter lives in the timing class.
    EXPECT_FALSE(counterIsDeterministic(Counter::CheckpointFlushes));
    EXPECT_FALSE(counterIsDeterministic(Counter::PoolTasksRun));
    EXPECT_FALSE(counterIsDeterministic(Counter::PoolBusyNanos));
    EXPECT_FALSE(counterIsDeterministic(Counter::PoolIdleNanos));
    EXPECT_FALSE(
        counterIsDeterministic(Counter::ExecutorMaxQueueDepth));
}

} // namespace
} // namespace syncperf::metrics
