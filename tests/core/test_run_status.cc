/**
 * @file
 * Tests for the live run-status surface: engagement-ratio math, the
 * syncperf-status-v1 JSON schema, registry-backed counter filling,
 * the --progress one-liner, and the reporter's debounce + atomic
 * rewrite behavior.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "common/json.hh"
#include "common/metrics.hh"
#include "core/run_status.hh"

namespace syncperf::core
{
namespace
{

namespace fs = std::filesystem;

class RunStatusTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        file_ = fs::temp_directory_path() /
                ("syncperf_status_" + std::to_string(::getpid()) +
                 ".json");
        fs::remove(file_);
        metrics::Registry::global().reset();
    }

    void
    TearDown() override
    {
        fs::remove(file_);
        metrics::Registry::global().reset();
    }

    /** Parse the written status file; fails the test on bad JSON. */
    JsonValue
    written()
    {
        std::ifstream in(file_, std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        const auto parsed = parseJson(bytes.str());
        EXPECT_TRUE(parsed.isOk()) << parsed.status().toString();
        return parsed.isOk() ? parsed.value() : JsonValue();
    }

    fs::path file_;
};

TEST_F(RunStatusTest, RatiosAreZeroWhenNothingRan)
{
    const RunStatus st;
    EXPECT_EQ(st.simCacheHitRatio(), 0.0);
    EXPECT_EQ(st.loopBatchWindowRatio(), 0.0);
    EXPECT_EQ(st.poolIdleFraction(), 0.0);
}

TEST_F(RunStatusTest, RatiosComputeFromRawInputs)
{
    RunStatus st;
    st.sim_cache_hits = 3;
    st.sim_cache_misses = 1;
    st.loop_batch_windows = 1;
    st.loop_batch_fallbacks = 3;
    st.pool_busy_s = 3.0;
    st.pool_idle_s = 1.0;

    EXPECT_DOUBLE_EQ(st.simCacheHitRatio(), 0.75);
    EXPECT_DOUBLE_EQ(st.loopBatchWindowRatio(), 0.25);
    EXPECT_DOUBLE_EQ(st.poolIdleFraction(), 0.25);
}

TEST_F(RunStatusTest, FillCountersReadsTheRegistry)
{
    metrics::add(metrics::Counter::SimCacheHits, 7);
    metrics::add(metrics::Counter::SimCacheMisses, 3);
    metrics::add(metrics::Counter::PoolBusyNanos, 1'500'000'000);

    RunStatus st;
    st.fillCountersFromRegistry();
    EXPECT_EQ(st.sim_cache_hits, 7);
    EXPECT_EQ(st.sim_cache_misses, 3);
    EXPECT_DOUBLE_EQ(st.pool_busy_s, 1.5);
}

TEST_F(RunStatusTest, ToJsonCarriesTheVersionedSchema)
{
    RunStatus st;
    st.state = "running";
    st.points_done = 10;
    st.points_total = 40;
    st.elapsed_s = 2.0;
    st.experiments_per_s = 5.0;
    st.eta_s = 6.0;

    const auto parsed = parseJson(st.toJson());
    ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
    const auto &root = parsed.value();
    EXPECT_EQ(root.stringOr("schema", ""), "syncperf-status-v1");
    EXPECT_EQ(root.stringOr("state", ""), "running");

    const auto *points = root.find("points");
    ASSERT_NE(points, nullptr);
    EXPECT_EQ(points->numberOr("done", -1.0), 10.0);
    EXPECT_EQ(points->numberOr("total", -1.0), 40.0);

    const auto *rate = root.find("rate");
    ASSERT_NE(rate, nullptr);
    EXPECT_EQ(rate->numberOr("experiments_per_s", -1.0), 5.0);
    EXPECT_EQ(rate->numberOr("eta_s", -1.0), 6.0);

    ASSERT_NE(root.find("engagement"), nullptr);
    ASSERT_NE(root.find("pool"), nullptr);
}

TEST_F(RunStatusTest, ProgressLineSummarizesTheRun)
{
    RunStatus st;
    st.points_done = 3;
    st.points_total = 12;
    st.experiments_per_s = 1.5;
    st.eta_s = 6.0;

    const auto line = st.progressLine();
    EXPECT_NE(line.find("3/12 points"), std::string::npos) << line;
    EXPECT_NE(line.find("1.5 exp/s"), std::string::npos) << line;
    EXPECT_NE(line.find("eta 6s"), std::string::npos) << line;

    st.state = "degraded";
    EXPECT_NE(st.progressLine().find("(degraded)"),
              std::string::npos);
}

TEST_F(RunStatusTest, ReporterWritesValidJsonAndFillsRates)
{
    RunStatusReporter reporter(file_, 60.0, false);
    EXPECT_TRUE(reporter.due()) << "first tick is always due";

    RunStatus st;
    st.points_done = 5;
    st.points_total = 10;
    reporter.tick(st);

    EXPECT_GT(st.elapsed_s, 0.0);
    EXPECT_GT(st.experiments_per_s, 0.0);
    EXPECT_GE(st.eta_s, 0.0);

    const auto root = written();
    EXPECT_EQ(root.stringOr("schema", ""), "syncperf-status-v1");
    const auto *points = root.find("points");
    ASSERT_NE(points, nullptr);
    EXPECT_EQ(points->numberOr("done", -1.0), 5.0);
}

TEST_F(RunStatusTest, ReporterWithoutFileOnlyFillsRates)
{
    // --progress without --status: the rates are filled for the
    // one-liner, but no status.json is written anywhere.
    RunStatusReporter reporter("", 60.0, false);
    RunStatus st;
    st.points_done = 5;
    st.points_total = 10;
    reporter.force(st);

    EXPECT_GT(st.experiments_per_s, 0.0);
    EXPECT_FALSE(reporter.due());
    EXPECT_FALSE(fs::exists(file_));
}

TEST_F(RunStatusTest, ReporterDebouncesTicksButNotForce)
{
    RunStatusReporter reporter(file_, 3600.0, false);
    RunStatus st;
    st.points_total = 10;
    reporter.tick(st);
    EXPECT_FALSE(reporter.due())
        << "an hour-long debounce cannot elapse during the test";

    // A debounced tick must not rewrite the file.
    st.points_done = 7;
    reporter.tick(st);
    EXPECT_EQ(written().find("points")->numberOr("done", -1.0), 0.0);

    // force() ignores the debounce (the final write).
    st.state = "finished";
    reporter.force(st);
    const auto root = written();
    EXPECT_EQ(root.stringOr("state", ""), "finished");
    EXPECT_EQ(root.find("points")->numberOr("done", -1.0), 7.0);
}

} // namespace
} // namespace syncperf::core
