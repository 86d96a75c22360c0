/**
 * @file
 * Tests for campaign-level metrics: the deterministic counter class
 * must be identical between --jobs 1 and --jobs 4, the metrics.json
 * snapshot must parse and carry the documented schema, and injected
 * faults must show up in the fault counters. Runs in the `tsan`
 * preset too, where the jobs-4 campaign race-checks the counter
 * paths.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <unistd.h>

#include "common/json.hh"
#include "common/metrics.hh"
#include "core/campaign.hh"
#include "core/metrics.hh"
#include "sim/fault_injector.hh"

namespace syncperf::core
{
namespace
{

namespace fs = std::filesystem;

/** Deterministic counters only, keyed by stable name. */
std::map<std::string, long long>
deterministicCounters()
{
    std::map<std::string, long long> out;
    for (std::size_t i = 0; i < metrics::counter_count; ++i) {
        const auto c = static_cast<metrics::Counter>(i);
        if (metrics::counterIsDeterministic(c))
            out[std::string(metrics::counterName(c))] =
                metrics::value(c);
    }
    return out;
}

/**
 * The image and launch-memo counters must be non-zero, or their
 * equality across job counts proves nothing. Each target owns its
 * machine and starts without images, so which images get built and
 * reused depends only on the experiment; the memo simulates each key
 * once, so what it serves does not depend on the schedule either.
 */
void
expectReuseEngaged(const std::map<std::string, long long> &counters)
{
    EXPECT_GT(counters.at("pool_clones"), 0);
    EXPECT_GT(counters.at("pool_cold_builds"), 0);
    EXPECT_GT(counters.at("sim_cache_hits"), 0);
}

class CampaignMetricsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        base_ = fs::temp_directory_path() /
                ("syncperf_campaign_metrics_" +
                 std::to_string(::getpid()));
        fs::remove_all(base_);
        cpu_ = cpusim::CpuConfig::system3();
        cpu_.cores_per_socket = 2; // keep the sweep cheap
        CampaignMetrics::global().reset();
    }

    void
    TearDown() override
    {
        fs::remove_all(base_);
        CampaignMetrics::global().reset();
    }

    CampaignOptions
    options(const char *tag, int jobs) const
    {
        CampaignOptions o;
        o.output_dir = (base_ / tag).string();
        o.quick = true;
        o.jobs = jobs;
        // Pinned: "auto" picks a jobs-dependent cadence, which would
        // legitimately change checkpoint_flushes across job counts.
        o.checkpoint_every = 4;
        return o;
    }

    static MeasurementConfig
    tinyProtocol()
    {
        auto cfg = MeasurementConfig::simDefaults();
        cfg.runs = 1;
        cfg.attempts = 1;
        cfg.n_iter = 5;
        cfg.n_unroll = 2;
        return cfg;
    }

    fs::path base_;
    cpusim::CpuConfig cpu_;
};

TEST_F(CampaignMetricsTest,
       DeterministicCountersMatchAcrossJobCounts)
{
    const auto serial =
        runCampaign({{cpu_, tinyProtocol()}}, options("serial", 1));
    ASSERT_TRUE(serial.ok());
    const auto serial_counters = deterministicCounters();

    CampaignMetrics::global().reset();
    const auto parallel =
        runCampaign({{cpu_, tinyProtocol()}}, options("parallel", 4));
    ASSERT_TRUE(parallel.ok());
    const auto parallel_counters = deterministicCounters();

    EXPECT_GT(serial_counters.at("points_committed"), 0);
    // Simulated work is part of the contract: the same events run
    // whatever the worker count.
    EXPECT_GT(serial_counters.at("sim_events"), 0);
    expectReuseEngaged(serial_counters);
    // checkpoint_flushes is a timing-class counter (its cadence
    // depends on --jobs), so assert it directly instead of through
    // the deterministic map.
    EXPECT_GT(metrics::value(metrics::Counter::CheckpointFlushes), 0);
    EXPECT_EQ(serial_counters, parallel_counters);
}

TEST_F(CampaignMetricsTest, GpuSimEventsMatchAcrossJobCounts)
{
    auto gpu = gpusim::GpuConfig::rtx4090();
    gpu.sm_count = 4; // keep the sweep cheap
    auto protocol = MeasurementConfig::simGpuDefaults();
    protocol.runs = 1;
    protocol.attempts = 1;
    protocol.n_iter = 5;
    protocol.n_unroll = 2;

    ASSERT_TRUE(
        runCampaign({{gpu, protocol}}, options("gpu_serial", 1)).ok());
    const auto serial_counters = deterministicCounters();

    CampaignMetrics::global().reset();
    ASSERT_TRUE(
        runCampaign({{gpu, protocol}}, options("gpu_parallel", 4)).ok());
    const auto parallel_counters = deterministicCounters();

    EXPECT_GT(serial_counters.at("sim_events"), 0);
    expectReuseEngaged(serial_counters);
    EXPECT_EQ(serial_counters, parallel_counters);
}

TEST_F(CampaignMetricsTest, ResumeCountsSkippedPoints)
{
    auto first_options = options("resume", 1);
    const auto first =
        runCampaign({{cpu_, tinyProtocol()}}, first_options);
    ASSERT_TRUE(first.ok());

    CampaignMetrics::global().reset();
    auto second_options = options("resume", 4);
    second_options.resume = true;
    const auto second =
        runCampaign({{cpu_, tinyProtocol()}}, second_options);
    ASSERT_TRUE(second.ok());

    EXPECT_EQ(metrics::value(metrics::Counter::PointsSkipped),
              first.experiments_run);
    EXPECT_EQ(metrics::value(metrics::Counter::PointsCommitted), 0);
}

TEST_F(CampaignMetricsTest, SnapshotJsonParsesWithDocumentedSchema)
{
    const auto result =
        runCampaign({{cpu_, tinyProtocol()}}, options("snap", 2));
    ASSERT_TRUE(result.ok());

    const auto parsed =
        parseJson(CampaignMetrics::global().snapshotJson());
    ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
    const auto &root = parsed.value();
    ASSERT_TRUE(root.isObject());
    EXPECT_EQ(root.numberOr("version", 0.0), 1.0);

    const auto *counters = root.find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_TRUE(counters->isObject());
    for (std::size_t i = 0; i < metrics::counter_count; ++i) {
        const auto c = static_cast<metrics::Counter>(i);
        if (!metrics::counterIsDeterministic(c))
            continue;
        const auto *member =
            counters->find(metrics::counterName(c));
        ASSERT_NE(member, nullptr)
            << metrics::counterName(c) << " missing from counters";
        EXPECT_TRUE(member->isNumber());
    }
    EXPECT_EQ(static_cast<double>(
                  metrics::value(metrics::Counter::PointsCommitted)),
              counters->numberOr("points_committed", -1.0));

    const auto *timing = root.find("timing");
    ASSERT_NE(timing, nullptr);
    ASSERT_TRUE(timing->isObject());
    EXPECT_NE(timing->find("retry_rate"), nullptr);
    EXPECT_NE(timing->find("idle_fraction"), nullptr);
    EXPECT_NE(timing->find("pool_tasks_run"), nullptr);

    // A jobs-2 campaign folded one pool: two worker rows.
    const auto *workers = root.find("workers");
    ASSERT_NE(workers, nullptr);
    ASSERT_TRUE(workers->isArray());
    ASSERT_EQ(workers->asArray().size(), 2u);
    const auto &w0 = workers->asArray()[0];
    EXPECT_EQ(w0.numberOr("worker", -1.0), 0.0);
    EXPECT_NE(w0.find("tasks_run"), nullptr);
    EXPECT_NE(w0.find("busy_s"), nullptr);
}

TEST_F(CampaignMetricsTest, WriteSnapshotLandsOnDiskAtomically)
{
    const auto file = base_ / "metrics.json";
    fs::create_directories(base_);
    ASSERT_TRUE(
        CampaignMetrics::global().writeSnapshot(file).isOk());

    std::ifstream in(file, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    const auto parsed = parseJson(bytes.str());
    ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
    EXPECT_TRUE(parsed.value().isObject());
}

TEST_F(CampaignMetricsTest, InjectedFaultsAreCounted)
{
    sim::FaultInjector injector;
    // Poison a couple of early timed launches; the protocol's retry
    // budget absorbs them, so the campaign still completes.
    injector.poisonMeasurements(1, 2);
    sim::FaultInjector::Scope scope(injector);

    const auto result =
        runCampaign({{cpu_, tinyProtocol()}}, options("faults", 1));
    ASSERT_TRUE(result.ok());

    EXPECT_EQ(metrics::value(metrics::Counter::FaultsInjected),
              injector.injectedCount());
    EXPECT_GE(metrics::value(metrics::Counter::FaultsInjected), 1);
    EXPECT_GE(metrics::value(metrics::Counter::FaultsSurvived), 1);
    EXPECT_GE(metrics::value(metrics::Counter::ProtocolRetries),
              metrics::value(metrics::Counter::FaultsSurvived));
}

TEST_F(CampaignMetricsTest, SummaryTableListsEveryCounter)
{
    const auto table = CampaignMetrics::global().summaryTable();
    EXPECT_NE(table.find("campaign metrics"), std::string::npos);
    EXPECT_NE(table.find("points_committed"), std::string::npos);
    EXPECT_NE(table.find("retry_rate"), std::string::npos);
    EXPECT_NE(table.find("idle_fraction"), std::string::npos);
}

} // namespace
} // namespace syncperf::core
