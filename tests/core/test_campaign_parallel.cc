/**
 * @file
 * Determinism tests for parallel campaign execution: a campaign at
 * --jobs N must produce byte-identical CSVs and manifest.json to the
 * serial run, and resume must interoperate across job counts. Also
 * part of the `tsan` preset, where running the full pipeline at
 * jobs 4 doubles as a race detector for the executor, manifest, and
 * logging layers.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/metrics.hh"
#include "core/campaign.hh"
#include "core/metrics.hh"

namespace syncperf::core
{
namespace
{

namespace fs = std::filesystem;

/** Every regular file under @p dir, as relative path -> bytes. */
std::map<std::string, std::string>
snapshotTree(const fs::path &dir)
{
    std::map<std::string, std::string> out;
    if (!fs::exists(dir))
        return out;
    for (const auto &e : fs::recursive_directory_iterator(dir)) {
        if (!e.is_regular_file())
            continue;
        std::ifstream in(e.path(), std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        out[fs::relative(e.path(), dir).string()] = bytes.str();
    }
    return out;
}

void
expectIdenticalTrees(const std::map<std::string, std::string> &serial,
                     const std::map<std::string, std::string> &parallel)
{
    ASSERT_FALSE(serial.empty());
    ASSERT_EQ(serial.size(), parallel.size());
    for (const auto &[file, bytes] : serial) {
        const auto it = parallel.find(file);
        ASSERT_NE(it, parallel.end()) << file << " missing";
        EXPECT_EQ(bytes, it->second) << file << " differs";
    }
}

/** Deterministic counters of the process registry, by name. */
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

class CampaignParallelTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        base_ = fs::temp_directory_path() /
                ("syncperf_campaign_parallel_" +
                 std::to_string(::getpid()));
        fs::remove_all(base_);
        cpu_ = cpusim::CpuConfig::system3();
        cpu_.cores_per_socket = 2; // keep the sweep cheap
        gpu_ = gpusim::GpuConfig::rtx4090();
        gpu_.sm_count = 4;
    }

    void
    TearDown() override
    {
        fs::remove_all(base_);
    }

    CampaignOptions
    options(const char *tag, int jobs, bool resume = false) const
    {
        CampaignOptions o;
        o.output_dir = (base_ / tag).string();
        o.quick = true;
        o.jobs = jobs;
        o.resume = resume;
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

    static MeasurementConfig
    tinyGpuProtocol()
    {
        auto cfg = MeasurementConfig::simGpuDefaults();
        cfg.runs = 1;
        cfg.attempts = 1;
        cfg.n_iter = 5;
        cfg.n_unroll = 2;
        return cfg;
    }

    fs::path base_;
    cpusim::CpuConfig cpu_;
    gpusim::GpuConfig gpu_;
};

TEST_F(CampaignParallelTest, OmpOutputIsByteIdenticalAcrossJobCounts)
{
    const auto serial =
        runCampaign({{cpu_, tinyProtocol()}}, options("serial", 1));
    const auto parallel =
        runCampaign({{cpu_, tinyProtocol()}}, options("parallel", 4));

    EXPECT_TRUE(serial.ok());
    EXPECT_TRUE(parallel.ok());
    EXPECT_EQ(serial.experiments_run, parallel.experiments_run);
    EXPECT_EQ(serial.files_written.size(),
              parallel.files_written.size());

    expectIdenticalTrees(snapshotTree(base_ / "serial"),
                         snapshotTree(base_ / "parallel"));
}

TEST_F(CampaignParallelTest, CudaOutputIsByteIdenticalAcrossJobCounts)
{
    const auto serial =
        runCampaign({{gpu_, tinyGpuProtocol()}}, options("serial", 1));
    const auto parallel =
        runCampaign({{gpu_, tinyGpuProtocol()}}, options("parallel", 4));

    EXPECT_TRUE(serial.ok());
    EXPECT_TRUE(parallel.ok());
    EXPECT_EQ(serial.experiments_run, parallel.experiments_run);

    expectIdenticalTrees(snapshotTree(base_ / "serial"),
                         snapshotTree(base_ / "parallel"));
}

TEST_F(CampaignParallelTest, MultiSystemCampaignIsIdenticalAtAnyJobCount)
{
    // One campaign over a CPU and a GPU puts both systems' points on
    // one set of workers. Every CSV, both journals, the commit order
    // and the deterministic counters must match the serial run.
    const std::vector<CampaignSystem> systems = {
        {cpu_, tinyProtocol()}, {gpu_, tinyGpuProtocol()}};
    const auto points = campaignPoints(systems, options("points", 1));

    std::map<std::string, std::string> reference_tree;
    std::vector<std::string> reference_order;
    std::map<std::string, long long> reference_counters;
    for (int jobs : {1, 2, 4}) {
        SCOPED_TRACE(jobs);
        const std::string tag = "multi_j" + std::to_string(jobs);
        CampaignMetrics::global().reset();
        const auto result = runCampaign(systems, options(tag.c_str(), jobs));
        ASSERT_TRUE(result.ok());
        ASSERT_EQ(result.systems.size(), 2u);
        EXPECT_GT(result.systems[0].experiments_run, 0);
        EXPECT_GT(result.systems[1].experiments_run, 0);

        std::vector<std::string> order;
        for (const auto &file : result.files_written)
            order.push_back(
                fs::relative(file, base_ / tag).generic_string());
        const auto tree = snapshotTree(base_ / tag);
        const auto counters = deterministicCounters();
        EXPECT_EQ(tree.count(sanitizeName(cpu_.name) + "/manifest.json"),
                  1u);
        EXPECT_EQ(tree.count(sanitizeName(gpu_.name) + "/manifest.json"),
                  1u);
        if (jobs == 1) {
            // The serial commit order is the enumeration order.
            ASSERT_EQ(order.size(), points.size());
            for (std::size_t i = 0; i < points.size(); ++i)
                EXPECT_EQ(order[i], points[i].file);
            reference_tree = tree;
            reference_order = order;
            reference_counters = counters;
            continue;
        }
        expectIdenticalTrees(reference_tree, tree);
        EXPECT_EQ(order, reference_order);
        EXPECT_EQ(counters, reference_counters);
    }
    CampaignMetrics::global().reset();
}

TEST_F(CampaignParallelTest, FilesWrittenKeepPointOrderAtAnyJobCount)
{
    const auto serial =
        runCampaign({{cpu_, tinyProtocol()}}, options("serial", 1));
    const auto parallel =
        runCampaign({{cpu_, tinyProtocol()}}, options("parallel", 4));
    ASSERT_EQ(serial.files_written.size(),
              parallel.files_written.size());
    for (std::size_t i = 0; i < serial.files_written.size(); ++i) {
        EXPECT_EQ(fs::path(serial.files_written[i]).filename(),
                  fs::path(parallel.files_written[i]).filename())
            << "commit order diverged at index " << i;
    }
}

TEST_F(CampaignParallelTest, SerialRunResumesUnderParallelExecution)
{
    // A jobs=1 campaign's journal must be fully honored by a jobs=4
    // resume (the config hash does not depend on the job count).
    const auto first =
        runCampaign({{cpu_, tinyProtocol()}}, options("resume", 1));
    ASSERT_TRUE(first.ok());

    const auto second = runCampaign({{cpu_, tinyProtocol()}},
                                    options("resume", 4, /*resume=*/true));
    EXPECT_TRUE(second.ok());
    EXPECT_EQ(second.experiments_run, 0);
    EXPECT_EQ(second.experiments_skipped, first.experiments_run);
}

TEST_F(CampaignParallelTest, LoopBatchingIsByteIdenticalAcrossJobCounts)
{
    // The steady-state loop batcher must be invisible in every
    // artifact: default vs --no-loop-batch trees are byte-identical,
    // serial and parallel alike, telemetry included (the CLI matrix
    // lives in scripts/test_loop_batch_campaign.sh).
    auto batched = tinyProtocol();
    batched.telemetry = true;
    auto stepped = batched;
    stepped.loop_batch = false;

    const auto on_serial =
        runCampaign({{cpu_, batched}}, options("lb_on_serial", 1));
    const auto off_serial =
        runCampaign({{cpu_, stepped}}, options("lb_off_serial", 1));
    const auto on_parallel =
        runCampaign({{cpu_, batched}}, options("lb_on_parallel", 4));
    EXPECT_TRUE(on_serial.ok());
    EXPECT_TRUE(off_serial.ok());
    EXPECT_TRUE(on_parallel.ok());

    const auto reference = snapshotTree(base_ / "lb_on_serial");
    expectIdenticalTrees(reference,
                         snapshotTree(base_ / "lb_off_serial"));
    expectIdenticalTrees(reference,
                         snapshotTree(base_ / "lb_on_parallel"));

    // The side channel reports engagement even though no artifact
    // may show it.
    std::uint64_t batched_iters = 0;
    for (const auto &[point, lb] : on_serial.loop_batch)
        batched_iters += lb.batched_iters;
    EXPECT_GT(batched_iters, 0u);
    for (const auto &[point, lb] : off_serial.loop_batch)
        EXPECT_EQ(lb.batched_iters, 0u) << point;
}

TEST_F(CampaignParallelTest, OversubscribedJobCountStaysDeterministic)
{
    // More workers than points: the executor must not deadlock or
    // reorder anything.
    const auto serial =
        runCampaign({{cpu_, tinyProtocol()}}, options("serial", 1));
    const auto flooded =
        runCampaign({{cpu_, tinyProtocol()}}, options("flooded", 64));
    EXPECT_TRUE(flooded.ok());
    EXPECT_EQ(serial.experiments_run, flooded.experiments_run);
    expectIdenticalTrees(snapshotTree(base_ / "serial"),
                         snapshotTree(base_ / "flooded"));
}

} // namespace
} // namespace syncperf::core
