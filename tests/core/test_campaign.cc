/**
 * @file
 * Tests for the campaign driver (results-tree emission).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "core/campaign.hh"

namespace syncperf::core
{
namespace
{

namespace fs = std::filesystem;

class CampaignTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("syncperf_campaign_test_" +
                std::to_string(::getpid()));
        fs::remove_all(dir_);
    }

    void
    TearDown() override
    {
        fs::remove_all(dir_);
    }

    CampaignOptions
    options() const
    {
        CampaignOptions o;
        o.output_dir = dir_.string();
        o.quick = true;
        return o;
    }

    static MeasurementConfig
    tinyProtocol()
    {
        auto cfg = MeasurementConfig::simDefaults();
        cfg.runs = 1;
        cfg.attempts = 1;
        cfg.n_iter = 10;
        cfg.n_unroll = 2;
        return cfg;
    }

    fs::path dir_;
};

TEST(SanitizeName, ProducesFilesystemSafeSlugs)
{
    EXPECT_EQ(sanitizeName("System 3: AMD Ryzen Threadripper 2950X"),
              "system_3_amd_ryzen_threadripper_2950x");
    EXPECT_EQ(sanitizeName("NVIDIA A100 40GB"), "nvidia_a100_40gb");
    EXPECT_EQ(sanitizeName("trailing!!"), "trailing");
}

TEST_F(CampaignTest, OmpCampaignWritesExpectedFiles)
{
    // A small machine keeps the sweep cheap.
    cpusim::CpuConfig cpu = cpusim::CpuConfig::system3();
    cpu.cores_per_socket = 4;

    const auto result = runCampaign({{cpu, tinyProtocol()}}, options());
    EXPECT_GT(result.experiments_run, 20);
    EXPECT_EQ(result.files_written.size(),
              static_cast<std::size_t>(result.experiments_run));
    for (const auto &file : result.files_written) {
        EXPECT_TRUE(fs::exists(file)) << file;
        EXPECT_GT(fs::file_size(file), 0u) << file;
    }

    // Spot-check a file's structure: header + one row per thread
    // count, 4 comma-separated fields.
    const fs::path barrier =
        dir_ / sanitizeName(cpu.name) / "omp_barrier.csv";
    ASSERT_TRUE(fs::exists(barrier));
    std::ifstream in(barrier);
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header,
              "threads,per_op_seconds,throughput_per_thread,"
              "stddev_seconds");
    int rows = 0;
    for (std::string line; std::getline(in, line);) {
        EXPECT_EQ(std::count(line.begin(), line.end(), ','), 3) << line;
        ++rows;
    }
    EXPECT_GT(rows, 1);
}

TEST_F(CampaignTest, CudaCampaignWritesExpectedFiles)
{
    gpusim::GpuConfig gpu = gpusim::GpuConfig::rtx4090();
    gpu.sm_count = 8;  // keep the half-SM block count small

    auto protocol = MeasurementConfig::simGpuDefaults();
    protocol.runs = 1;
    protocol.attempts = 1;
    protocol.n_iter = 5;
    protocol.n_unroll = 2;

    const auto result = runCampaign({{gpu, protocol}}, options());
    EXPECT_GT(result.experiments_run, 10);
    for (const auto &file : result.files_written)
        EXPECT_TRUE(fs::exists(file)) << file;

    const fs::path syncwarp =
        dir_ / sanitizeName(gpu.name) / "cuda_syncwarp.csv";
    ASSERT_TRUE(fs::exists(syncwarp));
    std::ifstream in(syncwarp);
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header,
              "blocks,threads_per_block,per_op_seconds,"
              "throughput_per_thread");
}

TEST_F(CampaignTest, CasFilesOnlyForIntegerTypes)
{
    gpusim::GpuConfig gpu = gpusim::GpuConfig::rtx4090();
    gpu.sm_count = 4;
    auto protocol = MeasurementConfig::simGpuDefaults();
    protocol.runs = 1;
    protocol.attempts = 1;
    protocol.n_iter = 5;
    protocol.n_unroll = 2;

    const auto result = runCampaign({{gpu, protocol}}, options());
    const fs::path base = dir_ / sanitizeName(gpu.name);
    EXPECT_TRUE(fs::exists(base / "cuda_atomiccas_int.csv"));
    EXPECT_TRUE(fs::exists(base / "cuda_atomiccas_ull.csv"));
    EXPECT_FALSE(fs::exists(base / "cuda_atomiccas_float.csv"));
    EXPECT_FALSE(fs::exists(base / "cuda_atomiccas_double.csv"));
    (void)result;
}

TEST_F(CampaignTest, HeartbeatBeatsOnTheCallerBeforeMeasuringAndPerCommit)
{
    cpusim::CpuConfig cpu = cpusim::CpuConfig::system3();
    cpu.cores_per_socket = 2;

    for (const int jobs : {1, 2}) {
        SCOPED_TRACE(jobs);
        fs::remove_all(dir_);
        const std::thread::id caller = std::this_thread::get_id();
        std::atomic<int> beats{0};
        std::atomic<int> foreign_beats{0};
        CampaignOptions o = options();
        o.jobs = jobs;
        o.heartbeat = [&] {
            ++beats;
            if (std::this_thread::get_id() != caller)
                ++foreign_beats;
        };

        // One beat before the first measurement, one per commit.
        const auto result = runCampaign({{cpu, tinyProtocol()}}, o);
        ASSERT_GT(result.experiments_run, 0);
        EXPECT_TRUE(result.failures.empty());
        EXPECT_EQ(beats.load(), result.experiments_run + 1);
        EXPECT_EQ(foreign_beats.load(), 0);

        // A resume over the complete tree measures nothing and beats
        // not at all.
        beats = 0;
        o.resume = true;
        const auto resumed = runCampaign({{cpu, tinyProtocol()}}, o);
        EXPECT_EQ(resumed.experiments_run, 0);
        EXPECT_EQ(resumed.experiments_skipped, result.experiments_run);
        EXPECT_EQ(beats.load(), 0);
    }
}

} // namespace
} // namespace syncperf::core
