/**
 * @file
 * End-to-end resilience tests for the campaign driver: graceful
 * degradation under injected write failures, checkpoint/resume after
 * a mid-campaign SIGKILL, and journal integrity throughout.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <filesystem>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/atomic_file.hh"
#include "core/campaign.hh"
#include "core/manifest.hh"
#include "sim/fault_injector.hh"

namespace syncperf::core
{
namespace
{

namespace fs = std::filesystem;

class CampaignResilienceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("syncperf_campaign_resilience_" +
                std::to_string(::getpid()));
        fs::remove_all(dir_);
        cpu_ = cpusim::CpuConfig::system3();
        cpu_.cores_per_socket = 2; // keep the sweep cheap
        system_dir_ = dir_ / sanitizeName(cpu_.name);
    }

    void
    TearDown() override
    {
        AtomicFile::setFaultHook(nullptr);
        fs::remove_all(dir_);
    }

    CampaignOptions
    options(bool resume = false) const
    {
        CampaignOptions o;
        o.output_dir = dir_.string();
        o.quick = true;
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

    int
    countTempFiles() const
    {
        int n = 0;
        if (!fs::exists(system_dir_))
            return 0;
        for (const auto &e : fs::directory_iterator(system_dir_))
            n += e.path().extension() == ".tmp" ? 1 : 0;
        return n;
    }

    fs::path dir_;
    fs::path system_dir_;
    cpusim::CpuConfig cpu_;
};

TEST_F(CampaignResilienceTest, CleanRunJournalsEveryExperiment)
{
    const auto result = runCampaign({{cpu_, tinyProtocol()}}, options());
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.experiments_skipped, 0);
    EXPECT_GT(result.experiments_run, 20);

    const auto loaded = Manifest::load(system_dir_ / "manifest.json");
    ASSERT_TRUE(loaded.isOk());
    EXPECT_EQ(loaded.value().completeCount(), result.experiments_run);
    EXPECT_EQ(loaded.value().failedCount(), 0);
    EXPECT_EQ(countTempFiles(), 0);
}

TEST_F(CampaignResilienceTest, ResumeSkipsEverythingAfterCleanRun)
{
    const auto first = runCampaign({{cpu_, tinyProtocol()}}, options());
    ASSERT_TRUE(first.ok());

    const auto second =
        runCampaign({{cpu_, tinyProtocol()}}, options(/*resume=*/true));
    EXPECT_TRUE(second.ok());
    EXPECT_EQ(second.experiments_run, 0);
    EXPECT_EQ(second.experiments_skipped, first.experiments_run);
    EXPECT_TRUE(second.files_written.empty());
}

TEST_F(CampaignResilienceTest, ChangedProtocolInvalidatesTheJournal)
{
    const auto first = runCampaign({{cpu_, tinyProtocol()}}, options());
    ASSERT_TRUE(first.ok());

    auto protocol = tinyProtocol();
    protocol.n_iter *= 2; // different config hash for every point
    const auto second =
        runCampaign({{cpu_, protocol}}, options(/*resume=*/true));
    EXPECT_TRUE(second.ok());
    EXPECT_EQ(second.experiments_skipped, 0);
    EXPECT_EQ(second.experiments_run, first.experiments_run);
}

TEST_F(CampaignResilienceTest,
       InjectedWriteFailureDegradesGracefully)
{
    // Ops per successful experiment: CSV open, CSV commit, manifest
    // open, manifest commit. Failing op 5 (count 1) hits the second
    // experiment's CSV open and nothing else.
    sim::FaultInjector faults;
    faults.failWrites(5, 1);
    sim::FaultInjector::Scope scope(faults);

    const auto result = runCampaign({{cpu_, tinyProtocol()}}, options());
    EXPECT_FALSE(result.ok());
    ASSERT_EQ(result.failures.size(), 1u);
    EXPECT_EQ(result.failures[0].file,
              sanitizeName(cpu_.name) + "/omp_critical.csv");
    EXPECT_NE(result.failures[0].error.find("fault_injected"),
              std::string::npos);
    EXPECT_GT(result.experiments_run, 20);
    EXPECT_EQ(result.files_written.size(),
              static_cast<std::size_t>(result.experiments_run));

    // The failed experiment produced no file, truncated or otherwise.
    EXPECT_FALSE(fs::exists(system_dir_ / "omp_critical.csv"));
    EXPECT_EQ(countTempFiles(), 0);

    // ... and its failure is journaled with the cause.
    const auto loaded = Manifest::load(system_dir_ / "manifest.json");
    ASSERT_TRUE(loaded.isOk());
    EXPECT_EQ(loaded.value().failedCount(), 1);
    bool found = false;
    for (const auto &entry : loaded.value().entries()) {
        if (entry.key == "omp_critical.csv") {
            found = true;
            EXPECT_FALSE(entry.complete);
            EXPECT_NE(entry.error.find("fault_injected"),
                      std::string::npos);
        }
    }
    EXPECT_TRUE(found);
}

TEST_F(CampaignResilienceTest, ResumeRetriesOnlyTheFailedExperiment)
{
    {
        sim::FaultInjector faults;
        faults.failWrites(5, 1);
        sim::FaultInjector::Scope scope(faults);
        const auto degraded =
            runCampaign({{cpu_, tinyProtocol()}}, options());
        ASSERT_EQ(degraded.failures.size(), 1u);
    }

    const auto resumed =
        runCampaign({{cpu_, tinyProtocol()}}, options(/*resume=*/true));
    EXPECT_TRUE(resumed.ok());
    EXPECT_EQ(resumed.experiments_run, 1);
    ASSERT_EQ(resumed.files_written.size(), 1u);
    EXPECT_TRUE(fs::exists(system_dir_ / "omp_critical.csv"));

    const auto loaded = Manifest::load(system_dir_ / "manifest.json");
    ASSERT_TRUE(loaded.isOk());
    EXPECT_EQ(loaded.value().failedCount(), 0);
}

TEST_F(CampaignResilienceTest,
       InvalidMeasurementIsJournaledNotFatal)
{
    // Poison every timed launch from the start of the third
    // experiment on, but only transiently (enough to exhaust a tiny
    // retry budget on one experiment, not the rest).
    auto protocol = tinyProtocol();
    protocol.max_retries = 2;

    sim::FaultInjector faults;
    // Each experiment measures several thread counts; each point
    // issues warm + timed launches. Poison a window big enough to
    // sink one experiment's retry budget.
    faults.poisonMeasurements(5, 8);
    sim::FaultInjector::Scope scope(faults);

    const auto result = runCampaign({{cpu_, protocol}}, options());
    EXPECT_FALSE(result.ok());
    ASSERT_GE(result.failures.size(), 1u);
    EXPECT_NE(result.failures[0].error.find("non-finite"),
              std::string::npos);
    // Everything else still ran.
    EXPECT_GT(result.experiments_run, 20);
    EXPECT_EQ(countTempFiles(), 0);
}

/**
 * The acceptance-criterion round trip: SIGKILL a campaign mid-run,
 * rerun with --resume, and verify it completes without redoing
 * journaled work and without leaving truncated or temporary files.
 */
TEST_F(CampaignResilienceTest, KillResumeRoundTrip)
{
    const int kill_after_commits = 5;

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Child: die abruptly while committing CSV number 6. At that
        // instant its .tmp holds complete content but the rename has
        // not happened and the manifest knows only 5 completions.
        int csv_commits = 0;
        AtomicFile::setFaultHook(
            [&](const fs::path &path, std::string_view op) {
                if (op == "commit" && path.extension() == ".csv" &&
                    ++csv_commits > kill_after_commits) {
                    ::kill(::getpid(), SIGKILL);
                }
                return Status::ok();
            });
        (void)runCampaign({{cpu_, tinyProtocol()}}, options());
        ::_exit(42); // not reached: the campaign dies first
    }

    int wstatus = 0;
    ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
    ASSERT_TRUE(WIFSIGNALED(wstatus));
    ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

    // The interrupted run left a consistent journal and a stray temp.
    const auto partial = Manifest::load(system_dir_ / "manifest.json");
    ASSERT_TRUE(partial.isOk());
    EXPECT_EQ(partial.value().completeCount(), kill_after_commits);
    EXPECT_EQ(countTempFiles(), 1);

    // Resume: journaled-complete experiments are skipped, the rest
    // (including the one killed mid-commit) run to completion.
    const auto resumed =
        runCampaign({{cpu_, tinyProtocol()}}, options(/*resume=*/true));
    EXPECT_TRUE(resumed.ok());
    EXPECT_EQ(resumed.experiments_skipped, kill_after_commits);
    EXPECT_GT(resumed.experiments_run, 0);

    // Zero truncated or temporary CSVs anywhere in the results tree.
    EXPECT_EQ(countTempFiles(), 0);
    const auto final_manifest =
        Manifest::load(system_dir_ / "manifest.json");
    ASSERT_TRUE(final_manifest.isOk());
    EXPECT_EQ(final_manifest.value().failedCount(), 0);
    EXPECT_EQ(final_manifest.value().completeCount(),
              kill_after_commits + resumed.experiments_run);
    for (const auto &entry : final_manifest.value().entries()) {
        const fs::path csv = system_dir_ / entry.key;
        EXPECT_TRUE(fs::exists(csv)) << entry.key;
        EXPECT_GT(fs::file_size(csv), 0u) << entry.key;
    }
}

/**
 * The same round trip with four concurrent experiments and batched
 * manifest checkpointing. Under --jobs N the journal may lag CSV
 * commits (it is flushed every checkpoint_every commits), so a crash
 * can leave committed-but-unjournaled CSVs and several in-flight
 * temp files at once; resume must redo that work, never trust it.
 */
TEST_F(CampaignResilienceTest, KillResumeRoundTripUnderParallelExecution)
{
    CampaignOptions parallel = options();
    parallel.jobs = 4;
    parallel.checkpoint_every = 3;

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Child: several workers commit CSVs concurrently; die during
        // the seventh commit, whichever worker gets there.
        std::atomic<int> csv_commits{0};
        AtomicFile::setFaultHook(
            [&](const fs::path &path, std::string_view op) {
                if (op == "commit" && path.extension() == ".csv" &&
                    csv_commits.fetch_add(1) + 1 > 6) {
                    ::kill(::getpid(), SIGKILL);
                }
                return Status::ok();
            });
        (void)runCampaign({{cpu_, tinyProtocol()}}, parallel);
        ::_exit(42); // not reached: the campaign dies first
    }

    int wstatus = 0;
    ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
    ASSERT_TRUE(WIFSIGNALED(wstatus));
    ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

    // Crash-safety invariant under concurrency: the journal may lag
    // the CSVs but never lead them -- every journaled completion has
    // its file on disk. (The manifest may not exist at all if the
    // crash beat the first checkpoint; that is equally safe.)
    const auto partial = Manifest::load(system_dir_ / "manifest.json");
    if (partial.isOk()) {
        for (const auto &entry : partial.value().entries()) {
            if (entry.complete) {
                EXPECT_TRUE(fs::exists(system_dir_ / entry.key))
                    << entry.key;
            }
        }
    }

    CampaignOptions resume_opts = options(/*resume=*/true);
    resume_opts.jobs = 4;
    resume_opts.checkpoint_every = 3;
    const auto resumed =
        runCampaign({{cpu_, tinyProtocol()}}, resume_opts);
    EXPECT_TRUE(resumed.ok());
    EXPECT_GT(resumed.experiments_run, 0);

    // Zero truncated or temporary CSVs anywhere in the results tree.
    EXPECT_EQ(countTempFiles(), 0);
    const auto final_manifest =
        Manifest::load(system_dir_ / "manifest.json");
    ASSERT_TRUE(final_manifest.isOk());
    EXPECT_EQ(final_manifest.value().failedCount(), 0);
    EXPECT_EQ(final_manifest.value().completeCount(),
              resumed.experiments_run + resumed.experiments_skipped);
    for (const auto &entry : final_manifest.value().entries()) {
        const fs::path csv = system_dir_ / entry.key;
        EXPECT_TRUE(fs::exists(csv)) << entry.key;
        EXPECT_GT(fs::file_size(csv), 0u) << entry.key;
    }
}

TEST_F(CampaignResilienceTest, CudaCampaignSharesTheResilienceLayer)
{
    gpusim::GpuConfig gpu = gpusim::GpuConfig::rtx4090();
    gpu.sm_count = 4;
    auto protocol = MeasurementConfig::simGpuDefaults();
    protocol.runs = 1;
    protocol.attempts = 1;
    protocol.n_iter = 5;
    protocol.n_unroll = 2;

    sim::FaultInjector faults;
    faults.failWrites(5, 1); // second experiment's CSV open
    sim::FaultInjector::Scope scope(faults);

    const auto result = runCampaign({{gpu, protocol}}, options());
    EXPECT_FALSE(result.ok());
    ASSERT_EQ(result.failures.size(), 1u);
    EXPECT_EQ(result.failures[0].file,
              sanitizeName(gpu.name) + "/cuda_syncwarp.csv");
    EXPECT_GT(result.experiments_run, 10);

    const auto resumed =
        runCampaign({{gpu, protocol}}, options(/*resume=*/true));
    EXPECT_TRUE(resumed.ok());
    EXPECT_EQ(resumed.experiments_run, 1);
    EXPECT_EQ(resumed.experiments_skipped, result.experiments_run);
}

} // namespace
} // namespace syncperf::core
