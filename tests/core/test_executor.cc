/**
 * @file
 * Tests for OrderedExecutor: jobs on several workers overlap, every
 * job runs exactly once, workers take jobs in index order, commits
 * land in index order on the calling thread regardless of completion
 * order, the serial path (workers <= 1) behaves identically, and the
 * per-worker stats account for each worker's whole lifetime. They
 * run with enough jobs and workers that TSan (the `tsan` preset)
 * gets a fair chance at any race.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "core/campaign.hh"
#include "core/executor.hh"

namespace syncperf::core
{
namespace
{

std::vector<OrderedExecutor::Job>
orderRecordingJobs(int n, std::vector<int> &commit_order,
                   std::thread::id &commit_thread, int sleep_step_ms)
{
    std::vector<OrderedExecutor::Job> jobs;
    for (int i = 0; i < n; ++i) {
        // Later jobs finish first when sleep_step_ms > 0. The jobs
        // outlive this call, so its parameters are captured by value.
        const int ms = sleep_step_ms * (n - 1 - i);
        jobs.push_back([&commit_order, &commit_thread, i,
                        ms]() -> OrderedExecutor::CommitFn {
            if (ms > 0) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(ms));
            }
            return [&commit_order, &commit_thread, i] {
                commit_order.push_back(i);
                commit_thread = std::this_thread::get_id();
            };
        });
    }
    return jobs;
}

TEST(OrderedExecutor, CommitsInIndexOrderDespiteReversedCompletion)
{
    std::vector<int> commit_order;
    std::thread::id commit_thread;
    OrderedExecutor::run(
        4, orderRecordingJobs(8, commit_order, commit_thread, 5));
    ASSERT_EQ(commit_order.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(commit_order[i], i);
    EXPECT_EQ(commit_thread, std::this_thread::get_id());
}

// Runs n recording jobs on `workers` and checks they took the serial
// path: commits in index order, on the calling thread, no worker stats.
void
expectInline(int workers, int n)
{
    std::vector<int> commit_order;
    std::thread::id commit_thread;
    const auto stats = OrderedExecutor::run(
        workers, orderRecordingJobs(n, commit_order, commit_thread, 0));
    ASSERT_EQ(commit_order.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(commit_order[i], i);
    EXPECT_EQ(commit_thread, std::this_thread::get_id());
    EXPECT_TRUE(stats.empty()) << "no worker was started";
}

TEST(OrderedExecutor, ZeroWorkersRunsInline)
{
    expectInline(0, 5);
}

TEST(OrderedExecutor, NegativeWorkerCountRunsInline)
{
    expectInline(-3, 5);
}

TEST(OrderedExecutor, OneWorkerRunsInline)
{
    std::vector<int> commit_order;
    std::thread::id commit_thread;
    std::vector<std::thread::id> job_threads;
    auto jobs = orderRecordingJobs(4, commit_order, commit_thread, 0);
    for (auto &job : jobs) {
        job = [&job_threads, inner = std::move(job)] {
            job_threads.push_back(std::this_thread::get_id());
            return inner();
        };
    }
    const auto stats = OrderedExecutor::run(1, std::move(jobs));
    ASSERT_EQ(commit_order.size(), 4u);
    EXPECT_EQ(commit_thread, std::this_thread::get_id());
    for (const auto &id : job_threads)
        EXPECT_EQ(id, std::this_thread::get_id());
    EXPECT_TRUE(stats.empty());
}

TEST(OrderedExecutor, RunsEveryJobExactlyOnce)
{
    constexpr int n_jobs = 1000;
    std::vector<std::atomic<int>> runs(n_jobs);
    std::vector<OrderedExecutor::Job> jobs;
    for (int i = 0; i < n_jobs; ++i) {
        jobs.push_back([&runs, i]() -> OrderedExecutor::CommitFn {
            runs[i].fetch_add(1);
            return nullptr;
        });
    }
    const auto stats = OrderedExecutor::run(4, std::move(jobs));
    for (int i = 0; i < n_jobs; ++i)
        EXPECT_EQ(runs[i].load(), 1) << "job " << i;
    long long tasks = 0;
    for (const auto &w : stats)
        tasks += w.tasks_run;
    EXPECT_EQ(tasks, n_jobs);
}

TEST(OrderedExecutor, EachWorkerTakesJobsInIndexOrder)
{
    // Dispatch follows index order: whichever worker takes a job,
    // every job it took before has a lower index.
    constexpr int n_jobs = 400;
    std::mutex mutex;
    std::map<std::thread::id, std::vector<int>> taken;
    std::vector<OrderedExecutor::Job> jobs;
    for (int i = 0; i < n_jobs; ++i) {
        jobs.push_back([&, i]() -> OrderedExecutor::CommitFn {
            std::scoped_lock lock(mutex);
            taken[std::this_thread::get_id()].push_back(i);
            return nullptr;
        });
    }
    OrderedExecutor::run(3, std::move(jobs));
    std::size_t total = 0;
    for (const auto &[id, indices] : taken) {
        total += indices.size();
        for (std::size_t k = 1; k < indices.size(); ++k)
            EXPECT_LT(indices[k - 1], indices[k]);
    }
    EXPECT_EQ(total, static_cast<std::size_t>(n_jobs));
}

TEST(OrderedExecutor, BusyPlusIdleIsEachWorkersLifetime)
{
    // One long job and one short one on three workers: the worker
    // with the short job waits out the long one's tail, and the
    // third gets no job at all. Every worker's busy + idle is its
    // whole lifetime, so none can exceed the run's wall time, the
    // idle workers together wait most of the long job, and the
    // jobless worker is idle throughout.
    using namespace std::chrono;
    constexpr auto long_job = milliseconds(200);
    std::vector<OrderedExecutor::Job> jobs;
    jobs.push_back([&]() -> OrderedExecutor::CommitFn {
        std::this_thread::sleep_for(long_job);
        return nullptr;
    });
    jobs.push_back([]() -> OrderedExecutor::CommitFn { return nullptr; });
    const auto t0 = steady_clock::now();
    const auto stats = OrderedExecutor::run(3, std::move(jobs));
    const long long wall =
        duration_cast<nanoseconds>(steady_clock::now() - t0).count();
    const long long long_ns = duration_cast<nanoseconds>(long_job).count();

    ASSERT_EQ(stats.size(), 3u);
    long long tasks = 0, idle = 0;
    int jobless = 0;
    for (const auto &w : stats) {
        tasks += w.tasks_run;
        idle += w.idle_nanos;
        EXPECT_GE(w.busy_nanos, 0);
        EXPECT_GE(w.idle_nanos, 0);
        EXPECT_LE(w.busy_nanos + w.idle_nanos, wall);
        if (w.tasks_run == 0) {
            ++jobless;
            EXPECT_EQ(w.busy_nanos, 0);
            // A quarter of slack for the thread's start-up.
            EXPECT_GE(w.idle_nanos, long_ns * 3 / 4);
        }
    }
    EXPECT_EQ(tasks, 2);
    EXPECT_GE(jobless, 1);
    // The short job's worker and the jobless one both wait out the
    // long job.
    EXPECT_GE(idle, 2 * long_ns * 3 / 4);
}

TEST(OrderedExecutor, RunsJobsConcurrently)
{
    // Job 0 cannot finish until job 1 has started, so an executor
    // that runs its jobs one after the other times out here instead
    // of passing. The wait is bounded so such an executor fails the
    // test rather than hanging it.
    std::mutex mutex;
    std::condition_variable started;
    bool job1_started = false;
    bool job0_saw_job1 = false;
    std::vector<OrderedExecutor::Job> jobs;
    jobs.push_back([&]() -> OrderedExecutor::CommitFn {
        std::unique_lock lock(mutex);
        job0_saw_job1 = started.wait_for(lock, std::chrono::seconds(5),
                                         [&] { return job1_started; });
        return nullptr;
    });
    jobs.push_back([&]() -> OrderedExecutor::CommitFn {
        {
            std::scoped_lock lock(mutex);
            job1_started = true;
        }
        started.notify_all();
        return nullptr;
    });
    OrderedExecutor::run(2, std::move(jobs));
    EXPECT_TRUE(job0_saw_job1)
        << "job 0 waited 5 s for job 1 to start on 2 workers";
}

TEST(OrderedExecutor, NullCommitIsSkipped)
{
    std::atomic<int> ran{0};
    std::vector<OrderedExecutor::Job> jobs;
    for (int i = 0; i < 6; ++i) {
        jobs.push_back([&ran]() -> OrderedExecutor::CommitFn {
            ran.fetch_add(1);
            return nullptr;
        });
    }
    OrderedExecutor::run(2, std::move(jobs));
    EXPECT_EQ(ran.load(), 6);
}

TEST(OrderedExecutor, EmptyJobListIsANoOp)
{
    EXPECT_TRUE(OrderedExecutor::run(2, {}).empty());
    EXPECT_TRUE(OrderedExecutor::run(0, {}).empty());
}

TEST(OrderedExecutor, SharedStateInCommitsNeedsNoLocking)
{
    // The deterministic-commit contract: commits are serialized on
    // the caller, so plain (unsynchronized) shared state is safe --
    // exactly how the campaign treats its manifest and result. TSan
    // validates the claim in the `tsan` preset.
    int unguarded_counter = 0;
    std::vector<OrderedExecutor::Job> jobs;
    for (int i = 0; i < 100; ++i) {
        jobs.push_back([&unguarded_counter]() -> OrderedExecutor::CommitFn {
            return [&unguarded_counter] { ++unguarded_counter; };
        });
    }
    OrderedExecutor::run(4, std::move(jobs));
    EXPECT_EQ(unguarded_counter, 100);
}

TEST(ResolveJobs, ZeroMeansOnePerHardwareThreadAndAtLeastOne)
{
    EXPECT_GE(resolveJobs(0), 1);
    EXPECT_EQ(resolveJobs(1), 1);
    EXPECT_EQ(resolveJobs(-2), 1);
    EXPECT_EQ(resolveJobs(6), 6);
}

} // namespace
} // namespace syncperf::core
