/**
 * @file
 * Tests for OrderedExecutor: jobs on a multi-worker pool overlap,
 * commits must land in submission order on the calling thread
 * regardless of completion order, and the serial path (null pool)
 * must behave identically.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

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
        jobs.push_back([&, i]() -> OrderedExecutor::CommitFn {
            // Later jobs finish first when sleep_step_ms > 0.
            const int ms = sleep_step_ms * (n - 1 - i);
            if (ms > 0) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(ms));
            }
            return [&, i] {
                commit_order.push_back(i);
                commit_thread = std::this_thread::get_id();
            };
        });
    }
    return jobs;
}

TEST(OrderedExecutor, CommitsInIndexOrderDespiteReversedCompletion)
{
    ThreadPool pool(4);
    std::vector<int> commit_order;
    std::thread::id commit_thread;
    OrderedExecutor::run(
        &pool, orderRecordingJobs(8, commit_order, commit_thread, 5));
    ASSERT_EQ(commit_order.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(commit_order[i], i);
    EXPECT_EQ(commit_thread, std::this_thread::get_id());
}

TEST(OrderedExecutor, NullPoolRunsInline)
{
    std::vector<int> commit_order;
    std::thread::id commit_thread;
    OrderedExecutor::run(
        nullptr, orderRecordingJobs(5, commit_order, commit_thread, 0));
    ASSERT_EQ(commit_order.size(), 5u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(commit_order[i], i);
    EXPECT_EQ(commit_thread, std::this_thread::get_id());
}

TEST(OrderedExecutor, SingleWorkerPoolFallsBackToInline)
{
    ThreadPool pool(1);
    std::vector<int> commit_order;
    std::thread::id commit_thread;
    OrderedExecutor::run(
        &pool, orderRecordingJobs(4, commit_order, commit_thread, 0));
    ASSERT_EQ(commit_order.size(), 4u);
    EXPECT_EQ(commit_thread, std::this_thread::get_id());
}

TEST(OrderedExecutor, RunsJobsConcurrently)
{
    // Job 0 cannot finish until job 1 has started, so an executor
    // that runs its jobs one after the other times out here instead
    // of passing. The wait is bounded so such an executor fails the
    // test rather than hanging it.
    ThreadPool pool(2);
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
    OrderedExecutor::run(&pool, std::move(jobs));
    EXPECT_TRUE(job0_saw_job1)
        << "job 0 waited 5 s for job 1 to start on a 2-worker pool";
}

TEST(OrderedExecutor, NullCommitIsSkipped)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    std::vector<OrderedExecutor::Job> jobs;
    for (int i = 0; i < 6; ++i) {
        jobs.push_back([&ran]() -> OrderedExecutor::CommitFn {
            ran.fetch_add(1);
            return nullptr;
        });
    }
    OrderedExecutor::run(&pool, std::move(jobs));
    EXPECT_EQ(ran.load(), 6);
}

TEST(OrderedExecutor, EmptyJobListIsANoOp)
{
    ThreadPool pool(2);
    OrderedExecutor::run(&pool, {});
    OrderedExecutor::run(nullptr, {});
    SUCCEED();
}

TEST(OrderedExecutor, SharedStateInCommitsNeedsNoLocking)
{
    ThreadPool pool(4);
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
    OrderedExecutor::run(&pool, std::move(jobs));
    EXPECT_EQ(unguarded_counter, 100);
}

} // namespace
} // namespace syncperf::core
