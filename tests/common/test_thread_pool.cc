/**
 * @file
 * Tests for the work-stealing thread pool. The interesting properties
 * are completion (every task runs exactly once, from any submitting
 * thread), recursive submission (a worker fanning out more work), and
 * idle-waiting; they are exercised with enough tasks and workers that
 * TSan (the `tsan` preset) gets a fair chance at any race.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <set>
#include <thread>
#include <vector>

#include "common/thread_pool.hh"

namespace syncperf
{
namespace
{

TEST(ThreadPool, RunsEverySubmittedTaskExactlyOnce)
{
    ThreadPool pool(4);
    constexpr int n_tasks = 1000;
    std::vector<std::atomic<int>> runs(n_tasks);
    for (int i = 0; i < n_tasks; ++i)
        pool.submit([&runs, i] { runs[i].fetch_add(1); });
    pool.waitIdle();
    for (int i = 0; i < n_tasks; ++i)
        EXPECT_EQ(runs[i].load(), 1) << "task " << i;
}

TEST(ThreadPool, ClampsWorkerCountToAtLeastOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1);
    std::atomic<int> ran{0};
    pool.submit([&] { ran.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, WorkersCanSubmitMoreWork)
{
    ThreadPool pool(4);
    std::atomic<int> leaves{0};
    // Binary fan-out three levels deep, seeded from off-pool: only
    // stealing lets other workers help with the recursive half.
    std::function<void(int)> fan = [&](int depth) {
        if (depth == 0) {
            leaves.fetch_add(1);
            return;
        }
        pool.submit([&fan, depth] { fan(depth - 1); });
        pool.submit([&fan, depth] { fan(depth - 1); });
    };
    pool.submit([&fan] { fan(6); });
    pool.waitIdle();
    EXPECT_EQ(leaves.load(), 64);
}

TEST(ThreadPool, CurrentWorkerIdentifiesPoolThreads)
{
    EXPECT_EQ(ThreadPool::currentWorker(), -1);
    ThreadPool pool(3);
    std::mutex mutex;
    std::set<int> seen;
    for (int i = 0; i < 64; ++i) {
        pool.submit([&] {
            const int worker = ThreadPool::currentWorker();
            std::scoped_lock lock(mutex);
            seen.insert(worker);
        });
    }
    pool.waitIdle();
    EXPECT_EQ(ThreadPool::currentWorker(), -1);
    for (int worker : seen) {
        EXPECT_GE(worker, 0);
        EXPECT_LT(worker, pool.size());
    }
}

TEST(ThreadPool, WaitIdleReturnsImmediatelyWhenEmpty)
{
    ThreadPool pool(2);
    pool.waitIdle(); // must not hang
    SUCCEED();
}

TEST(ThreadPool, DestructorDrainsQueuedWork)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 100; ++i)
            pool.submit([&] { ran.fetch_add(1); });
        // No waitIdle: the destructor must finish the backlog.
    }
    EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, IdleTailIsCountedWhileWorkersStillWait)
{
    // One long and one short task on two workers: whichever worker
    // gets the short one then waits out the long one's tail. That
    // wait is still open when workerStats() runs after waitIdle(),
    // and must be counted up to the snapshot.
    using namespace std::chrono;
    constexpr auto long_task = milliseconds(200);
    const auto t0 = steady_clock::now();
    ThreadPool pool(2);
    // Both workers are running before the timed pair is submitted.
    std::latch started(2);
    for (int i = 0; i < 2; ++i)
        pool.submit([&] { started.arrive_and_wait(); });
    pool.waitIdle();
    pool.submit([&] { std::this_thread::sleep_for(long_task); });
    pool.submit([] {});
    pool.waitIdle();
    const auto stats = pool.workerStats();
    const auto wall = steady_clock::now() - t0;

    long long idle = 0;
    long long tasks = 0;
    for (const auto &w : stats) {
        idle += w.idle_nanos;
        tasks += w.tasks_run;
    }
    EXPECT_EQ(tasks, 4);
    // The gap between the two tasks is the long task's length less a
    // no-op; allow a quarter for the short worker's start-up.
    EXPECT_GE(idle, duration_cast<nanoseconds>(long_task).count() * 3 / 4);
    // Two workers cannot be idle longer than both of them existed.
    EXPECT_LE(idle, 2 * duration_cast<nanoseconds>(wall).count());
}

TEST(ThreadPool, HardwareConcurrencyIsPositive)
{
    EXPECT_GE(ThreadPool::hardwareConcurrency(), 1);
}

} // namespace
} // namespace syncperf
