/**
 * @file
 * Implementation of the ordered executor.
 */

#include "executor.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/logging.hh"
#include "common/metrics.hh"

namespace syncperf::core
{
namespace
{

/** Monotonic nanoseconds for the busy/idle worker clocks. */
long long
nowNanos()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

std::vector<OrderedExecutor::WorkerStats>
OrderedExecutor::run(int workers, std::vector<Job> jobs)
{
    if (jobs.empty())
        return {};

    if (workers <= 1) {
        // Serial fast path: run and commit each job back to back,
        // exactly like the pre-parallel campaign loop.
        for (Job &job : jobs) {
            if (CommitFn commit = job())
                commit();
        }
        return {};
    }

    struct Slot
    {
        CommitFn commit;
        bool done = false;
    };

    std::mutex mutex;
    std::condition_variable finished;
    std::vector<Slot> slots(jobs.size());
    // Commit-queue depth: jobs finished but not yet committed. Its
    // high-water mark shows how far ahead of the committer the
    // workers run (metrics: executor_max_queue_depth).
    std::size_t done_count = 0;
    std::size_t committed_count = 0;
    std::size_t max_queue_depth = 0;

    std::atomic<std::size_t> next_job{0};
    std::vector<WorkerStats> stats(static_cast<std::size_t>(workers));
    std::vector<long long> born(stats.size());
    const auto work = [&](std::size_t w) {
        born[w] = nowNanos();
        WorkerStats &mine = stats[w];
        for (std::size_t i;
             (i = next_job.fetch_add(1, std::memory_order_relaxed)) <
             jobs.size();) {
            const long long t0 = nowNanos();
            CommitFn commit;
            try {
                commit = jobs[i]();
            } catch (...) {
                // No caller to rethrow to; a throwing job is a bug.
                panic("unhandled exception escaped an executor job");
            }
            mine.busy_nanos += nowNanos() - t0;
            ++mine.tasks_run;
            {
                std::scoped_lock lock(mutex);
                slots[i].commit = std::move(commit);
                slots[i].done = true;
                ++done_count;
                max_queue_depth = std::max(max_queue_depth,
                                           done_count - committed_count);
            }
            finished.notify_all();
        }
    };
    // Declared after everything the workers touch, so even a commit
    // that throws joins them before that state goes away.
    std::vector<std::jthread> threads;
    threads.reserve(stats.size());
    for (std::size_t w = 0; w < stats.size(); ++w)
        threads.emplace_back(work, w);

    // Commit in index order, pipelined with still-running jobs.
    for (std::size_t i = 0; i < slots.size(); ++i) {
        CommitFn commit;
        {
            std::unique_lock lock(mutex);
            finished.wait(lock, [&] { return slots[i].done; });
            commit = std::move(slots[i].commit);
            ++committed_count;
        }
        if (commit)
            commit();
    }

    for (std::jthread &t : threads)
        t.join();
    const long long joined = nowNanos();
    for (std::size_t w = 0; w < stats.size(); ++w)
        stats[w].idle_nanos = joined - born[w] - stats[w].busy_nanos;

    metrics::recordMax(metrics::Counter::ExecutorMaxQueueDepth,
                       static_cast<long long>(max_queue_depth));
    return stats;
}

} // namespace syncperf::core
