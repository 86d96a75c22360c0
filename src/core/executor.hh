/**
 * @file
 * Deterministic fan-out for the campaign driver.
 *
 * OrderedExecutor::run() executes independent jobs concurrently on
 * worker threads it owns but applies their side effects in index
 * order: each job does its expensive, self-contained work on a
 * worker and returns a commit closure; the closures are invoked
 * strictly in index order on the calling thread. Shared state
 * touched only by commit closures therefore needs no locking, and
 * every run produces byte-identical output regardless of worker
 * count or completion order -- the deterministic-commit rule
 * documented in docs/performance.md.
 */

#ifndef SYNCPERF_CORE_EXECUTOR_HH
#define SYNCPERF_CORE_EXECUTOR_HH

#include <functional>
#include <vector>

namespace syncperf::core
{

/** Runs jobs concurrently, commits their results in order. */
class OrderedExecutor
{
  public:
    /** Applies one finished job's side effects; run on the caller. */
    using CommitFn = std::function<void()>;

    /**
     * One unit of concurrent work. Runs on a worker thread;
     * everything it touches must be private to the job (or
     * internally synchronized, like logging). Returns the job's
     * commit closure; returning nullptr commits nothing. A job must
     * not throw: an escaping exception panics.
     */
    using Job = std::function<CommitFn()>;

    /**
     * What one worker did over a run. Times are wall-clock
     * nanoseconds: busy is the sum of its job times, idle the rest
     * of its lifetime (from its start until run() joined it), so a
     * worker that finished early counts the wait for the others as
     * idle. Scheduling-dependent by nature -- never compare across
     * runs.
     */
    struct WorkerStats
    {
        long long tasks_run = 0;
        long long busy_nanos = 0;
        long long idle_nanos = 0;
    };

    /**
     * Run every job and invoke the commit closures in index order on
     * the calling thread.
     *
     * With @p workers <= 1 the jobs run inline on the calling thread
     * in index order -- byte-for-byte the serial behavior, with no
     * thread started -- and no stats are returned. Otherwise run()
     * starts @p workers threads, each taking the next job index from
     * one shared counter, so dispatch follows index order. Commits
     * are pipelined: index i commits as soon as jobs 0..i have
     * finished, while later jobs are still running. The threads are
     * joined before run() returns, and their stats returned, one
     * entry per worker.
     */
    static std::vector<WorkerStats> run(int workers,
                                        std::vector<Job> jobs);
};

} // namespace syncperf::core

#endif // SYNCPERF_CORE_EXECUTOR_HH
