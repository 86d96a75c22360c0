/**
 * @file
 * Work-stealing thread pool for CPU-bound fan-out.
 *
 * Each worker owns a deque: it pops work from the front of its own
 * queue (LIFO, cache-warm) and steals from the back of a victim's
 * queue when its own runs dry (FIFO, oldest work first). External
 * submissions are distributed round-robin; submissions made from
 * inside a worker go to that worker's own queue, so recursive
 * fan-out stays local until someone steals it.
 *
 * The pool makes no ordering promises -- callers that need
 * deterministic output order on top of nondeterministic completion
 * order should go through core::OrderedExecutor, which is what the
 * campaign driver does (see docs/performance.md).
 *
 * Tasks must not throw: an escaping exception panics, because there
 * is no caller on a worker thread to propagate it to.
 */

#ifndef SYNCPERF_COMMON_THREAD_POOL_HH
#define SYNCPERF_COMMON_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace syncperf
{

/** Fixed-size work-stealing pool; see file comment. */
class ThreadPool
{
  public:
    using Task = std::function<void()>;

    /**
     * Start @p n_threads workers (clamped to at least 1).
     * The common default is hardwareConcurrency().
     */
    explicit ThreadPool(int n_threads);

    /** Waits for in-flight and queued tasks, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Per-worker observability counters, snapshotted by
     * workerStats(). Times are wall-clock nanoseconds: busy covers
     * task execution, idle covers waiting for work to appear.
     * Scheduling-dependent by nature -- never compare across runs.
     */
    struct WorkerStats
    {
        long long tasks_run = 0;
        long long tasks_stolen = 0; ///< tasks obtained from a victim
        long long busy_nanos = 0;
        long long idle_nanos = 0;
    };

    /**
     * Enqueue @p task. Safe from any thread, including pool workers
     * (a worker enqueues onto its own deque).
     */
    void submit(Task task);

    /** Block until every submitted task has finished running. */
    void waitIdle();

    /** Number of worker threads. */
    int size() const { return static_cast<int>(workers_.size()); }

    /**
     * Snapshot of every worker's counters, indexed by worker. Safe
     * to call at any time (counters are atomics); call after
     * waitIdle() for totals that cover all submitted work. A worker
     * waiting for work at the snapshot has its open idle interval
     * counted up to now, so the idle tail after the last task is
     * not lost while the worker keeps waiting.
     */
    std::vector<WorkerStats> workerStats() const;

    /**
     * Index of the calling pool worker in [0, size()), or -1 when
     * called from a thread this pool does not own. Useful for
     * per-worker state such as RNG streams or scratch buffers.
     */
    static int currentWorker();

    /** std::thread::hardware_concurrency with a floor of 1. */
    static int hardwareConcurrency();

  private:
    struct WorkerQueue
    {
        std::mutex mutex;
        std::deque<Task> tasks;
    };

    /** Atomic mirror of WorkerStats, one per worker, padded so a
     * worker's hot updates never share a line with a neighbor's. */
    struct alignas(64) WorkerCounters
    {
        std::atomic<long long> tasks_run{0};
        std::atomic<long long> tasks_stolen{0};
        std::atomic<long long> busy_nanos{0};
        std::atomic<long long> idle_nanos{0};
        /** Start of the worker's open idle interval, 0 when busy.
         * The worker and workerStats() each take the interval with
         * an atomic swap, so every idle nanosecond counts once. */
        std::atomic<long long> idle_since{0};
    };

    void workerLoop(int index);
    bool popOwn(int index, Task &task);
    bool steal(int thief, Task &task);

    std::vector<std::unique_ptr<WorkerQueue>> queues_;
    std::vector<std::unique_ptr<WorkerCounters>> counters_;
    std::vector<std::thread> workers_;

    std::mutex state_mutex_;
    std::condition_variable work_available_;
    std::condition_variable all_idle_;
    std::size_t unfinished_ = 0; ///< queued + running tasks
    std::size_t queued_ = 0;     ///< queued, not yet picked up
    std::size_t next_queue_ = 0; ///< round-robin cursor, external submits
    bool stopping_ = false;
};

} // namespace syncperf

#endif // SYNCPERF_COMMON_THREAD_POOL_HH
