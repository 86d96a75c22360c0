/**
 * @file
 * Implementation of the work-stealing thread pool.
 */

#include "thread_pool.hh"

#include <chrono>
#include <exception>

#include "logging.hh"

namespace syncperf
{
namespace
{

/** Which pool (if any) owns the calling thread, and its index. */
struct WorkerIdentity
{
    const void *pool = nullptr;
    int index = -1;
};

thread_local WorkerIdentity t_identity;

/** Monotonic nanoseconds for the busy/idle worker clocks. */
long long
nowNanos()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

ThreadPool::ThreadPool(int n_threads)
{
    const int n = n_threads < 1 ? 1 : n_threads;
    queues_.reserve(n);
    for (int i = 0; i < n; ++i)
        queues_.push_back(std::make_unique<WorkerQueue>());
    counters_.reserve(n);
    for (int i = 0; i < n; ++i)
        counters_.push_back(std::make_unique<WorkerCounters>());
    workers_.reserve(n);
    for (int i = 0; i < n; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    waitIdle();
    {
        std::scoped_lock lock(state_mutex_);
        stopping_ = true;
    }
    work_available_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

int
ThreadPool::currentWorker()
{
    return t_identity.index;
}

std::vector<ThreadPool::WorkerStats>
ThreadPool::workerStats() const
{
    std::vector<WorkerStats> out;
    out.reserve(counters_.size());
    const long long now = nowNanos();
    for (const auto &c : counters_) {
        // Close a waiting worker's open interval at now and reopen it
        // there; a worker that woke first already took the interval.
        long long since = c->idle_since.load(std::memory_order_relaxed);
        while (since != 0 && since < now &&
               !c->idle_since.compare_exchange_weak(
                   since, now, std::memory_order_relaxed)) {
        }
        if (since != 0 && since < now)
            c->idle_nanos.fetch_add(now - since, std::memory_order_relaxed);
        out.push_back(
            {c->tasks_run.load(std::memory_order_relaxed),
             c->tasks_stolen.load(std::memory_order_relaxed),
             c->busy_nanos.load(std::memory_order_relaxed),
             c->idle_nanos.load(std::memory_order_relaxed)});
    }
    return out;
}

int
ThreadPool::hardwareConcurrency()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

void
ThreadPool::submit(Task task)
{
    SYNCPERF_ASSERT(task != nullptr);
    std::size_t target;
    {
        std::scoped_lock lock(state_mutex_);
        SYNCPERF_ASSERT(!stopping_, "submit() on a stopping ThreadPool");
        ++unfinished_;
        ++queued_;
        // A worker keeps its own fan-out local; external submissions
        // are spread round-robin and rebalance through stealing.
        if (t_identity.pool == this) {
            target = static_cast<std::size_t>(t_identity.index);
        } else {
            target = next_queue_;
            next_queue_ = (next_queue_ + 1) % queues_.size();
        }
    }
    {
        std::scoped_lock lock(queues_[target]->mutex);
        queues_[target]->tasks.push_back(std::move(task));
    }
    work_available_.notify_one();
}

void
ThreadPool::waitIdle()
{
    std::unique_lock lock(state_mutex_);
    all_idle_.wait(lock, [this] { return unfinished_ == 0; });
}

bool
ThreadPool::popOwn(int index, Task &task)
{
    WorkerQueue &q = *queues_[static_cast<std::size_t>(index)];
    std::scoped_lock lock(q.mutex);
    if (q.tasks.empty())
        return false;
    task = std::move(q.tasks.front());
    q.tasks.pop_front();
    return true;
}

bool
ThreadPool::steal(int thief, Task &task)
{
    const std::size_t n = queues_.size();
    for (std::size_t off = 1; off < n; ++off) {
        WorkerQueue &victim =
            *queues_[(static_cast<std::size_t>(thief) + off) % n];
        std::scoped_lock lock(victim.mutex);
        if (victim.tasks.empty())
            continue;
        task = std::move(victim.tasks.back());
        victim.tasks.pop_back();
        return true;
    }
    return false;
}

void
ThreadPool::workerLoop(int index)
{
    t_identity = {this, index};
    WorkerCounters &stats =
        *counters_[static_cast<std::size_t>(index)];
    for (;;) {
        Task task;
        bool stolen = false;
        if (popOwn(index, task) ||
            (stolen = steal(index, task))) {
            {
                std::scoped_lock lock(state_mutex_);
                --queued_;
            }
            if (stolen)
                stats.tasks_stolen.fetch_add(
                    1, std::memory_order_relaxed);
            const long long t0 = nowNanos();
            try {
                task();
            } catch (...) {
                // No caller to rethrow to; a throwing task is a bug.
                panic("unhandled exception escaped a ThreadPool task");
            }
            stats.busy_nanos.fetch_add(nowNanos() - t0,
                                       std::memory_order_relaxed);
            stats.tasks_run.fetch_add(1, std::memory_order_relaxed);
            std::scoped_lock lock(state_mutex_);
            if (--unfinished_ == 0)
                all_idle_.notify_all();
            continue;
        }
        std::unique_lock lock(state_mutex_);
        if (queued_ == 0 && stopping_)
            return;
        stats.idle_since.store(nowNanos(), std::memory_order_relaxed);
        work_available_.wait(
            lock, [this] { return queued_ > 0 || stopping_; });
        const long long t1 = nowNanos();
        const long long since =
            stats.idle_since.exchange(0, std::memory_order_relaxed);
        if (since < t1)
            stats.idle_nanos.fetch_add(t1 - since,
                                       std::memory_order_relaxed);
        if (queued_ == 0 && stopping_)
            return;
    }
}

} // namespace syncperf
