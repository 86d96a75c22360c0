/**
 * @file
 * The launch memo: serve a simulated launch without simulating it
 * when an identical launch has already run.
 *
 * The paper's protocol (Section IV) times a baseline and a test for
 * every point, and the same launches recur across runs and attempts,
 * across primitives whose programs decode alike, and across data
 * types and strides. The sim targets key every launch by everything
 * its outcome depends on (the decoded-image fingerprint, the geometry
 * or placement, the warmup and iteration counts, and the seed when the
 * model draws jitter) and ask the memo for it. See docs/performance.md,
 * "Launch memo".
 */

#ifndef SYNCPERF_CORE_LAUNCH_MEMO_HH
#define SYNCPERF_CORE_LAUNCH_MEMO_HH

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "core/telemetry.hh"
#include "sim/loop_batch.hh"

namespace syncperf::core
{

/** Pure simulator output of one launch, before any fault injection. */
struct LaunchOutcome
{
    double seconds = 0.0;           ///< the slowest thread's runtime
    TelemetrySample telemetry;      ///< empty unless telemetry is on
    sim::LoopBatchCounters loop_batch;
    std::uint64_t events = 0;       ///< simulator events executed
};

/**
 * Single-flight memo of launch outcomes.
 *
 * The first caller of a key claims it and simulates outside the lock;
 * later callers of that key wait until the outcome is stored, then
 * read it. Every key is therefore simulated exactly once, whatever
 * the number of concurrent callers, so the simulation counters
 * (sim_cache_misses, sim_events, loop_batch_*) and the served count
 * (sim_cache_hits) are the same at every --jobs value. A claimant
 * never waits on another caller, so the memo cannot deadlock.
 *
 * Keys hold no machine config, and entries record what the telemetry
 * and loop_batch switches asked of their simulation, so a memo serves
 * the targets of one system that agree on those two switches: the
 * campaign creates one per system and hands it to every target it
 * builds, and a target built without one owns a private memo.
 * Entries live as long as the memo.
 */
class LaunchMemo
{
  public:
    /**
     * The outcome stored under @p key, calling @p simulate (which
     * returns a LaunchOutcome) to produce it when no caller has
     * claimed the key yet. The reference stays valid for the memo's
     * lifetime. If @p simulate throws, the claim is dropped and the
     * next waiter claims the key.
     */
    template <typename Simulate>
    const LaunchOutcome &
    serve(std::uint64_t key, Simulate &&simulate)
    {
        std::unique_lock<std::mutex> lock(mu_);
        Slot *slot = nullptr;
        for (;;) {
            const auto [it, claimed] = slots_.try_emplace(key);
            if (claimed) {
                slot = &it->second;
                break;
            }
            if (it->second.ready) {
                countServed();
                return it->second.outcome;
            }
            ready_.wait(lock);
        }
        lock.unlock();
        LaunchOutcome outcome;
        try {
            outcome = simulate();
        } catch (...) {
            lock.lock();
            slots_.erase(key);
            ready_.notify_all();
            throw;
        }
        countSimulated(outcome);
        lock.lock();
        slot->outcome = std::move(outcome);
        slot->ready = true;
        ready_.notify_all();
        return slot->outcome;
    }

  private:
    struct Slot
    {
        bool ready = false;
        LaunchOutcome outcome;
    };

    /** Count one launch served from a stored outcome. */
    static void countServed();

    /** Count one simulation and the simulator work it did. */
    static void countSimulated(const LaunchOutcome &outcome);

    std::mutex mu_;
    std::condition_variable ready_;
    /** Node-based, so a stored outcome never moves. */
    std::unordered_map<std::uint64_t, Slot> slots_;
};

} // namespace syncperf::core

#endif // SYNCPERF_CORE_LAUNCH_MEMO_HH
