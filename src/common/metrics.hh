/**
 * @file
 * Process-wide counter registry for campaign observability.
 *
 * A fixed enumeration of counters, each one cache-line-cheap
 * (a relaxed atomic add), incremented from any thread: the
 * measurement protocol counts its retries, the fault injector its
 * injections, the campaign driver its commits and checkpoint
 * flushes, the thread pool its per-worker busy/steal/idle time.
 * core::CampaignMetrics aggregates the registry into the
 * metrics.json snapshot and the --metrics-summary table; see
 * docs/observability.md for what every counter means.
 *
 * Counters are split into two classes:
 *  - deterministic: totals depend only on the campaign
 *    configuration, never on scheduling, so they must be identical
 *    between --jobs 1 and --jobs N (tested);
 *  - timing: wall-clock or scheduling dependent (worker busy/idle
 *    time, steal counts, commit-queue depth).
 */

#ifndef SYNCPERF_COMMON_METRICS_HH
#define SYNCPERF_COMMON_METRICS_HH

#include <atomic>
#include <cstddef>
#include <string_view>

namespace syncperf::metrics
{

/** Every counter the pipeline records. Append only: the snapshot
 * schema, the counter pins under tests/digests, the
 * observability_campaign test and perfbench/run.py key off the
 * names. */
enum class Counter : int
{
    // Deterministic: identical totals at every --jobs count.
    PointsCommitted,   ///< experiments measured and journaled complete
    PointsFailed,      ///< experiments journaled as failed
    PointsSkipped,     ///< journaled-complete points skipped by --resume
    ProtocolRetries,   ///< invalid (test < baseline / non-finite) attempts re-tried
    NoiseRetries,      ///< full re-measures forced by the CoV gate
    FaultsInjected,    ///< faults the injector actually delivered
    FaultsSurvived,    ///< poisoned samples absorbed by the retry budget
    CheckpointFlushes, ///< manifest.json rewrites (timing class: the
                       ///< flush cadence depends on --jobs)
    SimCacheHits,      ///< launches the launch memo served
    SimCacheMisses,    ///< launches the launch memo simulated
    LoopBatchIters,    ///< timed iterations advanced algebraically
    LoopBatchWindows,  ///< steady-state windows the batchers applied
    LoopBatchFallbacks,///< boundary checks that fell back to stepping
    // Named after the retired machine pool; perfbench still reads them.
    PoolClones,        ///< launches simulated (= SimCacheMisses)
    PoolColdBuilds,    ///< launch decodes that keyed the memo
    // Always 0 (the lane planner is gone); perfbench still reads them.
    LaneGroups,
    LanePoints,
    LanePeels,
    LaneSingletonPoints,
    SimEvents,         ///< events the cpusim/gpusim event queues executed

    // Timing: scheduling/wall-clock dependent, never compared
    // across job counts.
    PoolTasksRun,          ///< tasks executed across all pool workers
    PoolTasksStolen,       ///< tasks obtained by stealing
    PoolBusyNanos,         ///< summed worker time spent inside tasks
    PoolIdleNanos,         ///< summed worker time spent waiting for work
    ExecutorMaxQueueDepth, ///< max finished-but-uncommitted jobs (max-gauge)

    kCount
};

constexpr std::size_t counter_count =
    static_cast<std::size_t>(Counter::kCount);

/** Stable snake_case name used in metrics.json and the summary. */
std::string_view counterName(Counter c);

/** True for counters whose totals must not depend on --jobs. */
bool counterIsDeterministic(Counter c);

/** The process-wide registry of counter values. */
class Registry
{
  public:
    static Registry &global();

    /** Add @p delta to @p c (relaxed; exact under concurrency). */
    void
    add(Counter c, long long delta = 1)
    {
        slot(c).fetch_add(delta, std::memory_order_relaxed);
    }

    /** Raise @p c to at least @p value (max-gauge semantics). */
    void recordMax(Counter c, long long value);

    long long
    value(Counter c) const
    {
        return slot(c).load(std::memory_order_relaxed);
    }

    /** Zero every counter (test isolation / campaign start). */
    void reset();

  private:
    std::atomic<long long> &
    slot(Counter c)
    {
        return counters_[static_cast<std::size_t>(c)];
    }
    const std::atomic<long long> &
    slot(Counter c) const
    {
        return counters_[static_cast<std::size_t>(c)];
    }

    std::atomic<long long> counters_[counter_count] = {};
};

/** Shorthand for Registry::global().add(). */
inline void
add(Counter c, long long delta = 1)
{
    Registry::global().add(c, delta);
}

/** Shorthand for Registry::global().recordMax(). */
inline void
recordMax(Counter c, long long value)
{
    Registry::global().recordMax(c, value);
}

/** Shorthand for Registry::global().value(). */
inline long long
value(Counter c)
{
    return Registry::global().value(c);
}

} // namespace syncperf::metrics

#endif // SYNCPERF_COMMON_METRICS_HH
