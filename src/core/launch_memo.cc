/**
 * @file
 * Counter accounting of the launch memo.
 */

#include "launch_memo.hh"

#include "common/metrics.hh"

namespace syncperf::core
{

void
LaunchMemo::countServed()
{
    metrics::add(metrics::Counter::SimCacheHits);
}

void
LaunchMemo::countSimulated(const LaunchOutcome &outcome)
{
    metrics::add(metrics::Counter::SimCacheMisses);
    metrics::add(metrics::Counter::SimEvents,
                 static_cast<long long>(outcome.events));
    metrics::add(metrics::Counter::LoopBatchIters,
                 static_cast<long long>(outcome.loop_batch.batched_iters));
    metrics::add(metrics::Counter::LoopBatchWindows,
                 static_cast<long long>(outcome.loop_batch.windows));
    metrics::add(metrics::Counter::LoopBatchFallbacks,
                 static_cast<long long>(outcome.loop_batch.fallbacks));
}

} // namespace syncperf::core
