/**
 * @file
 * Campaign metrics aggregation: the metrics.json snapshot and the
 * --metrics-summary table.
 *
 * The raw counters live in the process-wide metrics::Registry
 * (src/common/metrics.hh); this layer adds what only the campaign
 * knows -- the per-worker busy/idle breakdown of the campaign's
 * ordered executor -- and renders both into a deterministic
 * JSON snapshot (written atomically, diffable across runs for the
 * deterministic counter section) and a human-readable table. Schema
 * documented in docs/observability.md; its deterministic counters are
 * pinned by the .counters files under tests/digests and compared
 * across --jobs values by the observability_campaign test.
 */

#ifndef SYNCPERF_CORE_METRICS_HH
#define SYNCPERF_CORE_METRICS_HH

#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.hh"
#include "common/status.hh"
#include "core/executor.hh"

namespace syncperf::core
{

/**
 * Process-wide aggregation of campaign observability data. The
 * campaign driver folds its executor's worker stats in once the
 * run's workers are joined; snapshot()/summaryTable() render the
 * union of those and the counter registry.
 *
 * Thread-safe: folds lock internally, and the render paths only run
 * after the campaign's workers have been joined.
 */
class CampaignMetrics
{
  public:
    static CampaignMetrics &global();

    /**
     * Fold one finished executor run's per-worker stats into the
     * aggregate (element-wise by worker index) and into the
     * PoolTasksRun / PoolBusyNanos / PoolIdleNanos counters.
     */
    void
    foldPool(const std::vector<OrderedExecutor::WorkerStats> &stats);

    /** Zero the counter registry and the per-worker aggregates. */
    void reset();

    /**
     * The snapshot as JSON text: a "counters" object (deterministic
     * counters only, fixed key order), a "timing" object (the rest,
     * plus derived retry_rate / idle_fraction), and a "workers"
     * array (per-worker busy/idle; empty for serial runs).
     */
    std::string snapshotJson() const;

    /** Atomically write snapshotJson() to @p file. */
    Status writeSnapshot(const std::filesystem::path &file) const;

    /** Aligned two-column table of every counter, for terminals. */
    std::string summaryTable() const;

    /**
     * Derived rates for the reader of the snapshot (checked present
     * by CampaignMetricsTest.SnapshotJsonParsesWithDocumentedSchema):
     * retries per measured point, and the fraction of pooled worker
     * time spent idle. Both 0 when nothing ran.
     */
    double retryRate() const;
    double idleFraction() const;

  private:
    CampaignMetrics() = default;

    mutable std::mutex mutex_; ///< guards the aggregates below
    std::vector<OrderedExecutor::WorkerStats> workers_;
};

} // namespace syncperf::core

#endif // SYNCPERF_CORE_METRICS_HH
