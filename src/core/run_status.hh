/**
 * @file
 * Live run-status surface: a machine-readable status.json rewritten
 * atomically on a debounce timer, plus a --progress stderr
 * one-liner rendered from the same struct.
 *
 * The schema is versioned ("syncperf-status-v1") because this file
 * is the future syncperfd daemon's /status endpoint body
 * (ROADMAP.md): points done/total, experiments/s, ETA, and the
 * engagement ratios of every fast path (launch memo, decoded images,
 * loop batching). See docs/observability.md, "Live
 * run status".
 */

#ifndef SYNCPERF_CORE_RUN_STATUS_HH
#define SYNCPERF_CORE_RUN_STATUS_HH

#include <chrono>
#include <filesystem>
#include <string>

#include "common/status.hh"

namespace syncperf::core
{

/** Everything status.json carries; fill and hand to a reporter. */
struct RunStatus
{
    /** "running", "finished", "degraded", or "interrupted". */
    std::string state = "running";

    long long points_done = 0;
    long long points_total = 0;

    /** Filled by the reporter at write time. */
    double elapsed_s = 0.0;
    double experiments_per_s = 0.0;
    double eta_s = -1.0; ///< -1 when no rate yet

    // Raw engagement inputs, from the counter registry.
    long long sim_cache_hits = 0;
    long long sim_cache_misses = 0;
    long long loop_batch_windows = 0;
    long long loop_batch_fallbacks = 0;

    long long pool_tasks_run = 0;
    long long pool_tasks_stolen = 0;
    double pool_busy_s = 0.0;
    double pool_idle_s = 0.0;

    /** Engagement ratios; 0 when the path never ran. */
    double simCacheHitRatio() const;
    double loopBatchWindowRatio() const;
    double poolIdleFraction() const;

    /** Load the engagement inputs from this process's registry. */
    void fillCountersFromRegistry();

    /** The versioned JSON document (schema syncperf-status-v1). */
    std::string toJson() const;

    /** The --progress one-liner (no trailing newline). */
    std::string progressLine() const;
};

/**
 * Debounced, atomic status.json writer. Construct once at campaign
 * start; call tick() from any commit/poll hook (it rewrites the
 * file only when the debounce interval elapsed) and force() once at
 * the end with the final state.
 *
 * Not thread-safe: call from one thread (the ordered-commit
 * thread).
 */
class RunStatusReporter
{
  public:
    /** An empty @p file writes no status.json (--progress alone). */
    RunStatusReporter(std::filesystem::path file, double interval_s,
                      bool progress);

    /** True when the debounce interval has elapsed since the last
     * write (always true before the first). */
    bool due() const;

    /** Write if due; fills the rate fields of @p status. */
    void tick(RunStatus &status);

    /** Unconditional write (final state). */
    void force(RunStatus &status);

    double elapsedSeconds() const;

    const std::filesystem::path &file() const { return file_; }

  private:
    void write(RunStatus &status);

    std::filesystem::path file_;
    double interval_s_;
    bool progress_;
    std::chrono::steady_clock::time_point start_;
    std::chrono::steady_clock::time_point last_write_{};
    bool wrote_ = false;
};

} // namespace syncperf::core

#endif // SYNCPERF_CORE_RUN_STATUS_HH
