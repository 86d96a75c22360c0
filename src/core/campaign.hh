/**
 * @file
 * Campaign driver: the equivalent of the paper artifact's launch.py.
 *
 * Runs the full measurement campaign for a machine and writes one
 * CSV per experiment into results/<system>/..., mirroring the
 * artifact's results layout (Section F of the paper's appendix).
 *
 * Resilience: every CSV is written through an atomic temp-file
 * rename, every experiment is journaled in a per-system
 * manifest.json (see core/manifest.hh), failed experiments are
 * recorded and skipped instead of aborting the campaign, and a
 * resumed campaign skips experiments whose journal entry matches
 * the requested configuration. docs/robustness.md has the details.
 *
 * Throughput: experiment points are independent, so the campaign
 * enumerates them up front and fans them out over a work-stealing
 * thread pool (CampaignOptions::jobs), committing results in
 * deterministic point order via core::OrderedExecutor -- output is
 * byte-identical at every job count. docs/performance.md has the
 * executor design and the determinism argument.
 */

#ifndef SYNCPERF_CORE_CAMPAIGN_HH
#define SYNCPERF_CORE_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/cpusim_target.hh"
#include "core/gpusim_target.hh"
#include "sim/loop_batch.hh"

namespace syncperf::core
{

/** Campaign-wide options. */
struct CampaignOptions
{
    std::string output_dir = "results";

    /** Coarsen sweeps (every 4th thread count, key strides only). */
    bool quick = true;

    /**
     * Skip experiments the manifest journals as complete under an
     * identical configuration (checkpoint/resume after an
     * interruption). When false the journal is started afresh and
     * everything reruns.
     */
    bool resume = false;

    /**
     * Concurrent experiments. 1 runs everything serially on the
     * calling thread (the historical behavior); 0 means "one per
     * hardware thread". Results are committed in deterministic point
     * order, so CSVs, manifest.json, and the degradation summary are
     * byte-identical at every job count (see docs/performance.md).
     * Ordinal-based fault injection is the one order-sensitive
     * feature; it is only deterministic at jobs == 1.
     */
    int jobs = 1;

    /**
     * Manifest checkpoint cadence: the journal is saved to disk
     * after this many experiment commits. Failures checkpoint
     * immediately and the final state is always saved, so a larger
     * batch only widens the window of *successful* work a kill can
     * force a resume to redo. 0 means auto: 1 (checkpoint every
     * experiment) when serial, 8 when parallel.
     */
    int checkpoint_every = 0;

    /** Called with a progress note on the calling thread: before a
     * system's first measurement and after every ordered commit.
     * The CLI arms its crash flight recorder on the first call and
     * feeds the live status file from every call. May be null. */
    std::function<void(const std::string &)> heartbeat;

    /**
     * Cooperative cancellation (SIGINT/SIGTERM): polled as each
     * experiment starts. Once true, remaining experiments are
     * counted as interrupted instead of measured, and the journal
     * is checkpointed on the way out. May be null.
     */
    std::function<bool()> cancelled;

    /** Enumerate the sweep into CampaignResult::points and return
     * without measuring anything or touching the filesystem (the
     * CLI sizes its status total this way). */
    bool enumerate_only = false;
};

/** One experiment the campaign could not complete. */
struct ExperimentFailure
{
    std::string file;  ///< destination CSV (relative key)
    std::string error; ///< cause, as journaled
};

/** One enumerated sweep point (its journal key and config hash). */
struct CampaignPoint
{
    std::string file;          ///< CSV name (the journal key)
    std::uint64_t hash = 0;    ///< ConfigHasher digest
};

/** Loop-batching activity of one completed experiment. */
struct ExperimentLoopBatch
{
    std::string file;                ///< CSV name (the point key)
    sim::LoopBatchCounters counters; ///< summed over the point's launches
};

/** What a campaign produced. */
struct CampaignResult
{
    std::vector<std::string> files_written;
    int experiments_run = 0;

    /** Journaled-complete experiments skipped by --resume. */
    int experiments_skipped = 0;

    /** Experiments not run because cancellation fired first. */
    int experiments_interrupted = 0;

    /** True when cancellation cut the campaign short. */
    bool interrupted = false;

    /** Experiments recorded as failed and passed over. */
    std::vector<ExperimentFailure> failures;

    /** The full enumeration in deterministic point order. */
    std::vector<CampaignPoint> points;

    /**
     * Loop-batching activity per experiment this process measured
     * (commit order; resume-skips and failures contribute nothing).
     * Purely an in-memory side channel for the --explain batch-ratio
     * annotation: it is never written to any artifact (CSV,
     * telemetry, manifest), so batching cannot leak into outputs.
     */
    std::vector<ExperimentLoopBatch> loop_batch;

    /** True when nothing failed (skips are fine). */
    bool ok() const { return failures.empty() && !interrupted; }
};

/**
 * Run every OpenMP experiment of the paper on @p cfg and write one
 * CSV per (primitive, data type, stride) combination under
 * output_dir/<system>/.
 */
CampaignResult runOmpCampaign(const cpusim::CpuConfig &cfg,
                              const MeasurementConfig &protocol,
                              const CampaignOptions &options);

/**
 * Run every CUDA experiment of the paper on @p cfg and write one CSV
 * per (primitive, data type, block count, stride) combination under
 * output_dir/<device>/.
 */
CampaignResult runCudaCampaign(const gpusim::GpuConfig &cfg,
                               const MeasurementConfig &protocol,
                               const CampaignOptions &options);

/** Filesystem-safe slug for a system/device name. */
std::string sanitizeName(const std::string &name);

} // namespace syncperf::core

#endif // SYNCPERF_CORE_CAMPAIGN_HH
