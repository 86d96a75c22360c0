/**
 * @file
 * Campaign driver: the equivalent of the paper artifact's launch.py.
 *
 * Runs the full measurement campaign over a list of modeled systems
 * and writes one CSV per experiment into results/<system>/...,
 * mirroring the artifact's results layout (Section F of the paper's
 * appendix).
 *
 * Resilience: every CSV is written through an atomic temp-file
 * rename, every experiment is journaled in a per-system
 * manifest.json (see core/manifest.hh), failed experiments are
 * recorded and skipped instead of aborting the campaign, and a
 * resumed campaign skips experiments whose journal entry matches
 * the requested configuration. docs/robustness.md has the details.
 *
 * Throughput: experiment points are independent, so the campaign
 * enumerates every system's points up front and fans them all out
 * over one set of workers (CampaignOptions::jobs), committing
 * results in deterministic point order via core::OrderedExecutor --
 * output is byte-identical at every job count. docs/performance.md
 * has the executor design and the determinism argument.
 */

#ifndef SYNCPERF_CORE_CAMPAIGN_HH
#define SYNCPERF_CORE_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <variant>
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
     * experiment) when the campaign runs serially, 8 when it runs
     * on more than one worker.
     */
    int checkpoint_every = 0;

    /** Called with a progress note on the calling thread: before
     * the campaign's first measurement and after every ordered
     * commit. The CLI arms its crash flight recorder on the first
     * call and feeds the live status file from every call. May be
     * null. */
    std::function<void(const std::string &)> heartbeat;

    /**
     * Cooperative cancellation (SIGINT/SIGTERM): polled as each
     * experiment starts. Once true, remaining experiments are
     * counted as interrupted instead of measured, and the journal
     * is checkpointed on the way out. May be null.
     */
    std::function<bool()> cancelled;
};

/** One system of a campaign and the protocol it is measured with. */
struct CampaignSystem
{
    /** A CPU runs the OpenMP sweep, a GPU the CUDA sweep. */
    std::variant<cpusim::CpuConfig, gpusim::GpuConfig> config;
    MeasurementConfig protocol;
};

/** One experiment the campaign could not complete. */
struct ExperimentFailure
{
    std::string file;  ///< "<system>/<csv-file>"
    std::string error; ///< cause, as journaled
};

/** One enumerated sweep point (its journal key and config hash). */
struct CampaignPoint
{
    std::string file;          ///< "<system>/<csv-file>"
    std::uint64_t hash = 0;    ///< ConfigHasher digest
};

/** One system's share of a campaign's outcome. */
struct SystemOutcome
{
    int experiments_run = 0;     ///< each one wrote one CSV
    int experiments_skipped = 0; ///< journaled-complete, skipped
    int experiments_failed = 0;
};

/** What a campaign produced. */
struct CampaignResult
{
    /** Every CSV written, in commit order (the campaign's point
     * order at every job count). */
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

    /** Per system, in the order the systems were given. */
    std::vector<SystemOutcome> systems;

    /**
     * Loop-batching activity of every experiment this process
     * measured, keyed "<system>/<csv-file>" (resume-skips and
     * failures contribute nothing). Purely an in-memory side channel
     * for the --explain batch-ratio annotation: it is never written
     * to any artifact (CSV, telemetry, manifest), so batching cannot
     * leak into outputs.
     */
    std::map<std::string, sim::LoopBatchCounters> loop_batch;

    /** True when nothing failed (skips are fine). */
    bool ok() const { return failures.empty() && !interrupted; }
};

/**
 * Every point of @p systems in campaign order -- each system's
 * points in turn, CPUs' and GPUs' alike in the order given --
 * without measuring anything or touching the filesystem.
 */
std::vector<CampaignPoint>
campaignPoints(const std::vector<CampaignSystem> &systems,
               const CampaignOptions &options);

/**
 * Run every experiment of the paper on each of @p systems and write
 * one CSV per experiment under output_dir/<system>/: per (primitive,
 * data type, stride) on a CPU, per (primitive, data type, block
 * count, stride) on a GPU. All systems' points share one set of
 * workers and commit in campaignPoints() order; each system keeps
 * its own manifest.json and launch memo.
 */
CampaignResult runCampaign(const std::vector<CampaignSystem> &systems,
                           const CampaignOptions &options);

/** Worker count a CampaignOptions::jobs value resolves to: 0 means
 * one per hardware thread, and the result is at least 1. */
int resolveJobs(int jobs);

/** Filesystem-safe slug for a system/device name. */
std::string sanitizeName(const std::string &name);

} // namespace syncperf::core

#endif // SYNCPERF_CORE_CAMPAIGN_HH
