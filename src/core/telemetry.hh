/**
 * @file
 * Microarchitectural telemetry: per-experiment probe dumps that
 * explain the figure shapes.
 *
 * Every simulated launch leaves counters and tick histograms in its
 * machine's sim::StatSet (ping-pongs, acquisition waits, barrier
 * arrival spreads, ...). With MeasurementConfig::telemetry enabled,
 * the targets fold each launch's stats into a TelemetrySample; the
 * campaign collects one sample per sweep point and writes a
 * deterministic <experiment>.telemetry.json next to the CSV. The
 * --explain mode then renders the mechanism behind a figure (e.g.
 * the false-sharing knee is visible as cpu.line_ping_pong dropping
 * to zero at stride >= one cache line) as terminal charts.
 *
 * Determinism contract: samples accumulate in simulation order,
 * JSON objects are keyed through std::map (sorted), and files go
 * through AtomicFile -- the artifact tree is byte-identical at any
 * --jobs count. Samples ride inside the launch memo's entries, so a
 * served launch replays the exact telemetry of its simulation
 * instead of silently dropping it.
 */

#ifndef SYNCPERF_CORE_TELEMETRY_HH
#define SYNCPERF_CORE_TELEMETRY_HH

#include <cstdint>
#include <filesystem>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.hh"
#include "common/json.hh"
#include "common/status.hh"
#include "sim/loop_batch.hh"
#include "sim/stat.hh"

namespace syncperf::core
{

/**
 * Aggregated probe activity over any number of simulated launches
 * (all runs, attempts, and retries of one sweep point, both sides
 * of the measured (baseline, test) pair).
 */
struct TelemetrySample
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, Histogram> histograms;

    /** Fold one launch's stats in (nonzero counters, nonempty
     * histograms; zero activity leaves no key behind). */
    void addStats(const sim::StatSet &stats);

    /** Accumulate @p other into this sample. */
    void merge(const TelemetrySample &other);

    bool empty() const { return counters.empty() && histograms.empty(); }

    std::uint64_t counter(const std::string &name) const;

    /** {"counters": {...}, "histograms": {...}}, keys sorted. */
    JsonValue toJson() const;

    bool operator==(const TelemetrySample &other) const = default;
};

/** Telemetry of one sweep point of an experiment. */
struct TelemetryPoint
{
    /** Sweep coordinates in CSV column order, e.g. {"threads", 8} or
     * {"blocks", 2}, {"threads_per_block", 128}. */
    std::vector<std::pair<std::string, std::uint64_t>> axes;
    TelemetrySample sample;

    JsonValue toJson() const;
};

/** Everything recorded for one experiment (one CSV file). */
struct TelemetryReport
{
    std::string experiment; ///< CSV file name, e.g. "omp_barrier.csv"
    std::string system;     ///< sanitized system/device name
    std::vector<TelemetryPoint> points;

    JsonValue toJson() const;

    /** Pretty-print to @p path via AtomicFile (temp + rename). */
    Status writeFile(const std::filesystem::path &path) const;
};

/** Parse a telemetry artifact written by TelemetryReport::writeFile. */
Result<TelemetryReport> readTelemetryFile(
    const std::filesystem::path &path);

/** "<dir>/<stem>.telemetry.json" for experiment CSV @p csv_file. */
std::filesystem::path telemetryPathFor(
    const std::filesystem::path &dir, const std::string &csv_file);

/**
 * Render the --explain summaries for a campaign output directory:
 * scans every telemetry.json under each system subdirectory and
 * draws the probe charts
 * that explain the paper's figure shapes (false-sharing ping-pong
 * knee vs stride, exclusive-acquisition wait growth vs threads, GPU
 * atomic wait vs block size). Returns an error only when @p dir has
 * no telemetry at all.
 *
 * @param loop_batch Optional per-experiment loop-batching counters
 *        keyed by "<system-slug>/<csv-file>" (the measuring run's
 *        in-memory side channel, see CampaignResult::loop_batch).
 *        When present, each system section is followed by a batch
 *        ratio (batched_iters / total_iters) per experiment; pass
 *        nullptr when no measurements ran in this process
 *        (--explain-only) and the section says so instead.
 */
Status explainCampaign(
    const std::filesystem::path &dir, std::ostream &out,
    const std::map<std::string, sim::LoopBatchCounters> *loop_batch =
        nullptr);

} // namespace syncperf::core

#endif // SYNCPERF_CORE_TELEMETRY_HH
