/**
 * @file
 * Implementation of the campaign driver.
 *
 * Execution model: every system's sweep is enumerated up front, and
 * the points of all systems -- each system's in turn -- go to one
 * OrderedExecutor run, which measures them concurrently
 * (CampaignOptions::jobs workers) and commits outcomes -- journal
 * entries, result accounting, the checkpoint cadence -- strictly in
 * point order on the calling thread. The measurement side of a point
 * touches only its own state (its own simulator target, its own CSV
 * temp file) and its system's launch memo, whose single-flight
 * claims make it safe to share and make its work the same at every
 * job count; the ordered commit is what makes the output
 * byte-identical at every job count.
 */

#include "campaign.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/atomic_file.hh"
#include "common/csv.hh"
#include "common/fmt.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/trace.hh"
#include "core/executor.hh"
#include "core/launch_memo.hh"
#include "core/manifest.hh"
#include "core/metrics.hh"
#include "core/sweep.hh"
#include "core/telemetry.hh"

namespace syncperf::core
{
namespace
{

namespace fs = std::filesystem;

/** Checkpoint batch used when running parallel and no explicit
 * cadence was requested (serial auto-cadence is 1, the historical
 * save-per-experiment behavior). */
constexpr int parallel_checkpoint_batch = 8;

/** Strides the paper sweeps; quick mode keeps the knee-revealing ones. */
std::vector<int>
ompStrides(bool quick)
{
    return quick ? std::vector<int>{1, 8, 16}
                 : std::vector<int>{1, 4, 8, 16};
}

/** Fold the protocol knobs into @p h: any change reruns the point. */
void
hashProtocol(ConfigHasher &h, const MeasurementConfig &p)
{
    h.add(p.runs)
        .add(p.attempts)
        .add(p.n_iter)
        .add(p.n_unroll)
        .add(p.n_warmup)
        .add(p.max_retries)
        .add(p.cov_gate)
        .add(p.max_noise_retries);
}

/** One enumerated experiment point of a system. */
struct Point
{
    std::string file;        ///< CSV name (the journal key)
    std::uint64_t hash = 0;  ///< ConfigHasher digest

    /** Writes all data rows, fills the journal entry's retry/noise
     * statistics and the point's loop-batching counters; returns
     * non-ok to fail the experiment. Runs on a worker thread: it
     * must touch only its own state (build its own target) and its
     * system's launch memo. */
    std::function<Status(CsvWriter &, ManifestEntry &,
                         sim::LoopBatchCounters &)>
        emit;
};

/**
 * One system of the campaign: its enumerated points, and the state
 * its ordered commits keep. The commit-side members are touched only
 * on the calling thread, except span_start_ns, which the system's
 * first job writes before its commit hands it over.
 */
struct SystemRun
{
    SystemRun(std::string span_name, std::string slug_in,
              const std::string &output_dir)
        : span_name(std::move(span_name)), slug(std::move(slug_in)),
          dir(fs::path(output_dir) / slug),
          manifest(dir / "manifest.json")
    {
    }

    std::string span_name; ///< "omp:<slug>" or "cuda:<slug>"
    std::string slug;      ///< sanitized system name
    fs::path dir;          ///< output_dir/<slug>
    std::vector<std::string> header;
    std::vector<Point> points; ///< in the system's point order

    /** One memo for the whole system: every point's target serves
     * the launches any earlier point (or attempt) already
     * simulated. */
    std::shared_ptr<LaunchMemo> memo = std::make_shared<LaunchMemo>();

    Manifest manifest;
    SystemOutcome outcome;
    std::size_t pending = 0; ///< points run but not yet committed
    int unsaved_commits = 0;
    std::uint64_t span_start_ns = 0; ///< 0 when no span is open
};

/** Fold a finished point's Measurement into its journal entry. */
void
accumulate(ManifestEntry &entry, const Measurement &m)
{
    entry.protocol_retries += m.retries;
    entry.noise_retries += m.noise_retries;
    if (m.cov > entry.max_cov)
        entry.max_cov = m.cov;
}

/** A row's telemetry axes, which are also its leading CSV columns. */
using Axes = std::vector<std::pair<std::string, std::uint64_t>>;

/** A CPU row is one team size. */
Axes
rowAxes(int threads)
{
    return {{"threads", static_cast<std::uint64_t>(threads)}};
}

/** A GPU row is one grid. */
Axes
rowAxes(const gpusim::LaunchConfig &grid)
{
    return {{"blocks", static_cast<std::uint64_t>(grid.blocks)},
            {"threads_per_block",
             static_cast<std::uint64_t>(grid.threads_per_block)}};
}

/** How a row that failed to measure is named in the journal. */
std::string
rowName(int threads)
{
    return format("{} threads", threads);
}

std::string
rowName(const gpusim::LaunchConfig &grid)
{
    return format("{} blocks x {} threads", grid.blocks,
                  grid.threads_per_block);
}

/**
 * Measure one point on a target of its own, built fresh from a fixed
 * seed on the system's memo: one CSV row per sweep row (the row's
 * axes, the per-op time and the per-thread throughput; a CPU row
 * adds the run-to-run standard deviation) and, with telemetry, the
 * point's telemetry file. Results depend only on the point, never on
 * scheduling, because a served launch is bit-identical to simulating
 * it.
 */
template <typename Target, typename Config, typename Experiment,
          typename Row>
Status
measurePoint(const Config &cfg, const MeasurementConfig &protocol,
             const SystemRun &sys, const std::vector<Row> &rows,
             const Experiment &e, const std::string &file,
             CsvWriter &csv, ManifestEntry &entry,
             sim::LoopBatchCounters &lb)
{
    Target target(cfg, protocol, 1, sys.memo);
    TelemetryReport report;
    for (const Row &row : rows) {
        const Measurement m = target.measure(e, row);
        if (!m.valid) {
            return Status::error(ErrorCode::MeasurementError, "{}: {}",
                                 rowName(row), m.error);
        }
        accumulate(entry, m);
        Axes axes = rowAxes(row);
        for (const auto &axis : axes)
            csv.field(static_cast<long long>(axis.second));
        csv.field(m.per_op_seconds).field(m.opsPerSecondPerThread());
        if constexpr (std::is_same_v<Target, CpuSimTarget>)
            csv.field(m.stddev_seconds);
        csv.endRow();
        if (protocol.telemetry)
            report.points.push_back(
                {std::move(axes), target.takeTelemetry()});
    }
    lb = target.loopBatch();
    if (!protocol.telemetry)
        return Status::ok();
    report.experiment = file;
    report.system = sys.slug;
    return report.writeFile(telemetryPathFor(sys.dir, file));
}

/**
 * Per-point digest: @p base already folds in everything shared by
 * the whole sweep (system, thread/block counts, protocol), computed
 * once instead of per point.
 */
template <typename ExperimentT>
std::uint64_t
pointDigest(const ConfigHasher &base, const std::string &file,
            const ExperimentT &exp)
{
    ConfigHasher h = base; // cheap: the hasher is one uint64
    h.add(file)
        .add(static_cast<int>(exp.primitive))
        .add(static_cast<int>(exp.dtype))
        .add(static_cast<int>(exp.location))
        .add(exp.stride);
    return h.digest();
}

/** OpenMP points additionally pin their affinity policy. */
std::uint64_t
pointDigest(const ConfigHasher &base, const std::string &file,
            const OmpExperiment &exp)
{
    ConfigHasher h = base;
    h.add(file)
        .add(static_cast<int>(exp.primitive))
        .add(static_cast<int>(exp.dtype))
        .add(static_cast<int>(exp.location))
        .add(exp.stride)
        .add(static_cast<int>(exp.affinity));
    return h.digest();
}

/** Every OpenMP experiment of the paper on @p cfg: one CSV per
 * (primitive, data type, stride) combination. */
std::unique_ptr<SystemRun>
planSweep(const cpusim::CpuConfig &cfg, const MeasurementConfig &protocol,
          const CampaignOptions &options)
{
    const std::string slug = sanitizeName(cfg.name);
    auto sys = std::make_unique<SystemRun>("omp:" + slug, slug,
                                           options.output_dir);
    sys->header = {"threads", "per_op_seconds", "throughput_per_thread",
                   "stddev_seconds"};
    const auto threads =
        ompThreadCounts(cfg.totalHwThreads(), options.quick ? 4 : 1);

    // Everything the whole sweep shares is hashed exactly once.
    ConfigHasher base_hash;
    base_hash.add(slug);
    for (int n : threads)
        base_hash.add(n);
    hashProtocol(base_hash, protocol);

    auto add = [&](OmpPrimitive prim, DataType dtype, Location loc,
                   int stride, Affinity affinity, std::string file) {
        OmpExperiment e;
        e.primitive = prim;
        e.dtype = dtype;
        e.location = loc;
        e.stride = stride;
        e.affinity = affinity;

        Point point;
        point.hash = pointDigest(base_hash, file, e);
        point.emit = [e, file, threads, &cfg, &protocol,
                      &run = *sys](CsvWriter &csv, ManifestEntry &entry,
                                   sim::LoopBatchCounters &lb) {
            return measurePoint<CpuSimTarget>(cfg, protocol, run, threads,
                                              e, file, csv, entry, lb);
        };
        point.file = std::move(file);
        sys->points.push_back(std::move(point));
    };

    add(OmpPrimitive::Barrier, DataType::Int32, Location::SharedVariable,
        1, Affinity::Spread, "omp_barrier.csv");
    add(OmpPrimitive::Critical, DataType::Int32, Location::SharedVariable,
        1, Affinity::Spread, "omp_critical.csv");
    add(OmpPrimitive::AtomicRead, DataType::Int32,
        Location::SharedVariable, 1, Affinity::System,
        "omp_atomic_read.csv");

    // File-name fragments are built once per dtype/stride, not once
    // per point.
    const auto strides = ompStrides(options.quick);
    std::vector<std::string> stride_tags;
    stride_tags.reserve(strides.size());
    for (int stride : strides)
        stride_tags.push_back("_s" + std::to_string(stride) + "_");

    for (DataType t : all_data_types) {
        const std::string suffix = std::string(dataTypeName(t)) + ".csv";
        add(OmpPrimitive::AtomicUpdate, t, Location::SharedVariable, 1,
            Affinity::System, "omp_atomic_update_" + suffix);
        add(OmpPrimitive::AtomicCapture, t, Location::SharedVariable, 1,
            Affinity::System, "omp_atomic_capture_" + suffix);
        add(OmpPrimitive::AtomicWrite, t, Location::SharedVariable, 1,
            Affinity::System, "omp_atomic_write_" + suffix);
        for (std::size_t i = 0; i < strides.size(); ++i) {
            add(OmpPrimitive::AtomicUpdate, t, Location::PrivateArray,
                strides[i], Affinity::System,
                "omp_atomic_array" + stride_tags[i] + suffix);
            add(OmpPrimitive::Flush, t, Location::PrivateArray,
                strides[i], Affinity::Close,
                "omp_flush" + stride_tags[i] + suffix);
        }
    }
    return sys;
}

/** Every CUDA experiment of the paper on @p cfg: one CSV per
 * (primitive, data type, block count, stride) combination. */
std::unique_ptr<SystemRun>
planSweep(const gpusim::GpuConfig &cfg, const MeasurementConfig &protocol,
          const CampaignOptions &options)
{
    const std::string slug = sanitizeName(cfg.name);
    auto sys = std::make_unique<SystemRun>("cuda:" + slug, slug,
                                           options.output_dir);
    sys->header = {"blocks", "threads_per_block", "per_op_seconds",
                   "throughput_per_thread"};

    const std::vector<int> thread_counts =
        cudaThreadCounts(1024, options.quick ? 2 : 1);
    const std::vector<int> block_counts =
        options.quick ? std::vector<int>{1, 2, cfg.sm_count / 2}
                      : cudaBlockCounts(cfg.sm_count);
    std::vector<gpusim::LaunchConfig> grids;
    for (int blocks : block_counts) {
        for (int n : thread_counts)
            grids.push_back({blocks, n});
    }

    ConfigHasher base_hash;
    base_hash.add(slug);
    for (int blocks : block_counts)
        base_hash.add(blocks);
    for (int n : thread_counts)
        base_hash.add(n);
    hashProtocol(base_hash, protocol);

    auto add = [&](CudaPrimitive prim, DataType dtype, Location loc,
                   int stride, std::string file) {
        CudaExperiment e;
        e.primitive = prim;
        e.dtype = dtype;
        e.location = loc;
        e.stride = stride;

        Point point;
        point.hash = pointDigest(base_hash, file, e);
        point.emit = [e, file, grids, &cfg, &protocol,
                      &run = *sys](CsvWriter &csv, ManifestEntry &entry,
                                   sim::LoopBatchCounters &lb) {
            return measurePoint<GpuSimTarget>(cfg, protocol, run, grids,
                                              e, file, csv, entry, lb);
        };
        point.file = std::move(file);
        sys->points.push_back(std::move(point));
    };

    add(CudaPrimitive::SyncThreads, DataType::Int32,
        Location::SharedVariable, 1, "cuda_syncthreads.csv");
    add(CudaPrimitive::SyncWarp, DataType::Int32,
        Location::SharedVariable, 1, "cuda_syncwarp.csv");
    add(CudaPrimitive::VoteSync, DataType::Int32,
        Location::SharedVariable, 1, "cuda_vote.csv");
    add(CudaPrimitive::ThreadFence, DataType::Int32,
        Location::PrivateArray, 1, "cuda_threadfence.csv");
    add(CudaPrimitive::ThreadFenceBlock, DataType::Int32,
        Location::PrivateArray, 1, "cuda_threadfence_block.csv");
    add(CudaPrimitive::ThreadFenceSystem, DataType::Int32,
        Location::PrivateArray, 1, "cuda_threadfence_system.csv");

    for (DataType t : all_data_types) {
        const std::string suffix = std::string(dataTypeName(t)) + ".csv";
        add(CudaPrimitive::AtomicAdd, t, Location::SharedVariable, 1,
            "cuda_atomicadd_" + suffix);
        add(CudaPrimitive::ShflSync, t, Location::SharedVariable, 1,
            "cuda_shfl_" + suffix);
        if (!options.quick) {
            for (int stride : {1, 32}) {
                add(CudaPrimitive::AtomicAdd, t, Location::PrivateArray,
                    stride,
                    "cuda_atomicadd_array_s" + std::to_string(stride) +
                        "_" + suffix);
            }
        }
        if (isIntegerType(t)) {
            add(CudaPrimitive::AtomicCas, t, Location::SharedVariable, 1,
                "cuda_atomiccas_" + suffix);
            add(CudaPrimitive::AtomicExch, t, Location::SharedVariable, 1,
                "cuda_atomicexch_" + suffix);
        }
    }
    return sys;
}

/** Enumerate every system's sweep, in the order given. */
std::vector<std::unique_ptr<SystemRun>>
planCampaign(const std::vector<CampaignSystem> &systems,
             const CampaignOptions &options)
{
    std::vector<std::unique_ptr<SystemRun>> runs;
    runs.reserve(systems.size());
    for (const CampaignSystem &system : systems) {
        runs.push_back(std::visit(
            [&](const auto &cfg) {
                return planSweep(cfg, system.protocol, options);
            },
            system.config));
    }
    return runs;
}

/**
 * The campaign's mechanics over every system: stray-temp cleanup,
 * journal lifecycle, skip-on-resume, atomic CSV emission, one
 * parallel run with ordered commits, and failure accounting.
 */
class CampaignRunner
{
  public:
    CampaignRunner(const CampaignOptions &options, CampaignResult &result)
        : options_(options), result_(result)
    {
    }

    /**
     * Run every system's points: resume-skip against each journal,
     * then measure the rest on one set of workers -- concurrently
     * when options.jobs allows -- and commit each outcome in point
     * order (journal entry, result accounting, debounced
     * checkpoint). Each system's journal is flushed to disk when its
     * last point commits.
     */
    void
    run(const std::vector<std::unique_ptr<SystemRun>> &systems)
    {
        std::vector<OrderedExecutor::Job> jobs;
        for (const auto &sys : systems) {
            open(*sys);
            for (const Point &point : sys->points) {
                if (options_.resume &&
                    sys->manifest.isComplete(point.file, point.hash)) {
                    ++sys->outcome.experiments_skipped;
                    metrics::add(metrics::Counter::PointsSkipped);
                    continue;
                }
                const bool first = sys->pending++ == 0;
                jobs.push_back([this, &sys = *sys, &point, first] {
                    return runExperiment(sys, point, first);
                });
            }
            if (sys->pending == 0)
                closeSpan(*sys);
        }

        const int workers = std::min(
            resolveJobs(options_.jobs),
            std::max(1, static_cast<int>(jobs.size())));
        checkpoint_every_ =
            options_.checkpoint_every > 0
                ? options_.checkpoint_every
                : (workers > 1 ? parallel_checkpoint_batch : 1);
        if (!jobs.empty() && options_.heartbeat)
            options_.heartbeat("measure");
        CampaignMetrics::global().foldPool(
            OrderedExecutor::run(workers, std::move(jobs)));
    }

  private:
    /** Ready @p sys's directory and journal, and open its span. */
    void
    open(SystemRun &sys)
    {
        if (trace::spanArmed())
            sys.span_start_ns = trace::detail::nowNanos();
        removeStrayTemps(sys.dir);
        if (options_.resume) {
            auto loaded = Manifest::load(sys.dir / "manifest.json");
            if (loaded.isOk()) {
                sys.manifest = std::move(loaded).value();
            } else {
                warn("{}; restarting the journal",
                     loaded.status().message());
            }
        }
        sys.manifest.setSystem(sys.slug);
    }

    /**
     * Measure one experiment and write its CSV (worker side), then
     * hand back the closure that journals the outcome (commit side,
     * invoked in point order by OrderedExecutor).
     */
    OrderedExecutor::CommitFn
    runExperiment(SystemRun &sys, const Point &point, bool first)
    {
        // A system's span starts with its first job.
        if (first && trace::spanArmed())
            sys.span_start_ns = trace::detail::nowNanos();

        // Cooperative stop: once cancellation fires, the remaining
        // points are accounted as interrupted, never measured. The
        // journal keeps no record of them, so a resume reruns them.
        if (options_.cancelled && options_.cancelled()) {
            return [this, &sys] {
                ++result_.experiments_interrupted;
                result_.interrupted = true;
                settle(sys);
            };
        }

        const std::string key = sys.slug + "/" + point.file;
        ScopedLogPrefix log_prefix(key);
        trace::Span span(point.file, "experiment");

        ManifestEntry entry;
        entry.key = point.file;
        entry.config_hash = point.hash;
        sim::LoopBatchCounters lb;

        const fs::path path = sys.dir / point.file;
        Status status = writeCsv(path, sys.header, point, entry, lb);

        return [this, &sys, &point, key, path, lb,
                entry = std::move(entry),
                status = std::move(status)]() mutable {
            {
                trace::Span commit_span(point.file, "commit");
                if (status.isOk()) {
                    entry.complete = true;
                    entry.error.clear();
                    sys.manifest.recordComplete(std::move(entry));
                    result_.files_written.push_back(path.string());
                    ++sys.outcome.experiments_run;
                    result_.loop_batch[key] = lb;
                    metrics::add(metrics::Counter::PointsCommitted);
                    checkpoint(sys, /*force=*/false);
                } else {
                    warn("experiment {} failed: {}", key,
                         status.toString());
                    sys.manifest.recordFailure(point.file, point.hash,
                                               status.toString());
                    result_.failures.push_back({key, status.toString()});
                    ++sys.outcome.experiments_failed;
                    metrics::add(metrics::Counter::PointsFailed);
                    // A failure is worth a write of its own: the
                    // journal must know about it even if we die
                    // right after.
                    checkpoint(sys, /*force=*/true);
                }
            }
            settle(sys);
            if (options_.heartbeat)
                options_.heartbeat(point.file);
        };
    }

    static Status
    writeCsv(const fs::path &path, const std::vector<std::string> &header,
             const Point &point, ManifestEntry &entry,
             sim::LoopBatchCounters &lb)
    {
        AtomicFile out;
        if (Status s = out.open(path); !s.isOk())
            return s;
        CsvWriter csv(out.stream());
        csv.header(header);
        if (Status s = point.emit(csv, entry, lb); !s.isOk())
            return s; // destructor discards the temp file
        return out.commit();
    }

    /** Count one committed point of @p sys; its last flushes the
     * system's journal, closes its span and frees its memo (no job
     * of the system is left to consult it). */
    void
    settle(SystemRun &sys)
    {
        if (--sys.pending > 0)
            return;
        flushCheckpoint(sys);
        closeSpan(sys);
        sys.memo.reset();
    }

    /**
     * Debounced journal persistence: a full manifest rewrite per
     * experiment is O(points^2) over a campaign, so commits are
     * batched (checkpoint_every_) and losing a batch only costs
     * re-measuring it on resume. Failures force a write.
     */
    void
    checkpoint(SystemRun &sys, bool force)
    {
        ++sys.unsaved_commits;
        if (force || sys.unsaved_commits >= checkpoint_every_)
            flushCheckpoint(sys);
    }

    /** Persist the journal; losing it only costs re-measurement. */
    static void
    flushCheckpoint(SystemRun &sys)
    {
        if (sys.unsaved_commits == 0)
            return;
        if (Status s = sys.manifest.save(); !s.isOk())
            warn("cannot checkpoint manifest: {}", s.toString());
        metrics::add(metrics::Counter::CheckpointFlushes);
        sys.unsaved_commits = 0;
    }

    /** Record @p sys's `system` span, from its first job's start (or
     * its setup, when nothing of it runs) to now. */
    static void
    closeSpan(SystemRun &sys)
    {
        if (sys.span_start_ns == 0)
            return;
        trace::detail::recordComplete(
            sys.span_name, "system", sys.span_start_ns,
            trace::detail::nowNanos() - sys.span_start_ns);
        sys.span_start_ns = 0;
    }

    /** Drop .tmp leftovers of a previously killed campaign. */
    static void
    removeStrayTemps(const fs::path &dir)
    {
        std::error_code ec;
        if (!fs::is_directory(dir, ec))
            return;
        for (const auto &e : fs::directory_iterator(dir, ec)) {
            if (e.is_regular_file() && e.path().extension() == ".tmp")
                fs::remove(e.path(), ec);
        }
    }

    const CampaignOptions &options_;
    CampaignResult &result_;
    int checkpoint_every_ = 1;
};

} // namespace

std::string
sanitizeName(const std::string &name)
{
    std::string out;
    for (char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c))) {
            out.push_back(static_cast<char>(
                std::tolower(static_cast<unsigned char>(c))));
        } else if (!out.empty() && out.back() != '_') {
            out.push_back('_');
        }
    }
    while (!out.empty() && out.back() == '_')
        out.pop_back();
    return out;
}

int
resolveJobs(int jobs)
{
    if (jobs == 0)
        return std::max(1, static_cast<int>(
                               std::thread::hardware_concurrency()));
    return std::max(1, jobs);
}

std::vector<CampaignPoint>
campaignPoints(const std::vector<CampaignSystem> &systems,
               const CampaignOptions &options)
{
    std::vector<CampaignPoint> points;
    for (const auto &sys : planCampaign(systems, options)) {
        for (const Point &point : sys->points)
            points.push_back({sys->slug + "/" + point.file, point.hash});
    }
    return points;
}

CampaignResult
runCampaign(const std::vector<CampaignSystem> &systems,
            const CampaignOptions &options)
{
    CampaignResult result;
    const auto runs = planCampaign(systems, options);
    CampaignRunner(options, result).run(runs);
    for (const auto &sys : runs) {
        result.systems.push_back(sys->outcome);
        result.experiments_run += sys->outcome.experiments_run;
        result.experiments_skipped += sys->outcome.experiments_skipped;
    }
    return result;
}

} // namespace syncperf::core
