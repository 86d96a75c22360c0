/**
 * @file
 * Implementation of the campaign driver.
 *
 * Execution model: each sweep enumerates every experiment point up
 * front, then hands the points to CampaignRunner::runAll(), which
 * measures them concurrently (CampaignOptions::jobs workers) and
 * commits outcomes -- journal entries, result accounting, the
 * checkpoint cadence -- strictly in point order on the calling
 * thread. The measurement side of a point touches only its own
 * state (its own simulator target, its own CSV temp file) and the
 * system's launch memo, whose single-flight claims make it safe to
 * share and make its work the same at every job count; the ordered
 * commit is what makes the output byte-identical at every job count.
 */

#include "campaign.hh"

#include <cctype>
#include <filesystem>
#include <functional>
#include <memory>
#include <utility>

#include "common/atomic_file.hh"
#include "common/csv.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/thread_pool.hh"
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

/** Worker count options.jobs resolves to. */
int
resolveJobs(const CampaignOptions &options)
{
    if (options.jobs > 1)
        return options.jobs;
    if (options.jobs == 0)
        return ThreadPool::hardwareConcurrency();
    return 1;
}

/**
 * Shared per-system campaign mechanics: stray-temp cleanup, journal
 * lifecycle, skip-on-resume, atomic CSV emission, parallel
 * execution with ordered commits, and failure accounting. The
 * OpenMP and CUDA sweeps differ only in how they enumerate points
 * and emit rows.
 */
class CampaignRunner
{
  public:
    /** One enumerated experiment point, ready to run. */
    struct Experiment
    {
        std::string file;        ///< CSV name (the journal key)
        std::uint64_t hash = 0;  ///< ConfigHasher digest

        /** Writes all data rows and fills the journal entry's
         * retry/noise statistics; returns non-ok to fail the
         * experiment. Runs on a worker thread: it must touch only
         * its own state (build its own target). */
        std::function<Status(CsvWriter &, ManifestEntry &)> emit;

        /** Filled by emit with the point's loop-batching counters;
         * a successful commit folds it into
         * CampaignResult::loop_batch (see campaign.hh -- in-memory
         * only, never an artifact). */
        std::shared_ptr<sim::LoopBatchCounters> loop_batch;
    };

    CampaignRunner(const fs::path &dir, const std::string &system,
                   const CampaignOptions &options,
                   CampaignResult &result)
        : dir_(dir), options_(options), result_(result),
          manifest_(dir / "manifest.json")
    {
        removeStrayTemps();
        if (options.resume) {
            auto loaded = Manifest::load(dir / "manifest.json");
            if (loaded.isOk()) {
                manifest_ = std::move(loaded).value();
            } else {
                warn("{}; restarting the journal",
                     loaded.status().message());
            }
        }
        manifest_.setSystem(system);
    }

    /**
     * Run every experiment: resume-skip against the journal, then
     * measure the rest -- concurrently when options.jobs allows --
     * and commit each outcome in point order (journal entry, result
     * accounting, debounced checkpoint). Returns with the journal
     * flushed to disk.
     */
    void
    runAll(const std::vector<std::string> &header,
           std::vector<Experiment> experiments)
    {
        std::vector<Experiment> pending;
        pending.reserve(experiments.size());
        for (Experiment &exp : experiments) {
            if (options_.resume &&
                manifest_.isComplete(exp.file, exp.hash)) {
                ++result_.experiments_skipped;
                metrics::add(metrics::Counter::PointsSkipped);
                continue;
            }
            pending.push_back(std::move(exp));
        }

        const int jobs = std::min(
            resolveJobs(options_),
            pending.empty() ? 1 : static_cast<int>(pending.size()));
        checkpoint_every_ =
            options_.checkpoint_every > 0
                ? options_.checkpoint_every
                : (jobs > 1 ? parallel_checkpoint_batch : 1);
        if (!pending.empty() && options_.heartbeat)
            options_.heartbeat("measure " + dir_.filename().string());

        std::vector<OrderedExecutor::Job> fanout;
        fanout.reserve(pending.size());
        for (const Experiment &exp : pending)
            fanout.push_back([this, &header, &exp] {
                return runExperiment(header, exp);
            });

        if (jobs <= 1) {
            OrderedExecutor::run(nullptr, std::move(fanout));
        } else {
            ThreadPool pool(jobs);
            OrderedExecutor::run(&pool, std::move(fanout));
            CampaignMetrics::global().foldPool(pool.workerStats());
        }
        flushCheckpoint();
    }

  private:
    /**
     * Measure one experiment and write its CSV (worker side), then
     * hand back the closure that journals the outcome (commit side,
     * invoked in point order by OrderedExecutor).
     */
    OrderedExecutor::CommitFn
    runExperiment(const std::vector<std::string> &header,
                  const Experiment &exp)
    {
        // Cooperative stop: once cancellation fires, the remaining
        // points are accounted as interrupted, never measured. The
        // journal keeps no record of them, so a resume reruns them.
        if (options_.cancelled && options_.cancelled()) {
            return [this] {
                ++result_.experiments_interrupted;
                result_.interrupted = true;
            };
        }

        ScopedLogPrefix log_prefix(exp.file);
        trace::Span span(exp.file, "experiment");

        ManifestEntry entry;
        entry.key = exp.file;
        entry.config_hash = exp.hash;

        const fs::path path = dir_ / exp.file;
        Status status = writeCsv(path, header, exp.emit, entry);

        return [this, &exp, path, entry = std::move(entry),
                status = std::move(status)]() mutable {
            trace::Span commit_span(exp.file, "commit");
            if (status.isOk()) {
                entry.complete = true;
                entry.error.clear();
                manifest_.recordComplete(std::move(entry));
                result_.files_written.push_back(path.string());
                ++result_.experiments_run;
                if (exp.loop_batch)
                    result_.loop_batch.push_back(
                        {exp.file, *exp.loop_batch});
                metrics::add(metrics::Counter::PointsCommitted);
                checkpoint(/*force=*/false);
            } else {
                warn("experiment {} failed: {}", exp.file,
                     status.toString());
                manifest_.recordFailure(exp.file, exp.hash,
                                        status.toString());
                result_.failures.push_back(
                    {exp.file, status.toString()});
                metrics::add(metrics::Counter::PointsFailed);
                // A failure is worth a write of its own: the journal
                // must know about it even if we die right after.
                checkpoint(/*force=*/true);
            }
            if (options_.heartbeat)
                options_.heartbeat(exp.file);
        };
    }

    Status
    writeCsv(const fs::path &path,
             const std::vector<std::string> &header,
             const std::function<Status(CsvWriter &,
                                        ManifestEntry &)> &emit,
             ManifestEntry &entry)
    {
        AtomicFile out;
        if (Status s = out.open(path); !s.isOk())
            return s;
        CsvWriter csv(out.stream());
        csv.header(header);
        if (Status s = emit(csv, entry); !s.isOk())
            return s; // destructor discards the temp file
        return out.commit();
    }

    /**
     * Debounced journal persistence: a full manifest rewrite per
     * experiment is O(points^2) over a campaign, so commits are
     * batched (checkpoint_every_) and losing a batch only costs
     * re-measuring it on resume. Failures force a write.
     */
    void
    checkpoint(bool force)
    {
        ++unsaved_commits_;
        if (force || unsaved_commits_ >= checkpoint_every_)
            flushCheckpoint();
    }

    /** Persist the journal; losing it only costs re-measurement. */
    void
    flushCheckpoint()
    {
        if (unsaved_commits_ == 0)
            return;
        if (Status s = manifest_.save(); !s.isOk())
            warn("cannot checkpoint manifest: {}", s.toString());
        metrics::add(metrics::Counter::CheckpointFlushes);
        unsaved_commits_ = 0;
    }

    /** Drop .tmp leftovers of a previously killed campaign. */
    void
    removeStrayTemps()
    {
        std::error_code ec;
        if (!fs::is_directory(dir_, ec))
            return;
        for (const auto &e : fs::directory_iterator(dir_, ec)) {
            if (e.is_regular_file() && e.path().extension() == ".tmp")
                fs::remove(e.path(), ec);
        }
    }

    const fs::path dir_;
    const CampaignOptions &options_;
    CampaignResult &result_;
    Manifest manifest_;
    int checkpoint_every_ = 1;
    int unsaved_commits_ = 0;
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

CampaignResult
runOmpCampaign(const cpusim::CpuConfig &cfg,
               const MeasurementConfig &protocol,
               const CampaignOptions &options)
{
    CampaignResult result;
    const std::string system = sanitizeName(cfg.name);
    trace::Span system_span("omp:" + system, "system");
    const fs::path dir = fs::path(options.output_dir) / system;
    const auto threads =
        ompThreadCounts(cfg.totalHwThreads(), options.quick ? 4 : 1);

    // Everything the whole sweep shares is hashed exactly once.
    ConfigHasher base_hash;
    base_hash.add(system);
    for (int n : threads)
        base_hash.add(n);
    hashProtocol(base_hash, protocol);

    std::vector<CampaignRunner::Experiment> experiments;
    // One memo for the whole system: every point's target serves the
    // launches any earlier point (or attempt) already simulated.
    const auto memo = std::make_shared<LaunchMemo>();

    auto add = [&](OmpPrimitive prim, DataType dtype, Location loc,
                   int stride, Affinity affinity, std::string file) {
        OmpExperiment e;
        e.primitive = prim;
        e.dtype = dtype;
        e.location = loc;
        e.stride = stride;
        e.affinity = affinity;

        CampaignRunner::Experiment exp;
        exp.hash = pointDigest(base_hash, file, e);
        exp.loop_batch = std::make_shared<sim::LoopBatchCounters>();
        // The emit closure runs on a worker thread: one simulator
        // target per experiment file, built fresh from a fixed seed,
        // reused across the whole thread sweep -- results depend
        // only on the point, never on scheduling, because a served
        // launch is bit-identical to simulating it.
        exp.emit = [e, file, lb = exp.loop_batch, &cfg, &protocol,
                    &threads, &dir, &system,
                    &memo](CsvWriter &csv,
                           ManifestEntry &entry) -> Status {
            CpuSimTarget target(cfg, protocol, 1, memo);
            TelemetryReport report;
            for (int n : threads) {
                const auto m = target.measure(e, n);
                if (!m.valid) {
                    return Status::error(ErrorCode::MeasurementError,
                                         "{} threads: {}", n, m.error);
                }
                accumulate(entry, m);
                csv.field(static_cast<long long>(n))
                    .field(m.per_op_seconds)
                    .field(m.opsPerSecondPerThread())
                    .field(m.stddev_seconds);
                csv.endRow();
                if (protocol.telemetry) {
                    TelemetryPoint pt;
                    pt.axes.emplace_back(
                        "threads", static_cast<std::uint64_t>(n));
                    pt.sample = target.takeTelemetry();
                    report.points.push_back(std::move(pt));
                }
            }
            *lb = target.loopBatch();
            if (protocol.telemetry) {
                report.experiment = file;
                report.system = system;
                if (Status s = report.writeFile(
                        telemetryPathFor(dir, file));
                    !s.isOk())
                    return s;
            }
            return Status::ok();
        };
        exp.file = std::move(file);
        experiments.push_back(std::move(exp));
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

    result.points.reserve(experiments.size());
    for (const auto &exp : experiments)
        result.points.push_back({exp.file, exp.hash});
    if (options.enumerate_only)
        return result;

    CampaignRunner runner(dir, system, options, result);
    runner.runAll({"threads", "per_op_seconds", "throughput_per_thread",
                   "stddev_seconds"},
                  std::move(experiments));
    return result;
}

CampaignResult
runCudaCampaign(const gpusim::GpuConfig &cfg,
                const MeasurementConfig &protocol,
                const CampaignOptions &options)
{
    CampaignResult result;
    const std::string system = sanitizeName(cfg.name);
    trace::Span system_span("cuda:" + system, "system");
    const fs::path dir = fs::path(options.output_dir) / system;

    const std::vector<int> thread_counts =
        cudaThreadCounts(1024, options.quick ? 2 : 1);
    const std::vector<int> block_counts =
        options.quick ? std::vector<int>{1, 2, cfg.sm_count / 2}
                      : cudaBlockCounts(cfg.sm_count);

    ConfigHasher base_hash;
    base_hash.add(system);
    for (int blocks : block_counts)
        base_hash.add(blocks);
    for (int n : thread_counts)
        base_hash.add(n);
    hashProtocol(base_hash, protocol);

    std::vector<CampaignRunner::Experiment> experiments;
    const auto memo = std::make_shared<LaunchMemo>();

    auto add = [&](CudaPrimitive prim, DataType dtype, Location loc,
                   int stride, std::string file) {
        CudaExperiment e;
        e.primitive = prim;
        e.dtype = dtype;
        e.location = loc;
        e.stride = stride;

        CampaignRunner::Experiment exp;
        exp.hash = pointDigest(base_hash, file, e);
        exp.loop_batch = std::make_shared<sim::LoopBatchCounters>();
        exp.emit = [e, file, lb = exp.loop_batch, &cfg, &protocol,
                    &block_counts, &thread_counts, &dir, &system,
                    &memo](CsvWriter &csv,
                           ManifestEntry &entry) -> Status {
            GpuSimTarget target(cfg, protocol, 1, memo);
            TelemetryReport report;
            for (int blocks : block_counts) {
                for (int n : thread_counts) {
                    const auto m = target.measure(e, {blocks, n});
                    if (!m.valid) {
                        return Status::error(
                            ErrorCode::MeasurementError,
                            "{} blocks x {} threads: {}", blocks, n,
                            m.error);
                    }
                    accumulate(entry, m);
                    csv.field(static_cast<long long>(blocks))
                        .field(static_cast<long long>(n))
                        .field(m.per_op_seconds)
                        .field(m.opsPerSecondPerThread());
                    csv.endRow();
                    if (protocol.telemetry) {
                        TelemetryPoint pt;
                        pt.axes.emplace_back(
                            "blocks",
                            static_cast<std::uint64_t>(blocks));
                        pt.axes.emplace_back(
                            "threads_per_block",
                            static_cast<std::uint64_t>(n));
                        pt.sample = target.takeTelemetry();
                        report.points.push_back(std::move(pt));
                    }
                }
            }
            *lb = target.loopBatch();
            if (protocol.telemetry) {
                report.experiment = file;
                report.system = system;
                if (Status s = report.writeFile(
                        telemetryPathFor(dir, file));
                    !s.isOk())
                    return s;
            }
            return Status::ok();
        };
        exp.file = std::move(file);
        experiments.push_back(std::move(exp));
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

    result.points.reserve(experiments.size());
    for (const auto &exp : experiments)
        result.points.push_back({exp.file, exp.hash});
    if (options.enumerate_only)
        return result;

    CampaignRunner runner(dir, system, options, result);
    runner.runAll({"blocks", "threads_per_block", "per_op_seconds",
                   "throughput_per_thread"},
                  std::move(experiments));
    return result;
}

} // namespace syncperf::core
