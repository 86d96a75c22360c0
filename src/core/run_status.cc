/**
 * @file
 * Implementation of the run-status reporter.
 */

#include "run_status.hh"

#include <cstdio>

#include "common/atomic_file.hh"
#include "common/fmt.hh"
#include "common/json.hh"
#include "common/metrics.hh"

namespace syncperf::core
{
namespace
{

double
ratio(long long num, long long den)
{
    return den > 0 ? static_cast<double>(num) /
                         static_cast<double>(den)
                   : 0.0;
}

} // namespace

double
RunStatus::simCacheHitRatio() const
{
    return ratio(sim_cache_hits, sim_cache_hits + sim_cache_misses);
}

double
RunStatus::loopBatchWindowRatio() const
{
    return ratio(loop_batch_windows,
                 loop_batch_windows + loop_batch_fallbacks);
}

double
RunStatus::poolIdleFraction() const
{
    const double total = pool_busy_s + pool_idle_s;
    return total > 0 ? pool_idle_s / total : 0.0;
}

void
RunStatus::fillCountersFromRegistry()
{
    using metrics::Counter;
    sim_cache_hits = metrics::value(Counter::SimCacheHits);
    sim_cache_misses = metrics::value(Counter::SimCacheMisses);
    loop_batch_windows = metrics::value(Counter::LoopBatchWindows);
    loop_batch_fallbacks =
        metrics::value(Counter::LoopBatchFallbacks);
    pool_tasks_run = metrics::value(Counter::PoolTasksRun);
    pool_tasks_stolen = metrics::value(Counter::PoolTasksStolen);
    pool_busy_s =
        static_cast<double>(metrics::value(Counter::PoolBusyNanos)) /
        1e9;
    pool_idle_s =
        static_cast<double>(metrics::value(Counter::PoolIdleNanos)) /
        1e9;
}

std::string
RunStatus::toJson() const
{
    JsonValue root = JsonValue::object();
    root.set("schema", JsonValue("syncperf-status-v1"));
    root.set("state", JsonValue(state));

    JsonValue points = JsonValue::object();
    points.set("done",
               JsonValue(static_cast<double>(points_done)));
    points.set("total",
               JsonValue(static_cast<double>(points_total)));
    root.set("points", std::move(points));

    JsonValue rate = JsonValue::object();
    rate.set("elapsed_s", JsonValue(elapsed_s));
    rate.set("experiments_per_s", JsonValue(experiments_per_s));
    rate.set("eta_s", JsonValue(eta_s));
    root.set("rate", std::move(rate));

    JsonValue engagement = JsonValue::object();
    engagement.set("sim_cache_hit_ratio",
                   JsonValue(simCacheHitRatio()));
    engagement.set("loop_batch_window_ratio",
                   JsonValue(loopBatchWindowRatio()));
    root.set("engagement", std::move(engagement));

    JsonValue pool = JsonValue::object();
    pool.set("tasks_run",
             JsonValue(static_cast<double>(pool_tasks_run)));
    pool.set("tasks_stolen",
             JsonValue(static_cast<double>(pool_tasks_stolen)));
    pool.set("busy_s", JsonValue(pool_busy_s));
    pool.set("idle_s", JsonValue(pool_idle_s));
    pool.set("idle_fraction", JsonValue(poolIdleFraction()));
    root.set("pool", std::move(pool));
    return root.dump(2) + "\n";
}

std::string
RunStatus::progressLine() const
{
    std::string line = format("[status] {}/{} points", points_done,
                              points_total);
    line += format(", {:.1f} exp/s", experiments_per_s);
    if (eta_s >= 0)
        line += format(", eta {:.0f}s", eta_s);
    if (state != "running")
        line += format(" ({})", state);
    return line;
}

RunStatusReporter::RunStatusReporter(std::filesystem::path file,
                                     double interval_s,
                                     bool progress)
    : file_(std::move(file)),
      interval_s_(interval_s > 0 ? interval_s : 1.0),
      progress_(progress),
      start_(std::chrono::steady_clock::now())
{
}

bool
RunStatusReporter::due() const
{
    if (!wrote_)
        return true;
    const auto elapsed =
        std::chrono::steady_clock::now() - last_write_;
    return std::chrono::duration<double>(elapsed).count() >=
           interval_s_;
}

double
RunStatusReporter::elapsedSeconds() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

void
RunStatusReporter::write(RunStatus &status)
{
    status.elapsed_s = elapsedSeconds();
    status.experiments_per_s =
        status.elapsed_s > 0
            ? static_cast<double>(status.points_done) /
                  status.elapsed_s
            : 0.0;
    status.eta_s =
        status.experiments_per_s > 0 &&
                status.points_total >= status.points_done
            ? static_cast<double>(status.points_total -
                                  status.points_done) /
                  status.experiments_per_s
            : -1.0;

    AtomicFile out;
    if (!file_.empty() && out.open(file_).isOk()) {
        out.stream() << status.toJson();
        (void)out.commit();
    }
    if (progress_)
        std::fprintf(stderr, "%s\n",
                     status.progressLine().c_str());
    last_write_ = std::chrono::steady_clock::now();
    wrote_ = true;
}

void
RunStatusReporter::tick(RunStatus &status)
{
    if (due())
        write(status);
}

void
RunStatusReporter::force(RunStatus &status)
{
    write(status);
}

} // namespace syncperf::core
