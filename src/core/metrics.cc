/**
 * @file
 * Implementation of the campaign metrics snapshot.
 */

#include "metrics.hh"

#include "common/atomic_file.hh"
#include "common/fmt.hh"
#include "common/json.hh"
#include "common/table.hh"

namespace syncperf::core
{
namespace
{

constexpr int metrics_version = 1;

double
seconds(long long nanos)
{
    return static_cast<double>(nanos) / 1e9;
}

} // namespace

CampaignMetrics &
CampaignMetrics::global()
{
    static CampaignMetrics instance;
    return instance;
}

void
CampaignMetrics::foldPool(
    const std::vector<OrderedExecutor::WorkerStats> &stats)
{
    long long run = 0, busy = 0, idle = 0;
    {
        std::scoped_lock lock(mutex_);
        if (workers_.size() < stats.size())
            workers_.resize(stats.size());
        for (std::size_t i = 0; i < stats.size(); ++i) {
            const auto &w = stats[i];
            workers_[i].tasks_run += w.tasks_run;
            workers_[i].busy_nanos += w.busy_nanos;
            workers_[i].idle_nanos += w.idle_nanos;
            run += w.tasks_run;
            busy += w.busy_nanos;
            idle += w.idle_nanos;
        }
    }
    metrics::add(metrics::Counter::PoolTasksRun, run);
    metrics::add(metrics::Counter::PoolBusyNanos, busy);
    metrics::add(metrics::Counter::PoolIdleNanos, idle);
}

void
CampaignMetrics::reset()
{
    metrics::Registry::global().reset();
    std::scoped_lock lock(mutex_);
    workers_.clear();
}

double
CampaignMetrics::retryRate() const
{
    using metrics::Counter;
    const long long points =
        metrics::value(Counter::PointsCommitted) +
        metrics::value(Counter::PointsFailed);
    if (points == 0)
        return 0.0;
    return static_cast<double>(
               metrics::value(Counter::ProtocolRetries)) /
           static_cast<double>(points);
}

double
CampaignMetrics::idleFraction() const
{
    using metrics::Counter;
    const long long busy = metrics::value(Counter::PoolBusyNanos);
    const long long idle = metrics::value(Counter::PoolIdleNanos);
    if (busy + idle == 0)
        return 0.0;
    return static_cast<double>(idle) /
           static_cast<double>(busy + idle);
}

std::string
CampaignMetrics::snapshotJson() const
{
    using metrics::Counter;

    JsonValue counters = JsonValue::object();
    JsonValue timing = JsonValue::object();
    for (int i = 0; i < static_cast<int>(Counter::kCount); ++i) {
        const auto c = static_cast<Counter>(i);
        const long long v = metrics::value(c);
        if (metrics::counterIsDeterministic(c)) {
            counters.set(metrics::counterName(c),
                         JsonValue(static_cast<double>(v)));
        } else if (c == Counter::PoolBusyNanos) {
            timing.set("pool_busy_s", JsonValue(seconds(v)));
        } else if (c == Counter::PoolIdleNanos) {
            timing.set("pool_idle_s", JsonValue(seconds(v)));
        } else {
            timing.set(metrics::counterName(c),
                       JsonValue(static_cast<double>(v)));
        }
    }
    timing.set("retry_rate", JsonValue(retryRate()));
    timing.set("idle_fraction", JsonValue(idleFraction()));

    JsonValue workers = JsonValue::array();
    {
        std::scoped_lock lock(mutex_);
        for (std::size_t i = 0; i < workers_.size(); ++i) {
            const auto &w = workers_[i];
            JsonValue entry = JsonValue::object();
            entry.set("worker", JsonValue(static_cast<int>(i)));
            entry.set("tasks_run",
                      JsonValue(static_cast<double>(w.tasks_run)));
            entry.set("busy_s", JsonValue(seconds(w.busy_nanos)));
            entry.set("idle_s", JsonValue(seconds(w.idle_nanos)));
            workers.push(std::move(entry));
        }
    }

    JsonValue root = JsonValue::object();
    root.set("version", JsonValue(metrics_version));
    root.set("counters", std::move(counters));
    root.set("timing", std::move(timing));
    root.set("workers", std::move(workers));
    return root.dump(2) + "\n";
}

Status
CampaignMetrics::writeSnapshot(
    const std::filesystem::path &file) const
{
    AtomicFile out;
    if (Status s = out.open(file); !s.isOk())
        return s;
    out.stream() << snapshotJson();
    return out.commit();
}

std::string
CampaignMetrics::summaryTable() const
{
    using metrics::Counter;

    TablePrinter table({"counter", "value"});
    table.setTitle("campaign metrics");
    for (int i = 0; i < static_cast<int>(Counter::kCount); ++i) {
        const auto c = static_cast<Counter>(i);
        const long long v = metrics::value(c);
        if (c == Counter::PoolBusyNanos ||
            c == Counter::PoolIdleNanos) {
            table.addRow({std::string(metrics::counterName(c))
                              .substr(0, 9) + "_s",
                          format("{:.3f}", seconds(v))});
        } else {
            table.addRow({std::string(metrics::counterName(c)),
                          std::to_string(v)});
        }
    }
    table.addRow({"retry_rate", format("{:.4f}", retryRate())});
    table.addRow({"idle_fraction", format("{:.4f}", idleFraction())});
    return table.render();
}

} // namespace syncperf::core
