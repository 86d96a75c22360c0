/**
 * @file
 * Implementation of the counter registry.
 */

#include "metrics.hh"

namespace syncperf::metrics
{
namespace
{

struct CounterInfo
{
    std::string_view name;
    bool deterministic;
};

constexpr CounterInfo counter_info[counter_count] = {
    {"points_committed", true},
    {"points_failed", true},
    {"points_skipped", true},
    {"protocol_retries", true},
    {"noise_retries", true},
    {"faults_injected", true},
    {"faults_survived", true},
    {"checkpoint_flushes", false},
    {"sim_cache_hits", true},
    {"sim_cache_misses", true},
    {"loop_batch_iters", true},
    {"loop_batch_windows", true},
    {"loop_batch_fallbacks", true},
    {"pool_clones", true},
    {"pool_cold_builds", true},
    {"lane_groups", true},
    {"lane_points", true},
    {"lane_peels", true},
    {"lane_singleton_points", true},
    {"sim_events", true},
    {"pool_tasks_run", false},
    {"pool_tasks_stolen", false},
    {"pool_busy_nanos", false},
    {"pool_idle_nanos", false},
    {"executor_max_queue_depth", false},
};

} // namespace

std::string_view
counterName(Counter c)
{
    return counter_info[static_cast<std::size_t>(c)].name;
}

bool
counterIsDeterministic(Counter c)
{
    return counter_info[static_cast<std::size_t>(c)].deterministic;
}

Registry &
Registry::global()
{
    static Registry instance;
    return instance;
}

void
Registry::recordMax(Counter c, long long value)
{
    auto &s = slot(c);
    long long seen = s.load(std::memory_order_relaxed);
    while (value > seen &&
           !s.compare_exchange_weak(seen, value,
                                    std::memory_order_relaxed)) {
    }
}

void
Registry::reset()
{
    for (auto &c : counters_)
        c.store(0, std::memory_order_relaxed);
}

} // namespace syncperf::metrics
