/**
 * @file
 * Implementation of the fault injector.
 */

#include "fault_injector.hh"

#include <csignal>
#include <cstdlib>
#include <limits>

#include <unistd.h>

#include "common/metrics.hh"

namespace syncperf::sim
{
namespace
{

FaultInjector *g_active = nullptr;

} // namespace

bool
FaultInjector::shouldPoisonMeasurement()
{
    const int n = measurement_count_.fetch_add(1) + 1;
    const bool poison = poison_first_ > 0 && n >= poison_first_ &&
                        n < poison_first_ + poison_count_;
    if (poison) {
        injected_count_.fetch_add(1);
        metrics::add(metrics::Counter::FaultsInjected);
    }
    return poison;
}

double
FaultInjector::reportLaunch(double seconds)
{
    FaultInjector *faults = active();
    if (faults == nullptr)
        return seconds;
    if (faults->shouldPoisonMeasurement())
        return std::numeric_limits<double>::quiet_NaN();
    return faults->perturbSeconds(seconds);
}

Status
FaultInjector::onWriteOp(const std::filesystem::path &path,
                         std::string_view op)
{
    const int n = write_op_count_.fetch_add(1) + 1;
    if (fail_write_first_ > 0 && n >= fail_write_first_ &&
        n < fail_write_first_ + fail_write_count_) {
        injected_count_.fetch_add(1);
        metrics::add(metrics::Counter::FaultsInjected);
        return Status::error(ErrorCode::FaultInjected,
                             "injected {} failure for {} (write op {})",
                             op, path.string(),
                             static_cast<long long>(n));
    }
    if (kill_after_csv_commits_ >= 0 && op == "commit" &&
        path.extension() == ".csv" &&
        csv_commit_count_.fetch_add(1) >= kill_after_csv_commits_) {
        // Die the way a crashed campaign dies: abruptly, before the
        // CSV's temp file is renamed into place. SIGKILL cannot be
        // caught, so no cleanup runs.
        injected_count_.fetch_add(1);
        metrics::add(metrics::Counter::FaultsInjected);
        ::kill(::getpid(), SIGKILL);
    }
    return Status::ok();
}

int
FaultInjector::killAfterFromEnv()
{
    const char *env = std::getenv("SYNCPERF_FAULT_KILL_AFTER");
    if (env == nullptr || *env == '\0')
        return -1;
    char *end = nullptr;
    const long commits = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || commits < 0)
        return -1;
    return static_cast<int>(commits);
}

FaultInjector *
FaultInjector::active()
{
    return g_active;
}

FaultInjector::Scope::Scope(FaultInjector &injector)
    : previous_(g_active)
{
    g_active = &injector;
    previous_hook_ = AtomicFile::setFaultHook(
        [&injector](const std::filesystem::path &path,
                    std::string_view op) {
            return injector.onWriteOp(path, op);
        });
}

FaultInjector::Scope::~Scope()
{
    g_active = previous_;
    AtomicFile::setFaultHook(previous_hook_);
}

} // namespace syncperf::sim
