/**
 * @file
 * Campaign driver: the repository's analog of the paper artifact's
 * "./launch.py all". Runs the full measurement campaign for every
 * modeled system and writes one CSV per experiment under results/.
 *
 * Resilient by design: every CSV lands via an atomic rename, every
 * experiment is journaled in results/<system>/manifest.json, a
 * failed experiment is recorded and skipped rather than aborting,
 * and --resume continues an interrupted campaign without redoing
 * journaled-complete work. SIGINT/SIGTERM checkpoint the journal
 * and exit with 128+signo, so an interrupted campaign resumes
 * cleanly. Exits nonzero (with a summary) when any experiment
 * failed. See docs/robustness.md.
 *
 * --jobs N measures every system's experiments on one set of N
 * threads and commits them in point order, so the result tree is
 * byte-identical at every job count. Every measuring run arms a
 * crash flight recorder at <out>/.flight.ring and removes it on a
 * normal exit; the next run over the same --out renders a leftover
 * ring (a run that crashed or was killed) into <out>/postmortem.json.
 * docs/robustness.md, "Parallel and interrupted campaigns", has the
 * failure model.
 */

#include <cctype>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/flight_recorder.hh"
#include "common/metrics.hh"
#include "common/trace.hh"
#include "core/campaign.hh"
#include "core/metrics.hh"
#include "core/run_status.hh"
#include "core/telemetry.hh"
#include "sim/fault_injector.hh"

using namespace syncperf;
using namespace syncperf::core;

namespace
{

namespace fs = std::filesystem;

/** Last signal delivered; 0 while none. Polled cooperatively by the
 * campaign (options.cancelled). */
volatile std::sig_atomic_t g_signal = 0;

void
onSignal(int signo)
{
    g_signal = signo;
}

/** Split a comma-separated --only value into lowercase fragments. */
std::vector<std::string>
parseOnly(const char *arg)
{
    std::vector<std::string> out;
    std::string fragment;
    for (const char *p = arg;; ++p) {
        if (*p == ',' || *p == '\0') {
            if (!fragment.empty())
                out.push_back(fragment);
            fragment.clear();
            if (*p == '\0')
                break;
        } else {
            fragment.push_back(static_cast<char>(
                std::tolower(static_cast<unsigned char>(*p))));
        }
    }
    return out;
}

/** True when @p system matches any --only fragment (or none given). */
bool
systemSelected(const std::vector<std::string> &only,
               const std::string &system)
{
    if (only.empty())
        return true;
    for (const auto &fragment : only) {
        if (system.find(fragment) != std::string::npos)
            return true;
    }
    return false;
}

/** Parse all of @p text as a base-10 int (an optional '-', then
 * digits only); false on anything else or on overflow. */
bool
parseInt(std::string_view text, int &out)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc{} && ptr == end;
}

/** Parse all of @p text as a finite decimal number. */
bool
parseFinite(std::string_view text, double &out)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc{} && ptr == end && std::isfinite(out);
}

/** One command-line flag; value flags consume the next argument. */
struct Flag
{
    std::string_view name;
    bool takes_value;
};

/** Every flag main() accepts. */
constexpr Flag flags[] = {
    {"omp", false},
    {"cuda", false},
    {"--out", true},
    {"--thorough", false},
    {"--resume", false},
    {"--jobs", true},
    {"--checkpoint-every", true},
    {"--only", true},
    {"--cov-gate", true},
    {"--no-loop-batch", false},
    {"--telemetry", false},
    {"--explain", false},
    {"--explain-only", false},
    {"--trace", true},
    {"--metrics", true},
    {"--metrics-summary", false},
    {"--status", true},
    {"--status-interval", true},
    {"--progress", false},
    {"--help", false},
};

const Flag *
findFlag(std::string_view name)
{
    for (const Flag &flag : flags) {
        if (flag.name == name)
            return &flag;
    }
    return nullptr;
}

/**
 * The crash flight recorder of one campaign run: a ring file under
 * --out that the span sites feed and that survives SIGKILL (see
 * common/flight_recorder.hh). A ring left behind by an earlier run
 * means that run died; construction renders it to postmortem.json
 * and deletes it. arm() creates the fresh ring just before the first
 * measurement -- creating it costs ~0.4 ms on ext4, about 15% of a
 * --resume run that finds nothing to measure. Destruction -- any
 * return from main -- disarms the ring and deletes the file.
 */
class FlightRing
{
  public:
    FlightRing(const fs::path &out_dir, const char *argv0)
        : ring_(out_dir / ".flight.ring"), argv0_(argv0)
    {
        std::error_code ec;
        if (!fs::exists(ring_, ec))
            return;
        const fs::path postmortem = out_dir / "postmortem.json";
        if (auto s = flight::renderPostmortem(ring_, postmortem);
            s.isOk()) {
            std::fprintf(stderr,
                         "%s: the previous run over %s died; its last "
                         "events are in %s\n",
                         argv0, out_dir.c_str(), postmortem.c_str());
        } else {
            std::fprintf(stderr, "%s: %s\n", argv0,
                         s.toString().c_str());
        }
        fs::remove(ring_, ec);
    }

    /** Create the ring and arm it; only the first call does work. */
    void
    arm()
    {
        if (tried_)
            return;
        tried_ = true;
        flight::Options options;
        options.file = ring_;
        options.label = "campaign";
        if (auto s = flight::open(options); !s.isOk()) {
            std::fprintf(stderr, "%s: %s\n", argv0_,
                         s.toString().c_str());
            return;
        }
        flight::installCrashHandlers();
        armed_ = true;
    }

    ~FlightRing()
    {
        if (!armed_)
            return;
        flight::close();
        std::error_code ec;
        fs::remove(ring_, ec);
    }

    FlightRing(const FlightRing &) = delete;
    FlightRing &operator=(const FlightRing &) = delete;

  private:
    fs::path ring_;
    const char *argv0_;
    bool tried_ = false;
    bool armed_ = false;
};

} // namespace

int
main(int argc, char **argv)
{
    CampaignOptions options;
    options.jobs = 0; // CLI default: one worker per hardware thread
    bool omp_only = false, cuda_only = false;
    bool metrics_summary = false;
    bool explain = false, explain_only = false;
    std::string trace_file;
    std::string metrics_file;
    std::string status_file;
    double status_interval = 1.0;
    bool progress = false;
    std::vector<std::string> only;
    const char *only_arg = "";
    MeasurementConfig omp_protocol = MeasurementConfig::simDefaults();
    MeasurementConfig cuda_protocol = MeasurementConfig::simGpuDefaults();
    omp_protocol.runs = 1;
    omp_protocol.attempts = 1;
    cuda_protocol.runs = 1;
    cuda_protocol.attempts = 1;

    for (int i = 1; i < argc; ++i) {
        const Flag *flag = findFlag(argv[i]);
        if (flag == nullptr) {
            std::fprintf(stderr,
                         "%s: unknown argument '%s' (try --help)\n",
                         argv[0], argv[i]);
            return 2;
        }
        if (flag->takes_value && i + 1 >= argc) {
            std::fprintf(stderr, "%s: %s requires a value\n", argv[0],
                         argv[i]);
            return 2;
        }
        const std::string_view name = flag->name;
        const char *value = flag->takes_value ? argv[++i] : nullptr;
        const auto bad_value = [&](const char *wants) {
            std::fprintf(stderr, "%s: %s wants %s, not '%s'\n", argv[0],
                         flag->name.data(), wants, value);
            return 2;
        };
        if (name == "--out") {
            options.output_dir = value;
        } else if (name == "--thorough") {
            options.quick = false;
        } else if (name == "--resume") {
            options.resume = true;
        } else if (name == "--jobs") {
            if (!parseInt(value, options.jobs) || options.jobs < 1)
                return bad_value("a count >= 1");
        } else if (name == "--checkpoint-every") {
            if (!parseInt(value, options.checkpoint_every) ||
                options.checkpoint_every < 0) {
                return bad_value("a count >= 0 (0 = auto)");
            }
        } else if (name == "--only") {
            only_arg = value;
            only = parseOnly(value);
            if (only.empty())
                return bad_value("at least one system name");
        } else if (name == "--trace") {
            trace_file = value;
        } else if (name == "--metrics") {
            metrics_file = value;
        } else if (name == "--metrics-summary") {
            metrics_summary = true;
        } else if (name == "--status") {
            status_file = value;
        } else if (name == "--status-interval") {
            if (!parseFinite(value, status_interval) ||
                status_interval <= 0) {
                return bad_value("seconds > 0");
            }
        } else if (name == "--progress") {
            progress = true;
        } else if (name == "--cov-gate") {
            double gate = 0.0;
            if (!parseFinite(value, gate) || gate < 0)
                return bad_value("a finite number >= 0 (0 = off)");
            omp_protocol.cov_gate = gate;
            cuda_protocol.cov_gate = gate;
        } else if (name == "--no-loop-batch") {
            omp_protocol.loop_batch = false;
            cuda_protocol.loop_batch = false;
        } else if (name == "--telemetry") {
            omp_protocol.telemetry = true;
            cuda_protocol.telemetry = true;
        } else if (name == "--explain") {
            explain = true;
            omp_protocol.telemetry = true;
            cuda_protocol.telemetry = true;
        } else if (name == "--explain-only") {
            explain = true;
            explain_only = true;
        } else if (name == "omp") {
            omp_only = true;
        } else if (name == "cuda") {
            cuda_only = true;
        } else if (name == "--help") {
            std::printf(
                "usage: %s [omp|cuda] [--out DIR] [--thorough] "
                "[--resume] [--cov-gate COV] [--jobs N] "
                "[--checkpoint-every N] "
                "[--only NAME[,NAME...]] "
                "[--no-loop-batch] "
                "[--telemetry] [--explain] "
                "[--explain-only] [--trace FILE] [--metrics FILE] "
                "[--metrics-summary] [--status FILE] "
                "[--status-interval SECS] [--progress]\n"
                "  --jobs N   concurrent experiments (default: all "
                "hardware threads; 1 = serial).\n"
                "             Output is byte-identical at every job "
                "count.\n"
                "  --no-loop-batch  single-step every simulated "
                "iteration instead of batching proven\n"
                "             steady-state windows (output is "
                "byte-identical either way; this only\n"
                "             trades speed for nothing -- see "
                "docs/performance.md, \"Loop batching\").\n"
                "  --only     run only systems whose sanitized name "
                "contains a given fragment\n"
                "             (matching no system is an error).\n"
                "  --trace FILE     record spans, write Chrome trace "
                "JSON (Perfetto / chrome://tracing).\n"
                "  --metrics FILE   write the metrics.json snapshot "
                "(see docs/observability.md).\n"
                "  --metrics-summary  print the counter table at "
                "campaign end.\n"
                "  --status FILE    rewrite a live status.json "
                "(schema syncperf-status-v1) on a\n"
                "             debounce timer: points done/total, "
                "experiments/s, ETA, engagement\n"
                "             ratios (see docs/observability.md, "
                "\"Live run status\").\n"
                "  --status-interval SECS  status debounce interval "
                "(default 1).\n"
                "  --progress   print a one-line status summary to "
                "stderr at each status write.\n"
                "  --telemetry  write one <experiment>.telemetry.json "
                "per CSV with the probe\n"
                "             counters/histograms that explain the "
                "figure shape (byte-identical\n"
                "             at every --jobs count; measured values "
                "are unaffected).\n"
                "  --explain  --telemetry, plus render the probe "
                "charts after the campaign.\n"
                "  --explain-only  skip measuring; render charts from "
                "existing telemetry in --out.\n",
                argv[0]);
            return 0;
        }
    }

    // No mode flag already means both modes; both flags would exclude
    // every system.
    if (omp_only && cuda_only) {
        std::fprintf(stderr,
                     "%s: give one mode (omp or cuda), or neither for "
                     "both\n",
                     argv[0]);
        return 2;
    }

    // The CoV gate needs more than one run to see variance.
    if (omp_protocol.cov_gate > 0.0) {
        omp_protocol.runs = 3;
        cuda_protocol.runs = 3;
    }

    // The systems this invocation covers, in canonical order: the
    // CPUs, then the GPUs.
    std::vector<CampaignSystem> systems;
    std::string slugs; // every system of the mode, for the error below
    const auto consider = [&](const auto &system,
                              const MeasurementConfig &protocol) {
        const std::string slug = sanitizeName(system.name);
        slugs += (slugs.empty() ? "" : ", ") + slug;
        if (systemSelected(only, slug))
            systems.push_back({system, protocol});
    };
    if (!cuda_only) {
        for (const auto &cpu : {cpusim::CpuConfig::system1(),
                                cpusim::CpuConfig::system2(),
                                cpusim::CpuConfig::system3()})
            consider(cpu, omp_protocol);
    }
    if (!omp_only) {
        for (const auto &gpu : {gpusim::GpuConfig::rtx2070Super(),
                                gpusim::GpuConfig::a100(),
                                gpusim::GpuConfig::rtx4090()})
            consider(gpu, cuda_protocol);
    }
    if (!only.empty() && systems.empty() && !explain_only) {
        std::fprintf(stderr,
                     "%s: --only '%s' matches no system; the systems "
                     "are %s\n",
                     argv[0], only_arg, slugs.c_str());
        return 2;
    }

    // Checkpoint-and-exit on SIGINT/SIGTERM: the cancellation hook
    // below stops launching new experiments, the journal is flushed
    // on the way out, and the exit code is 128+signo so callers can
    // tell "interrupted after checkpoint" from "failed".
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    options.cancelled = [] { return g_signal != 0; };

    // The crash flight recorder: report what a dead predecessor left
    // behind now; the heartbeat below arms a fresh ring.
    std::optional<FlightRing> flight_ring;
    if (!explain_only)
        flight_ring.emplace(options.output_dir, argv[0]);

    // Test-only process fault: SYNCPERF_FAULT_KILL_AFTER=<n> lets n
    // CSV commits land, then SIGKILLs this process (the kill-resume
    // tests in docs/robustness.md).
    sim::FaultInjector kill_injector;
    std::optional<sim::FaultInjector::Scope> kill_scope;
    if (const int n = sim::FaultInjector::killAfterFromEnv(); n >= 0) {
        kill_injector.killAfterCsvCommits(n);
        kill_scope.emplace(kill_injector);
    }

    if (!trace_file.empty()) {
        if (auto s = trace::start(trace_file); !s.isOk()) {
            std::fprintf(stderr, "%s: %s\n", argv[0],
                         s.toString().c_str());
            return 2;
        }
        trace::setThreadName("campaign-main");
    }
    // One fresh window per invocation: counters cover this campaign
    // only, so two snapshots of the same configuration are diffable.
    core::CampaignMetrics::global().reset();

    // Live run-status surface, opt-in via --status/--progress
    // (--progress alone prints the line and writes no file).
    std::optional<RunStatusReporter> reporter;
    long long status_total = 0;
    if (!explain_only && (!status_file.empty() || progress)) {
        if (!status_file.empty()) {
            std::error_code ec;
            fs::create_directories(fs::path(status_file).parent_path(),
                                   ec);
        }
        reporter.emplace(status_file, status_interval, progress);

        // Enumerate the sweep up front (no measuring) so done/total
        // and the ETA mean something from the first tick.
        status_total = static_cast<long long>(
            campaignPoints(systems, options).size());
    }

    // The campaign beats before its first measurement and after
    // every ordered commit: the first beat arms the flight
    // ring, and each beat feeds the debounced status write.
    options.heartbeat = [&flight_ring, &reporter,
                         status_total](const std::string &) {
        if (flight_ring)
            flight_ring->arm();
        if (!reporter || !reporter->due())
            return;
        using metrics::Counter;
        RunStatus st;
        st.points_total = status_total;
        st.points_done = metrics::value(Counter::PointsCommitted) +
                         metrics::value(Counter::PointsFailed) +
                         metrics::value(Counter::PointsSkipped);
        st.fillCountersFromRegistry();
        reporter->tick(st);
    };

    CampaignResult result;
    if (!explain_only) {
        // Scoped so the campaign-level span closes before the trace
        // session flushes below.
        trace::Span campaign_span("campaign", "campaign");
        result = runCampaign(systems, options);
    }
    for (std::size_t i = 0; i < result.systems.size(); ++i) {
        const auto &config = systems[i].config;
        const SystemOutcome &r = result.systems[i];
        std::printf(
            "%s campaign on %s...\n",
            std::holds_alternative<cpusim::CpuConfig>(config) ? "OpenMP"
                                                              : "CUDA",
            std::visit([](const auto &c) { return c.name; }, config)
                .c_str());
        std::printf("  %d experiments -> %d files (%d skipped, %d "
                    "failed)\n",
                    r.experiments_run, r.experiments_run,
                    r.experiments_skipped, r.experiments_failed);
    }

    if (!trace_file.empty()) {
        if (auto s = trace::stop(); !s.isOk()) {
            std::fprintf(stderr, "%s: cannot write trace: %s\n",
                         argv[0], s.toString().c_str());
        } else {
            std::printf("trace written to %s (open in "
                        "ui.perfetto.dev or chrome://tracing)\n",
                        trace_file.c_str());
        }
    }
    if (!metrics_file.empty()) {
        const auto &m = core::CampaignMetrics::global();
        if (auto s = m.writeSnapshot(metrics_file); !s.isOk()) {
            std::fprintf(stderr, "%s: cannot write metrics: %s\n",
                         argv[0], s.toString().c_str());
        } else {
            std::printf("metrics written to %s\n",
                        metrics_file.c_str());
        }
    }
    if (metrics_summary) {
        std::fputs(
            core::CampaignMetrics::global().summaryTable().c_str(),
            stdout);
    }
    if (explain) {
        std::printf("\n");
        if (auto s = explainCampaign(
                options.output_dir, std::cout,
                result.loop_batch.empty() ? nullptr
                                          : &result.loop_batch);
            !s.isOk()) {
            std::fprintf(stderr, "%s: %s\n", argv[0],
                         s.toString().c_str());
            return 1;
        }
        if (explain_only)
            return 0;
    }

    const bool interrupted = g_signal != 0 || result.interrupted;

    // Final status write: the terminal state.
    if (reporter) {
        using metrics::Counter;
        RunStatus st;
        st.state = interrupted               ? "interrupted"
                   : !result.failures.empty() ? "degraded"
                                              : "finished";
        st.points_total = status_total;
        st.points_done = metrics::value(Counter::PointsCommitted) +
                         metrics::value(Counter::PointsFailed) +
                         metrics::value(Counter::PointsSkipped);
        st.fillCountersFromRegistry();
        reporter->force(st);
    }

    std::printf("\ncampaign %s: %zu CSV files under %s/ "
                "(%d experiments run, %d resumed-skipped, %zu failed)\n",
                interrupted ? "INTERRUPTED"
                : result.failures.empty() ? "complete"
                                          : "DEGRADED",
                result.files_written.size(), options.output_dir.c_str(),
                result.experiments_run, result.experiments_skipped,
                result.failures.size());
    if (interrupted) {
        std::printf("interrupted by signal %d after checkpointing; "
                    "rerun with --resume to continue\n",
                    static_cast<int>(g_signal));
        return 128 + (g_signal != 0 ? g_signal : SIGTERM);
    }
    if (!result.failures.empty()) {
        std::printf("failed experiments (journaled in each system's "
                    "manifest.json; rerun with --resume):\n");
        for (const auto &f : result.failures)
            std::printf("  %s: %s\n", f.file.c_str(), f.error.c_str());
        return 1;
    }
    return 0;
}
