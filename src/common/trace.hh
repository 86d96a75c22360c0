/**
 * @file
 * Low-overhead span tracing for the campaign pipeline.
 *
 * A trace session records RAII spans (campaign -> system ->
 * experiment point -> measurement pass) into per-thread buffers and
 * exports them as Chrome trace_event JSON, loadable by Perfetto
 * (ui.perfetto.dev) or chrome://tracing. See docs/observability.md
 * for the schema and how to read a campaign trace.
 *
 * Cost model:
 *  - no session active: a span is one relaxed atomic load and a
 *    branch -- no allocation, no clock read, no locking;
 *  - session active: two steady_clock reads plus one append to the
 *    calling thread's own buffer. Buffers are never shared between
 *    recording threads, so the only lock a span can touch is its own
 *    buffer's (contended only by the final flush).
 *
 * Sessions are process-wide and must be started/stopped from a
 * single coordinating thread (the campaign CLI) while no other
 * thread is between start()/stop() calls of its own.
 */

#ifndef SYNCPERF_COMMON_TRACE_HH
#define SYNCPERF_COMMON_TRACE_HH

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

#include "common/status.hh"

namespace syncperf::trace
{

namespace detail
{

extern std::atomic<bool> g_enabled;

/** Monotonic nanoseconds (steady_clock). */
std::uint64_t nowNanos();

/** Append one complete event to the calling thread's buffer. */
void recordComplete(std::string_view name, const char *category,
                    std::uint64_t start_ns, std::uint64_t dur_ns);

} // namespace detail

/** True while a session is recording. */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/**
 * Begin recording; events will be exported to @p out_file by stop().
 * Fails when a session is already active.
 */
Status start(std::filesystem::path out_file);

/**
 * Stop recording, sort all buffered events deterministically
 * (by start time, then duration, thread, name), and atomically write
 * the Chrome trace JSON chosen at start(). Fails when no session is
 * active or the file cannot be written.
 */
Status stop();

/** True between a successful start() and the matching stop(). */
bool active();

/**
 * Name the calling thread in the exported trace (a thread_name
 * metadata event). No-op without an active session.
 */
void setThreadName(std::string_view name);

/**
 * RAII span: records a complete trace event covering its lifetime.
 * Construction with tracing disabled does no work -- the name is
 * never copied and the clock is never read.
 */
class Span
{
  public:
    /**
     * @param name Span label (experiment file, system name, ...);
     *     copied only when a session is active.
     * @param category Chrome trace category; must be a string
     *     literal (stored by pointer).
     */
    explicit Span(std::string_view name,
                  const char *category = "campaign")
    {
        if (enabled()) {
            name_ = name;
            category_ = category;
            start_ns_ = detail::nowNanos();
            armed_ = true;
        }
    }

    ~Span()
    {
        // A span that outlives its session is dropped by
        // recordComplete (the flush has already run); the buffer it
        // would have written to stays alive, so this is safe even
        // when stop() races a straggling worker.
        if (armed_) {
            detail::recordComplete(name_, category_, start_ns_,
                                   detail::nowNanos() - start_ns_);
        }
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    std::string name_;
    const char *category_ = nullptr;
    std::uint64_t start_ns_ = 0;
    bool armed_ = false;
};

} // namespace syncperf::trace

#endif // SYNCPERF_COMMON_TRACE_HH
