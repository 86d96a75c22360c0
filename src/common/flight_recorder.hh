/**
 * @file
 * Crash flight recorder: a fixed-size, per-thread ring of recent
 * span events backed by a memory-mapped file.
 *
 * trace::Span feeds the same (name, category, start, duration)
 * events here as it feeds the trace buffers, but writes go straight
 * into a MAP_SHARED file mapping: they cost two relaxed atomic
 * stores plus a bounded memcpy, never allocate, and — because the
 * page cache belongs to the kernel, not the process — survive
 * SIGKILL. The campaign CLI arms one ring per measuring run and
 * deletes it on a normal exit; a run that finds a leftover ring
 * renders it into postmortem.json, so every fault-injector kill and
 * real crash leaves a readable tail of the last events instead of
 * nothing (docs/observability.md, "Crash flight recorder").
 *
 * Records carry a doubled sequence stamp (seq_begin/seq_end); a
 * record interrupted mid-write by a crash leaves the stamps unequal
 * and is skipped by the renderer.
 */

#ifndef SYNCPERF_COMMON_FLIGHT_RECORDER_HH
#define SYNCPERF_COMMON_FLIGHT_RECORDER_HH

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

#include "common/status.hh"

namespace syncperf::flight
{

struct Options
{
    /** Ring file to create (truncated if present). */
    std::filesystem::path file;
    /** Process label rendered into the postmortem ("campaign"). */
    std::string label;
    /** Per-thread slots; threads beyond this record nothing. */
    int slots = 32;
    /** Ring capacity per thread slot. */
    int events_per_slot = 128;
};

/** Create + map the ring file and arm record(). One ring per
 * process; a second open() replaces the first. */
Status open(const Options &options);

/** Unmap the ring (the file stays; the caller deletes it). Disarms
 * record(). */
void close();

/** True between a successful open() and close(). */
bool armed();

/**
 * Append one span event to the calling thread's ring. Lock-free,
 * allocation-free, safe from any thread; a no-op when un-armed or
 * when more than Options::slots threads have recorded.
 */
void record(std::string_view name, std::string_view category,
            std::int64_t start_ns, std::int64_t dur_ns);

/**
 * Install handlers for fatal signals (SIGSEGV/SIGBUS/SIGFPE/SIGILL/
 * SIGABRT) that stamp the signal number into the ring header and
 * re-raise with the default disposition, so the postmortem records
 * why the process died without suppressing the crash.
 */
void installCrashHandlers();

/**
 * Render @p ring into a postmortem JSON file: ring metadata (pid,
 * label, crash signal) plus the last @p max_events valid events in
 * start-time order. Works on rings left by dead processes; torn
 * records are skipped.
 */
Status renderPostmortem(const std::filesystem::path &ring,
                        const std::filesystem::path &out,
                        int max_events = 100);

} // namespace syncperf::flight

#endif // SYNCPERF_COMMON_FLIGHT_RECORDER_HH
