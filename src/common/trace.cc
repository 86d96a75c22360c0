/**
 * @file
 * Implementation of the trace session and per-thread buffers.
 *
 * Ownership: the active Session owns every thread's Buffer. Each
 * recording thread caches a shared_ptr to the session plus a raw
 * pointer to its own buffer, keyed by the session's generation
 * number; a thread that records into a new session re-registers
 * automatically. The shared_ptr keeps retired sessions alive until
 * every straggler cache moves on, so a late span destructor can
 * never touch freed memory -- its event is simply dropped because
 * the enabled flag went down before the flush.
 */

#include "trace.hh"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/atomic_file.hh"
#include "common/json.hh"

namespace syncperf::trace
{
namespace detail
{

std::atomic<bool> g_enabled{false};

namespace
{

/** One complete ("ph":"X") event; the owning buffer supplies tid. */
struct Event
{
    std::string name;
    const char *category;
    std::uint64_t start_ns;
    std::uint64_t dur_ns;
};

/** One thread's event storage; locked only by owner and flush. */
struct Buffer
{
    std::mutex mutex;
    int tid = 0;
    std::string thread_name;
    std::vector<Event> events;
};

struct Session
{
    std::uint64_t generation = 0;
    std::uint64_t t0_ns = 0;
    /** CLOCK_REALTIME at start(): places the session's monotonic
     * timeline on the wall clock. */
    std::int64_t realtime_anchor_us = 0;
    int pid = 0;
    std::filesystem::path out_file;

    std::mutex registry_mutex;
    std::vector<std::unique_ptr<Buffer>> buffers;
};

std::mutex g_session_mutex;
std::shared_ptr<Session> g_session;
std::uint64_t g_next_generation = 1;

/** Generation of the active session; 0 when none. Lets the record
 * fast path validate its cached buffer without any lock. */
std::atomic<std::uint64_t> g_active_generation{0};

/** Per-thread cache of (session, own buffer), keyed by generation. */
struct ThreadCache
{
    std::uint64_t generation = 0;
    std::shared_ptr<Session> session;
    Buffer *buffer = nullptr;
};

thread_local ThreadCache t_cache;

/** The calling thread's buffer in the active session (registering
 * it on first use), or nullptr when no session is active. */
Buffer *
threadBuffer()
{
    // Fast path: the cached buffer is valid for the live session.
    // Generations are never reused, so an equal generation proves
    // the cached pointer belongs to the active session.
    const std::uint64_t gen =
        g_active_generation.load(std::memory_order_acquire);
    if (gen == 0)
        return nullptr;
    if (t_cache.generation == gen)
        return t_cache.buffer;

    std::shared_ptr<Session> session;
    {
        std::scoped_lock lock(g_session_mutex);
        session = g_session;
    }
    if (!session)
        return nullptr;
    auto buffer = std::make_unique<Buffer>();
    Buffer *raw = buffer.get();
    {
        std::scoped_lock lock(session->registry_mutex);
        raw->tid = static_cast<int>(session->buffers.size());
        raw->thread_name = "thread-" + std::to_string(raw->tid);
        session->buffers.push_back(std::move(buffer));
    }
    t_cache = {session->generation, std::move(session), raw};
    return raw;
}

} // namespace

std::uint64_t
nowNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
recordComplete(std::string_view name, const char *category,
               std::uint64_t start_ns, std::uint64_t dur_ns)
{
    // A span whose session stopped while it ran lands here with the
    // flag already down: drop it, the flush has happened.
    if (!enabled())
        return;
    Buffer *buffer = threadBuffer();
    if (buffer == nullptr)
        return;
    std::scoped_lock lock(buffer->mutex);
    buffer->events.push_back(
        {std::string(name), category, start_ns, dur_ns});
}

} // namespace detail

Status
start(std::filesystem::path out_file)
{
    using namespace detail;
    std::scoped_lock lock(g_session_mutex);
    if (g_session) {
        return Status::error(ErrorCode::InvalidArgument,
                             "a trace session is already active "
                             "(writing {})",
                             g_session->out_file.string());
    }
    auto session = std::make_shared<Session>();
    session->generation = g_next_generation++;
    session->t0_ns = nowNanos();
    session->realtime_anchor_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    session->pid = static_cast<int>(::getpid());
    session->out_file = std::move(out_file);
    g_active_generation.store(session->generation,
                              std::memory_order_release);
    g_session = std::move(session);
    g_enabled.store(true, std::memory_order_release);
    return Status::ok();
}

bool
active()
{
    std::scoped_lock lock(detail::g_session_mutex);
    return detail::g_session != nullptr;
}

void
setThreadName(std::string_view name)
{
    if (!enabled())
        return;
    if (detail::Buffer *buffer = detail::threadBuffer()) {
        std::scoped_lock lock(buffer->mutex);
        buffer->thread_name = name;
    }
}

Status
stop()
{
    using namespace detail;
    std::shared_ptr<Session> session;
    {
        std::scoped_lock lock(g_session_mutex);
        if (!g_session) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "no active trace session to stop");
        }
        // Order matters: recording stops before the flush below, so
        // any append racing this point either completed under its
        // buffer mutex (flush sees it) or sees the flag down (drops).
        g_enabled.store(false, std::memory_order_release);
        g_active_generation.store(0, std::memory_order_release);
        session = std::move(g_session);
        g_session.reset();
    }

    // Collect every buffer; the per-buffer lock serializes against
    // in-flight appends from spans that started before the stop.
    struct FlatEvent
    {
        Event event;
        int tid;
    };
    std::vector<FlatEvent> events;
    std::vector<std::pair<int, std::string>> thread_names;
    {
        std::scoped_lock registry(session->registry_mutex);
        for (const auto &buffer : session->buffers) {
            std::scoped_lock lock(buffer->mutex);
            thread_names.emplace_back(buffer->tid,
                                      buffer->thread_name);
            for (const Event &e : buffer->events)
                events.push_back({e, buffer->tid});
        }
    }

    // Deterministic content order: time, then longest-first so
    // parents precede their children, then thread and name.
    std::stable_sort(
        events.begin(), events.end(),
        [](const FlatEvent &a, const FlatEvent &b) {
            if (a.event.start_ns != b.event.start_ns)
                return a.event.start_ns < b.event.start_ns;
            if (a.event.dur_ns != b.event.dur_ns)
                return a.event.dur_ns > b.event.dur_ns;
            if (a.tid != b.tid)
                return a.tid < b.tid;
            return a.event.name < b.event.name;
        });

    const auto micros = [](std::uint64_t ns) {
        return static_cast<double>(ns) / 1000.0;
    };

    JsonValue trace_events = JsonValue::array();
    for (const auto &[tid, name] : thread_names) {
        JsonValue meta = JsonValue::object();
        meta.set("ph", JsonValue("M"));
        meta.set("name", JsonValue("thread_name"));
        meta.set("pid", JsonValue(session->pid));
        meta.set("tid", JsonValue(tid));
        JsonValue args = JsonValue::object();
        args.set("name", JsonValue(name));
        meta.set("args", std::move(args));
        trace_events.push(std::move(meta));
    }
    for (const FlatEvent &fe : events) {
        const std::uint64_t rel =
            fe.event.start_ns >= session->t0_ns
                ? fe.event.start_ns - session->t0_ns
                : 0;
        JsonValue e = JsonValue::object();
        e.set("ph", JsonValue("X"));
        e.set("name", JsonValue(fe.event.name));
        e.set("cat", JsonValue(fe.event.category));
        e.set("pid", JsonValue(session->pid));
        e.set("tid", JsonValue(fe.tid));
        e.set("ts", JsonValue(micros(rel)));
        e.set("dur", JsonValue(micros(fe.event.dur_ns)));
        trace_events.push(std::move(e));
    }

    JsonValue root = JsonValue::object();
    root.set("displayTimeUnit", JsonValue("ms"));
    JsonValue info = JsonValue::object();
    info.set("realtime_anchor_us",
             JsonValue(static_cast<double>(
                 session->realtime_anchor_us)));
    info.set("pid", JsonValue(session->pid));
    root.set("syncperfSession", std::move(info));
    root.set("traceEvents", std::move(trace_events));

    AtomicFile out;
    if (Status s = out.open(session->out_file); !s.isOk())
        return s;
    out.stream() << root.dump(1) << "\n";
    return out.commit();
}

} // namespace syncperf::trace
