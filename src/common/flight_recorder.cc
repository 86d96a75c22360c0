/**
 * @file
 * Implementation of the mmap-backed crash flight recorder.
 */

#include "flight_recorder.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <vector>

#include "common/atomic_file.hh"
#include "common/json.hh"

namespace syncperf::flight
{
namespace
{

constexpr std::uint64_t ring_magic = 0x53594e43464c5431ull; // "SYNCFLT1"
constexpr std::uint32_t ring_version = 1;

/**
 * On-disk layouts. Plain structs (no std::atomic members) so the
 * renderer can read a dead process's ring as raw bytes; the live
 * writer touches the shared fields through std::atomic_ref.
 */
struct RawHeader
{
    std::uint64_t magic;
    std::uint32_t version;
    std::uint32_t slot_count;
    std::uint32_t events_per_slot;
    std::uint32_t next_slot; ///< claimed by fetch_add, one per thread
    std::int32_t pid;
    std::int32_t crash_signo; ///< stamped by the crash handlers
    std::int64_t realtime_anchor_us;
    std::int64_t mono_anchor_ns;
    char label[64];
};
static_assert(sizeof(RawHeader) <= 4096, "header must fit one page");

struct RawRecord
{
    std::uint64_t seq_begin; ///< == seq_end iff the write completed
    std::int64_t start_ns;
    std::int64_t dur_ns;
    char name[72];
    char category[24];
    std::uint64_t seq_end;
};
static_assert(sizeof(RawRecord) == 128, "renderer assumes 128B records");

constexpr std::size_t header_bytes = 4096;

struct Ring
{
    RawHeader *header = nullptr;
    RawRecord *records = nullptr; ///< slot-major, events_per_slot each
    std::size_t mapped_bytes = 0;
    void *base = nullptr;
};

Ring g_ring;
std::atomic<bool> g_armed{false};

/** This thread's claimed slot: -1 unclaimed, -2 dropped (no slot
 * left). */
thread_local int t_slot = -1;
thread_local std::uint64_t t_next_seq = 0;

void
copyPadded(char *dst, std::size_t cap, std::string_view src)
{
    const std::size_t n = std::min(src.size(), cap - 1);
    std::memcpy(dst, src.data(), n);
    std::memset(dst + n, 0, cap - n);
}

std::size_t
ringBytes(int slots, int events_per_slot)
{
    return header_bytes +
           static_cast<std::size_t>(slots) * events_per_slot *
               sizeof(RawRecord);
}

extern "C" void
crashHandler(int signo)
{
    // Async-signal-safe: one store into the shared mapping, then
    // re-raise with the default disposition so the crash proceeds.
    if (g_ring.header != nullptr)
        std::atomic_ref<std::int32_t>(g_ring.header->crash_signo)
            .store(signo, std::memory_order_relaxed);
    std::signal(signo, SIG_DFL);
    ::raise(signo);
}

} // namespace

Status
open(const Options &options)
{
    close();

    std::error_code ec;
    if (options.file.has_parent_path())
        std::filesystem::create_directories(options.file.parent_path(),
                                            ec);
    const int slots = std::max(1, options.slots);
    const int per_slot = std::max(8, options.events_per_slot);
    const std::size_t bytes = ringBytes(slots, per_slot);

    const int fd = ::open(options.file.c_str(),
                          O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return Status::error(ErrorCode::IoError,
                             "flight recorder: open {} failed: {}",
                             options.file.string(),
                             std::strerror(errno));
    if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
        const int err = errno;
        ::close(fd);
        return Status::error(ErrorCode::IoError,
                             "flight recorder: ftruncate {} failed: {}",
                             options.file.string(), std::strerror(err));
    }
    void *base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                        MAP_SHARED, fd, 0);
    ::close(fd);
    if (base == MAP_FAILED)
        return Status::error(ErrorCode::IoError,
                             "flight recorder: mmap {} failed: {}",
                             options.file.string(),
                             std::strerror(errno));

    g_ring.base = base;
    g_ring.mapped_bytes = bytes;
    g_ring.header = static_cast<RawHeader *>(base);
    g_ring.records = reinterpret_cast<RawRecord *>(
        static_cast<char *>(base) + header_bytes);

    RawHeader &h = *g_ring.header;
    h.version = ring_version;
    h.slot_count = static_cast<std::uint32_t>(slots);
    h.events_per_slot = static_cast<std::uint32_t>(per_slot);
    h.next_slot = 0;
    h.pid = static_cast<std::int32_t>(::getpid());
    h.crash_signo = 0;
    h.realtime_anchor_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    h.mono_anchor_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    copyPadded(h.label, sizeof(h.label), options.label);
    // Publish the magic last: a renderer never trusts a ring whose
    // header was still being initialised when the process died.
    std::atomic_ref<std::uint64_t>(h.magic).store(
        ring_magic, std::memory_order_release);

    g_armed.store(true, std::memory_order_release);
    return Status::ok();
}

void
close()
{
    g_armed.store(false, std::memory_order_release);
    if (g_ring.base != nullptr)
        ::munmap(g_ring.base, g_ring.mapped_bytes);
    g_ring = Ring{};
}

bool
armed()
{
    return g_armed.load(std::memory_order_acquire);
}

void
record(std::string_view name, std::string_view category,
       std::int64_t start_ns, std::int64_t dur_ns)
{
    if (!armed())
        return;
    RawHeader &h = *g_ring.header;
    if (t_slot == -1) {
        const std::uint32_t claimed =
            std::atomic_ref<std::uint32_t>(h.next_slot)
                .fetch_add(1, std::memory_order_relaxed);
        t_slot = claimed < h.slot_count ? static_cast<int>(claimed)
                                        : -2;
    }
    if (t_slot < 0)
        return;

    const std::uint32_t per_slot = h.events_per_slot;
    const std::uint64_t seq = ++t_next_seq;
    RawRecord &r =
        g_ring.records[static_cast<std::size_t>(t_slot) * per_slot +
                       (seq - 1) % per_slot];
    std::atomic_ref<std::uint64_t>(r.seq_begin)
        .store(seq, std::memory_order_relaxed);
    r.start_ns = start_ns;
    r.dur_ns = dur_ns;
    copyPadded(r.name, sizeof(r.name), name);
    copyPadded(r.category, sizeof(r.category), category);
    // Release so a renderer that sees matching stamps also sees the
    // payload written between them.
    std::atomic_ref<std::uint64_t>(r.seq_end)
        .store(seq, std::memory_order_release);
}

void
installCrashHandlers()
{
    for (int signo :
         {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT})
        std::signal(signo, crashHandler);
}

Status
renderPostmortem(const std::filesystem::path &ring,
                 const std::filesystem::path &out, int max_events)
{
    std::ifstream in(ring, std::ios::binary);
    if (!in)
        return Status::error(ErrorCode::IoError,
                             "postmortem: cannot read ring {}",
                             ring.string());
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    if (bytes.size() < header_bytes)
        return Status::error(ErrorCode::ParseError,
                             "postmortem: ring {} truncated ({} bytes)",
                             ring.string(), bytes.size());
    RawHeader h{};
    std::memcpy(&h, bytes.data(), sizeof(h));
    if (h.magic != ring_magic || h.version != ring_version)
        return Status::error(ErrorCode::ParseError,
                             "postmortem: ring {} has bad magic/version",
                             ring.string());

    const std::size_t have_records =
        (bytes.size() - header_bytes) / sizeof(RawRecord);
    const std::size_t want_records =
        static_cast<std::size_t>(h.slot_count) * h.events_per_slot;
    const std::size_t n = std::min(have_records, want_records);

    std::vector<RawRecord> valid;
    valid.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        RawRecord r{};
        std::memcpy(&r, bytes.data() + header_bytes +
                            i * sizeof(RawRecord),
                    sizeof(r));
        if (r.seq_begin == 0 || r.seq_begin != r.seq_end)
            continue; // never written, or torn by the crash
        r.name[sizeof(r.name) - 1] = '\0';
        r.category[sizeof(r.category) - 1] = '\0';
        valid.push_back(r);
    }
    std::stable_sort(valid.begin(), valid.end(),
                     [](const RawRecord &a, const RawRecord &b) {
                         return a.start_ns < b.start_ns;
                     });
    if (max_events > 0 &&
        valid.size() > static_cast<std::size_t>(max_events))
        valid.erase(valid.begin(),
                    valid.end() - max_events);

    std::string label(h.label,
                      ::strnlen(h.label, sizeof(h.label)));
    JsonValue root = JsonValue::object();
    root.set("schema", JsonValue("syncperf-postmortem-v1"));
    root.set("pid", JsonValue(static_cast<double>(h.pid)));
    root.set("label", JsonValue(label));
    root.set("crash_signo",
             JsonValue(static_cast<double>(h.crash_signo)));
    root.set("realtime_anchor_us",
             JsonValue(static_cast<double>(h.realtime_anchor_us)));
    root.set("threads_recorded",
             JsonValue(static_cast<double>(std::min(
                 h.next_slot, h.slot_count))));
    JsonValue events = JsonValue::array();
    for (const RawRecord &r : valid) {
        JsonValue e = JsonValue::object();
        e.set("name", JsonValue(std::string(r.name)));
        e.set("cat", JsonValue(std::string(r.category)));
        // Microseconds since the ring was opened (its monotonic
        // anchor).
        e.set("ts_us",
              JsonValue(static_cast<double>(r.start_ns -
                                            h.mono_anchor_ns) /
                        1000.0));
        e.set("dur_us",
              JsonValue(static_cast<double>(r.dur_ns) / 1000.0));
        events.push(std::move(e));
    }
    root.set("events", std::move(events));

    AtomicFile file;
    if (Status s = file.open(out); !s.isOk())
        return s;
    file.stream() << root.dump(1) << "\n";
    return file.commit();
}

} // namespace syncperf::flight
