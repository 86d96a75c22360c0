/**
 * @file
 * Tests for the span-tracing subsystem: session lifecycle, Chrome
 * trace_event export, deterministic flush ordering, span nesting,
 * and per-thread buffer isolation under concurrent recording. The
 * concurrent cases also run under the `tsan` preset.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/json.hh"
#include "common/trace.hh"

namespace syncperf::trace
{
namespace
{

namespace fs = std::filesystem;

std::string
readFile(const fs::path &file)
{
    std::ifstream in(file, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        out_ = fs::temp_directory_path() /
               ("syncperf_trace_" + std::to_string(::getpid()) +
                ".json");
        fs::remove(out_);
    }

    void
    TearDown() override
    {
        // Never leak an active session into the next test.
        if (active())
            (void)stop();
        fs::remove(out_);
    }

    /** Parse the exported file; fails the test on invalid JSON. */
    JsonValue
    exported()
    {
        const auto parsed = parseJson(readFile(out_));
        EXPECT_TRUE(parsed.isOk()) << parsed.status().toString();
        return parsed.isOk() ? parsed.value() : JsonValue();
    }

    /** The "X" (complete) events of @p root, in file order. */
    static std::vector<JsonValue>
    completeEvents(const JsonValue &root)
    {
        std::vector<JsonValue> out;
        const auto *events = root.find("traceEvents");
        if (events == nullptr || !events->isArray())
            return out;
        for (const auto &e : events->asArray()) {
            if (e.stringOr("ph", "") == "X")
                out.push_back(e);
        }
        return out;
    }

    fs::path out_;
};

TEST_F(TraceTest, InactiveByDefaultAndSpansAreNoOps)
{
    EXPECT_FALSE(active());
    EXPECT_FALSE(enabled());
    { Span span("ignored", "test"); }
    setThreadName("also-ignored");
    EXPECT_FALSE(fs::exists(out_));
}

TEST_F(TraceTest, StopWithoutStartFails)
{
    EXPECT_FALSE(stop().isOk());
}

TEST_F(TraceTest, DoubleStartFails)
{
    ASSERT_TRUE(start(out_).isOk());
    EXPECT_FALSE(start(out_).isOk());
    EXPECT_TRUE(stop().isOk());
}

TEST_F(TraceTest, ExportsValidChromeTraceJson)
{
    ASSERT_TRUE(start(out_).isOk());
    EXPECT_TRUE(active());
    setThreadName("main-thread");
    {
        Span outer("outer", "test");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        Span inner("inner", "test");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(stop().isOk());
    EXPECT_FALSE(active());

    const auto root = exported();
    ASSERT_TRUE(root.isObject());
    EXPECT_EQ(root.stringOr("displayTimeUnit", ""), "ms");

    const auto events = completeEvents(root);
    ASSERT_EQ(events.size(), 2u);
    for (const auto &e : events) {
        EXPECT_EQ(e.stringOr("cat", ""), "test");
        EXPECT_GE(e.numberOr("ts", -1.0), 0.0);
        EXPECT_GT(e.numberOr("dur", -1.0), 0.0);
    }

    // The main thread was named via a thread_name metadata event.
    bool named = false;
    for (const auto &e : root.find("traceEvents")->asArray()) {
        if (e.stringOr("ph", "") == "M" &&
            e.stringOr("name", "") == "thread_name") {
            const auto *args = e.find("args");
            ASSERT_NE(args, nullptr);
            if (args->stringOr("name", "") == "main-thread")
                named = true;
        }
    }
    EXPECT_TRUE(named);
}

TEST_F(TraceTest, NestedSpansAreContainedInTheirParent)
{
    ASSERT_TRUE(start(out_).isOk());
    {
        Span outer("outer", "test");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        {
            Span inner("inner", "test");
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(stop().isOk());

    const auto events = completeEvents(exported());
    ASSERT_EQ(events.size(), 2u);
    // Flush ordering is by start time: outer first, inner second.
    EXPECT_EQ(events[0].stringOr("name", ""), "outer");
    EXPECT_EQ(events[1].stringOr("name", ""), "inner");

    const double outer_start = events[0].numberOr("ts", 0.0);
    const double outer_end =
        outer_start + events[0].numberOr("dur", 0.0);
    const double inner_start = events[1].numberOr("ts", 0.0);
    const double inner_end =
        inner_start + events[1].numberOr("dur", 0.0);
    EXPECT_LE(outer_start, inner_start);
    EXPECT_GE(outer_end, inner_end);
}

TEST_F(TraceTest, FlushOrderIsSortedByStartTime)
{
    ASSERT_TRUE(start(out_).isOk());
    for (int i = 0; i < 16; ++i)
        Span span("span-" + std::to_string(i), "test");
    ASSERT_TRUE(stop().isOk());

    const auto events = completeEvents(exported());
    ASSERT_EQ(events.size(), 16u);
    double prev = -1.0;
    for (const auto &e : events) {
        const double ts = e.numberOr("ts", -1.0);
        EXPECT_GE(ts, prev) << "events not sorted by start time";
        prev = ts;
    }
}

TEST_F(TraceTest, ConcurrentThreadsRecordIntoSeparateBuffers)
{
    constexpr int threads = 4;
    constexpr int spans_per_thread = 50;

    ASSERT_TRUE(start(out_).isOk());
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([t] {
            setThreadName("worker-" + std::to_string(t));
            for (int i = 0; i < spans_per_thread; ++i)
                Span span("w" + std::to_string(t), "test");
        });
    }
    for (auto &w : workers)
        w.join();
    ASSERT_TRUE(stop().isOk());

    const auto root = exported();
    const auto events = completeEvents(root);
    EXPECT_EQ(events.size(),
              static_cast<std::size_t>(threads * spans_per_thread));

    // Every worker got its own tid, and each tid only carries that
    // worker's spans (buffers are never shared between threads).
    std::set<double> tids;
    for (const auto &e : events) {
        tids.insert(e.numberOr("tid", -1.0));
        const double tid = e.numberOr("tid", -1.0);
        for (const auto &other : events) {
            if (other.numberOr("tid", -2.0) == tid) {
                EXPECT_EQ(other.stringOr("name", ""),
                          e.stringOr("name", ""));
            }
        }
    }
    EXPECT_EQ(tids.size(), static_cast<std::size_t>(threads));

    int names = 0;
    for (const auto &e : root.find("traceEvents")->asArray()) {
        if (e.stringOr("ph", "") == "M")
            ++names;
    }
    EXPECT_EQ(names, threads);
}

TEST_F(TraceTest, SpanFinishingAfterStopIsDroppedSafely)
{
    ASSERT_TRUE(start(out_).isOk());
    auto straggler = std::make_unique<Span>("straggler", "test");
    { Span recorded("recorded", "test"); }
    ASSERT_TRUE(stop().isOk());
    straggler.reset(); // destructor runs after the flush: dropped

    const auto events = completeEvents(exported());
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].stringOr("name", ""), "recorded");
}

TEST_F(TraceTest, SecondSessionStartsClean)
{
    ASSERT_TRUE(start(out_).isOk());
    { Span span("first-session", "test"); }
    ASSERT_TRUE(stop().isOk());

    ASSERT_TRUE(start(out_).isOk());
    { Span span("second-session", "test"); }
    ASSERT_TRUE(stop().isOk());

    const auto events = completeEvents(exported());
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].stringOr("name", ""), "second-session");
}

TEST_F(TraceTest, SessionRootRecordsRealtimeAnchor)
{
    ASSERT_TRUE(start(out_).isOk());
    { Span span("anchored", "test"); }
    ASSERT_TRUE(stop().isOk());

    const auto root = exported();
    const auto *session = root.find("syncperfSession");
    ASSERT_NE(session, nullptr);
    EXPECT_GT(session->numberOr("realtime_anchor_us", 0.0), 0.0);
    EXPECT_EQ(session->numberOr("pid", -1.0),
              static_cast<double>(::getpid()));
}

} // namespace
} // namespace syncperf::trace
