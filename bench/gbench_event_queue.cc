/**
 * @file
 * google-benchmark micro-suite for sim::EventQueue, the innermost
 * loop of every simulated machine.
 *
 * Besides measuring schedule/execute throughput, the suite enforces
 * the queue's central performance contract: steady-state
 * schedule()/run() cycles on a reused queue perform ZERO heap
 * allocations per event for callbacks that fit the small-buffer
 * slot. The global operator new below counts every allocation; the
 * steady-state benchmarks fail (SkipWithError) if any occur inside
 * the measured region. Run with --benchmark_min_time=0.01 for a
 * quick pass/fail check, e.g. from CI or a sanitizer build.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "sim/event_queue.hh"

// -------------------------------------------------------------------
// Allocation counting: replace the global allocator with a counting
// shim. Only the diff across the measured region matters, so the
// benchmark library's own allocations outside it are harmless.
// -------------------------------------------------------------------

namespace
{

std::atomic<std::uint64_t> g_alloc_count{0};

std::uint64_t
allocCount()
{
    return g_alloc_count.load(std::memory_order_relaxed);
}

} // namespace

// GCC pairs the inlined std::free below with new-expressions at call
// sites and warns; the pairing is correct (our operator new mallocs).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t size)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

namespace
{

using namespace syncperf::sim;

constexpr int batch = 256;

/** Report per-event stats and fail the benchmark when the measured
 * region allocated at all. */
void
finish(benchmark::State &state, std::uint64_t events,
       std::uint64_t allocs)
{
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
    state.counters["allocs_per_event"] = benchmark::Counter(
        static_cast<double>(allocs) / static_cast<double>(events));
    if (allocs != 0) {
        state.SkipWithError(
            "steady-state event scheduling allocated on the heap");
    }
}

/**
 * Batch schedule-then-drain, the machines' launch pattern: after one
 * warm-up drain has grown the bucket/slot/free-list storage to the
 * peak in-flight size, every later cycle must reuse it.
 */
void
BM_ScheduleDrainSteadyState(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t sink = 0;

    auto cycle = [&] {
        for (int i = 0; i < batch; ++i) {
            eq.scheduleIn(static_cast<Tick>(i % 7),
                          [&sink, i] { sink += static_cast<unsigned>(i); },
                          i % 3);
        }
        eq.run();
    };

    cycle(); // warm-up: grows all internal buffers

    const std::uint64_t before = allocCount();
    std::uint64_t events = 0;
    for (auto _ : state) {
        cycle();
        events += batch;
    }
    const std::uint64_t allocs = allocCount() - before;

    benchmark::DoNotOptimize(sink);
    finish(state, events, allocs);
}
BENCHMARK(BM_ScheduleDrainSteadyState);

/**
 * Self-rescheduling chains, the machines' per-warp tick pattern:
 * each callback schedules its successor, so slots are recycled
 * through the free list while the queue never drains mid-run.
 */
void
BM_SelfRescheduleSteadyState(benchmark::State &state)
{
    constexpr int chains = 64;
    EventQueue eq;
    std::uint64_t sink = 0;
    std::uint64_t remaining = 0;

    const auto seed = [&](std::uint64_t steps) {
        remaining = steps;
        for (int c = 0; c < chains; ++c) {
            struct Step
            {
                EventQueue *eq;
                std::uint64_t *sink;
                std::uint64_t *remaining;
                int chain;

                void
                operator()() const
                {
                    ++*sink;
                    // Check-then-decrement: the budget is shared
                    // across chains, so a bare decrement would
                    // underflow once the other pending chains drain.
                    if (*remaining > 0) {
                        --*remaining;
                        eq->scheduleIn(1 + chain % 3, *this, chain);
                    }
                }
            };
            eq.scheduleIn(1, Step{&eq, &sink, &remaining, c}, c);
        }
        eq.run();
    };

    seed(4 * chains); // warm-up

    const std::uint64_t before = allocCount();
    const std::uint64_t executed_before = eq.executed();
    for (auto _ : state)
        seed(4 * chains);
    const std::uint64_t events = eq.executed() - executed_before;
    const std::uint64_t allocs = allocCount() - before;

    benchmark::DoNotOptimize(sink);
    finish(state, events, allocs);
}
BENCHMARK(BM_SelfRescheduleSteadyState);

/**
 * Tick gaps with the mix a thorough RTX 2070 Super CUDA sweep
 * schedules (8.6 M events): 6% land on the current tick, 54% are
 * below 512 cycles, 21% are 8,192 cycles or more (capped here at
 * 2^21). Within a class the gap is log-uniform, drawn from a fixed
 * splitmix64 stream so every run replays the same traffic.
 */
std::vector<Tick>
holdDeltas(std::size_t n)
{
    std::uint64_t x = 0x5eed;
    const auto next = [&x] {
        std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    };
    // Log-uniform in [2^lo, 2^hi): a uniform octave, then a uniform
    // offset inside it.
    const auto octaves = [&next](unsigned lo, unsigned hi) {
        const unsigned e = lo + static_cast<unsigned>(next() % (hi - lo));
        return (Tick{1} << e) + next() % (Tick{1} << e);
    };
    std::vector<Tick> out(n);
    for (Tick &d : out) {
        const std::uint64_t pct = next() % 100;
        if (pct < 6)
            d = 0;
        else if (pct < 54)
            d = octaves(0, 9);
        else if (pct < 79)
            d = octaves(9, 13);
        else
            d = octaves(13, 21);
    }
    return out;
}

/**
 * Hold model on the simulators' traffic: ~1,000 actors, one event
 * pending each, every callback rescheduling its actor (as its own
 * priority, like a warp) after the next gap of holdDeltas(). The
 * pending set stays near 1,000 until the shared budget runs out and
 * the queue drains, so a cycle times the pop/insert pair at the
 * machines' queue depth. Every cycle replays the same gaps.
 */
class HoldModel
{
  public:
    static constexpr int actors = 1000;

    void
    cycle(EventQueue &eq)
    {
        cursor_ = 0;
        remaining_ = 64 * actors;
        for (int a = 0; a < actors; ++a)
            eq.scheduleIn(gap(), Hold{&eq, this, a}, a);
        eq.run();
    }

  private:
    static constexpr std::size_t gap_mask = (1 << 16) - 1;

    struct Hold
    {
        EventQueue *eq;
        HoldModel *model;
        int actor;

        void
        operator()() const
        {
            if (model->remaining_ == 0)
                return;
            --model->remaining_;
            eq->scheduleIn(model->gap(), *this, actor);
        }
    };

    Tick
    gap()
    {
        static const std::vector<Tick> deltas = holdDeltas(gap_mask + 1);
        return deltas[cursor_++ & gap_mask];
    }

    std::size_t cursor_ = 0;
    std::uint64_t remaining_ = 0;
};

/** The hold model on one reused queue: the warm-up cycle reaches
 * every buffer's high-water mark, so later cycles must not
 * allocate. relinked_per_event is EventQueue::relinked() per executed
 * event: a work count, not a time. Each cycle starts at the tick the
 * last one ended on, so its last digits move with the iteration
 * count. */
void
BM_HoldModel(benchmark::State &state)
{
    HoldModel model;
    EventQueue eq;
    model.cycle(eq); // warm-up

    const std::uint64_t before = allocCount();
    const std::uint64_t executed_before = eq.executed();
    const std::uint64_t relinked_before = eq.relinked();
    for (auto _ : state)
        model.cycle(eq);
    const std::uint64_t events = eq.executed() - executed_before;
    const std::uint64_t allocs = allocCount() - before;

    finish(state, events, allocs);
    state.counters["relinked_per_event"] = benchmark::Counter(
        static_cast<double>(eq.relinked() - relinked_before) /
        static_cast<double>(events));
}
BENCHMARK(BM_HoldModel);

/**
 * Contrast case: captures larger than EventCallback::inline_size buy
 * one boxed allocation per event by design. No zero-alloc assertion
 * -- the counter documents the cost of outgrowing the small buffer.
 */
void
BM_ScheduleDrainOversizedCapture(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t sink = 0;

    struct Fat
    {
        std::uint64_t pad[8]; // 64 bytes > inline_size (48)
    };

    auto cycle = [&] {
        for (int i = 0; i < batch; ++i) {
            Fat fat{};
            fat.pad[0] = static_cast<std::uint64_t>(i);
            eq.scheduleIn(1, [&sink, fat] { sink += fat.pad[0]; });
        }
        eq.run();
    };

    cycle();

    const std::uint64_t before = allocCount();
    std::uint64_t events = 0;
    for (auto _ : state) {
        cycle();
        events += batch;
    }
    const std::uint64_t allocs = allocCount() - before;

    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
    state.counters["allocs_per_event"] = benchmark::Counter(
        static_cast<double>(allocs) / static_cast<double>(events));
}
BENCHMARK(BM_ScheduleDrainOversizedCapture);

} // namespace

BENCHMARK_MAIN();
