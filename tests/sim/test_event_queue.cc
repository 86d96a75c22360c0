/**
 * @file
 * Unit tests for the wake-up queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/event_queue.hh"

namespace syncperf::sim
{
namespace
{

/** Pop every wake, handing each actor to @p step (which may wake
 * more), the way a machine's loop runs its queue. */
void
drain(EventQueue &eq, const std::function<void(int)> &step)
{
    for (int a; (a = eq.next()) != EventQueue::none;)
        step(a);
}

/** Pop every wake due at or before @p limit, handing each actor to
 * @p step; later wakes stay pending. */
void
runUntil(EventQueue &eq, Tick limit, const std::function<void(int)> &step)
{
    while (eq.earliestPending() <= limit)
        step(eq.next());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq(3);
    std::vector<int> order;
    eq.wake(30, 0);
    eq.wake(10, 1);
    eq.wake(20, 2);
    drain(eq, [&](int a) { order.push_back(a); });
    EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
    EXPECT_EQ(eq.now(), 30u);
    EXPECT_EQ(eq.next(), EventQueue::none);
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickOrderedByActor)
{
    // Wake order never decides: (tick, actor) is unique among the
    // pending wakes.
    EventQueue eq(3);
    std::vector<int> order;
    eq.wake(5, 2);
    eq.wake(5, 0);
    eq.wake(5, 1);
    drain(eq, [&](int a) { order.push_back(a); });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, EventsMaySpawnEvents)
{
    EventQueue eq(2);
    int count = 0;
    eq.wake(0, 0);
    drain(eq, [&](int a) {
        if (++count < 5)
            eq.wake(eq.now() + 1, 1 - a); // hand over to the other
    });
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.now(), 4u);
    EXPECT_EQ(eq.executed(), 5u);
}

TEST(EventQueue, SchedulingIntoThePastPanics)
{
    EventQueue eq(1);
    eq.wake(10, 0);
    EXPECT_EQ(eq.next(), 0);
    ScopedLogCapture capture;
    EXPECT_THROW(eq.wake(5, 0), LogDeathException);
}

TEST(EventQueue, SecondPendingWakeOfOneActorPanics)
{
    EventQueue eq(2);
    eq.wake(10, 1);
    {
        ScopedLogCapture capture;
        EXPECT_THROW(eq.wake(20, 1), LogDeathException);
        EXPECT_THROW(eq.wake(10, 1), LogDeathException);
    }
    // Once popped, the actor may be woken again.
    EXPECT_EQ(eq.next(), 1);
    eq.wake(20, 1);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, WakeOutsideTheBoundRangePanics)
{
    EventQueue eq(4);
    ScopedLogCapture capture;
    EXPECT_THROW(eq.wake(1, 4), LogDeathException);
    EXPECT_THROW(eq.wake(1, -1), LogDeathException);
    eq.reset(2);
    EXPECT_THROW(eq.wake(1, 3), LogDeathException);
    EXPECT_THROW(eq.reset(EventQueue::max_actors + 1), LogDeathException);
}

TEST(EventQueue, PendingCountsLiveEvents)
{
    EventQueue eq(2);
    eq.wake(1, 0);
    eq.wake(2, 1);
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_FALSE(eq.empty());
    drain(eq, [](int) {});
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.maxPending(), 2u);
}

TEST(EventQueue, ResetRestoresInitialStateButKillsOldHandles)
{
    // An actor's pending wake is its only handle into the queue.
    EventQueue eq(2);
    eq.wake(10, 0);
    eq.wake(20, 1);
    EXPECT_EQ(eq.next(), 0);
    eq.reset(3);
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.maxPending(), 0u);
    EXPECT_EQ(eq.earliestPending(), EventQueue::no_tick);

    // Actor 1's pre-reset wake is dead: it never pops, waking the
    // actor again is its first pending wake, and the third actor is
    // bound now.
    std::vector<int> order;
    eq.wake(5, 1);
    eq.wake(1, 2);
    drain(eq, [&](int a) { order.push_back(a); });
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
    EXPECT_EQ(eq.now(), 5u);
    EXPECT_EQ(eq.executed(), 3u); // a lifetime count
}

// ------------------------------------------------------------------
// Batching-horizon queries (the loop batcher's safety boundary; see
// docs/performance.md, "Loop batching").
// ------------------------------------------------------------------

TEST(EventQueue, NextForeignTickSkipsOwnPriority)
{
    EventQueue eq(6);
    eq.wake(10, 3);
    eq.wake(20, 5);
    EXPECT_EQ(eq.nextForeignTick(3), 20u);
    EXPECT_EQ(eq.nextForeignTick(5), 10u);
    EXPECT_EQ(eq.next(), 3);
    eq.wake(30, 3);
    EXPECT_EQ(eq.nextForeignTick(3), 20u);
    EXPECT_EQ(eq.next(), 5);
    // Every pending wake belongs to the queried actor: no horizon.
    EXPECT_EQ(eq.nextForeignTick(3), EventQueue::no_tick);
}

TEST(EventQueue, NextForeignTickSeesBoundaryExactEvent)
{
    // A foreign wake at exactly the would-be window boundary must be
    // reported, not jumped over: the batcher compares against the
    // boundary tick with <=, so an off-by-one here would let a batch
    // swallow a same-tick wakeup.
    EventQueue eq(2);
    eq.wake(100, 1);
    EXPECT_EQ(eq.nextForeignTick(0), 100u);
}

TEST(EventQueue, HorizonPinCapsNextForeignTick)
{
    EventQueue eq(3);
    eq.wake(100, 1);
    EXPECT_EQ(eq.horizonPin(), EventQueue::no_tick);
    eq.pinHorizon(25);
    EXPECT_EQ(eq.horizonPin(), 25u);
    // The pin is earlier than any pending foreign wake and wins.
    EXPECT_EQ(eq.nextForeignTick(0), 25u);
    // A pending wake earlier than the pin still wins over it.
    eq.wake(7, 2);
    EXPECT_EQ(eq.nextForeignTick(0), 7u);
    eq.clearHorizonPin();
    EXPECT_EQ(eq.horizonPin(), EventQueue::no_tick);
    EXPECT_EQ(eq.nextForeignTick(0), 7u);
    // With nothing pending, the pin alone forms the horizon.
    eq.pinHorizon(9);
    drain(eq, [](int) {});
    EXPECT_EQ(eq.nextForeignTick(0), 9u);
}

TEST(EventQueue, ResetClearsHorizonPin)
{
    EventQueue eq(1);
    eq.pinHorizon(123);
    eq.reset(1);
    EXPECT_EQ(eq.horizonPin(), EventQueue::no_tick);
    EXPECT_EQ(eq.nextForeignTick(0), EventQueue::no_tick);
}

TEST(EventQueue, EarliestPendingPerPriorityTracksEachActor)
{
    EventQueue eq(4);
    std::vector<Tick> floors(3);

    eq.earliestPendingPerPriority(floors);
    for (Tick t : floors)
        EXPECT_EQ(t, EventQueue::no_tick);

    eq.wake(10, 0);
    eq.wake(5, 1);
    // Actor 2 has nothing pending; actor 3 is outside the caller's
    // window and must be ignored, not written out of range.
    eq.wake(1, 3);
    EXPECT_EQ(eq.next(), 3);
    eq.wake(2, 3);
    EXPECT_EQ(eq.next(), 3);
    eq.wake(20, 3);
    EXPECT_EQ(eq.next(), 1);
    eq.wake(20, 1);

    eq.earliestPendingPerPriority(floors);
    EXPECT_EQ(floors[0], 10u);
    EXPECT_EQ(floors[1], 20u);
    EXPECT_EQ(floors[2], EventQueue::no_tick);

    // A window wider than the bound actors reads no_tick past them.
    std::vector<Tick> wide(6, 0);
    eq.earliestPendingPerPriority(wide);
    EXPECT_EQ(wide, (std::vector<Tick>{10, 20, EventQueue::no_tick, 20,
                                       EventQueue::no_tick,
                                       EventQueue::no_tick}));
}

TEST(EventQueue, ShiftPendingPreservesOrderAndRelativeGaps)
{
    EventQueue eq(8);
    std::vector<std::pair<int, Tick>> seen;
    eq.wake(10, 1);
    eq.wake(25, 3);
    // Same tick, distinct actors: order within the tick must survive
    // the shift (the packed key makes it a monotone transform).
    eq.wake(10, 7);

    eq.shiftPending(1000);
    drain(eq, [&](int a) { seen.emplace_back(a, eq.now()); });
    const std::vector<std::pair<int, Tick>> want{
        {1, 1010}, {7, 1010}, {3, 1025}};
    EXPECT_EQ(seen, want);
}

TEST(EventQueue, EncodePendingIsCanonicalAcrossInsertionHistory)
{
    // Two queues holding the same logical pending set -- built in
    // different wake orders, one after popping an extra -- must
    // encode identically relative to their bases.
    EventQueue a(10);
    EventQueue b(10);
    a.wake(10, 1);
    a.wake(20, 2);
    a.wake(30, 3);

    b.wake(30, 3);
    b.wake(5, 9);
    b.wake(10, 1);
    b.wake(20, 2);
    EXPECT_EQ(b.next(), 9);

    std::vector<std::uint64_t> enc_a;
    std::vector<std::uint64_t> enc_b;
    a.encodePending(0, enc_a);
    b.encodePending(0, enc_b);
    EXPECT_EQ(enc_a, enc_b);
    EXPECT_EQ(enc_a, (std::vector<std::uint64_t>{3, 10, 1, 20, 2, 30, 3}));

    // A uniformly shifted set encodes identically against the
    // shifted base: this is what makes equal fingerprints imply a
    // periodic window.
    b.shiftPending(500);
    enc_b.clear();
    b.encodePending(500, enc_b);
    EXPECT_EQ(enc_a, enc_b);
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue eq(1000);
    Tick last = 0;
    bool monotonic = true;
    for (int i = 1000; i >= 1; --i)
        eq.wake(static_cast<Tick>(i), i - 1);
    drain(eq, [&](int a) {
        if (eq.now() < last || eq.now() != static_cast<Tick>(a + 1))
            monotonic = false;
        last = eq.now();
    });
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(eq.executed(), 1000u);
}

// ------------------------------------------------------------------
// The per-tick wheel: ticks in the 4,096-tick block of now() are
// filed by their low 12 bits, farther ones in radix buckets.
// ------------------------------------------------------------------

TEST(EventQueue, WheelRunsAcrossBlockBoundaries)
{
    EventQueue eq(8);
    std::vector<std::pair<int, Tick>> seen;
    eq.wake(4097, 5);
    eq.wake(4094, 1);
    eq.wake(8192, 7);
    eq.wake(4096, 4);
    eq.wake(4095, 2);
    eq.wake(4096, 3);
    eq.wake(8191, 6);
    drain(eq, [&](int a) { seen.emplace_back(a, eq.now()); });
    const std::vector<std::pair<int, Tick>> want{
        {1, 4094}, {2, 4095}, {3, 4096}, {4, 4096},
        {5, 4097}, {6, 8191}, {7, 8192}};
    EXPECT_EQ(seen, want);
}

TEST(EventQueue, WheelSlotKeepsTheBlockOfTheLastRefill)
{
    // After running into a later block, a wheel slot's tick is that
    // block's base plus the slot index, not the index alone.
    EventQueue eq(3);
    std::vector<Tick> seen;
    eq.wake(3 * 4096 + 10, 0);
    drain(eq, [&](int a) {
        seen.push_back(eq.now());
        if (a == 0) {
            eq.wake(eq.now() + 5, 1);
            eq.wake(eq.now() + 2, 2);
        }
    });
    EXPECT_EQ(seen, (std::vector<Tick>{3 * 4096 + 10, 3 * 4096 + 12,
                                       3 * 4096 + 15}));
    EXPECT_EQ(eq.now(), 3u * 4096 + 15);
}

TEST(EventQueue, WheelTicksRunBeforeRadixTicks)
{
    // 5000 shares no 4,096-tick block with the base 0, 100 does: the
    // wheel's tick must run first even though it was queued later.
    EventQueue eq(2);
    std::vector<Tick> seen;
    eq.wake(5000, 0);
    eq.wake(100, 1);
    EXPECT_EQ(eq.earliestPending(), 100u);
    drain(eq, [&](int a) {
        if (a == 1 && eq.now() == 100)
            eq.wake(4095, 1);
        seen.push_back(eq.now());
    });
    EXPECT_EQ(seen, (std::vector<Tick>{100, 4095, 5000}));
}

TEST(EventQueue, WheelRunUntilInsideTheSpan)
{
    // Popping stops inside the wheel span; wakes filed afterwards
    // between now() and the next pending tick still run in order.
    EventQueue eq(6);
    std::vector<Tick> seen;
    const auto note = [&](int) { seen.push_back(eq.now()); };
    eq.wake(100, 0);
    eq.wake(3000, 1);
    eq.wake(4200, 2);
    runUntil(eq, 2000, note);
    EXPECT_EQ(eq.now(), 100u);
    EXPECT_EQ(eq.executed(), 1u);
    eq.wake(2500, 3);
    eq.wake(2000, 4);
    runUntil(eq, 4096, note);
    EXPECT_EQ(seen, (std::vector<Tick>{100, 2000, 2500, 3000}));
    EXPECT_EQ(eq.earliestPending(), 4200u);
    eq.wake(4100, 5);
    drain(eq, note);
    EXPECT_EQ(seen,
              (std::vector<Tick>{100, 2000, 2500, 3000, 4100, 4200}));
}

TEST(EventQueue, WheelShiftMovesRecordsIntoRadixBuckets)
{
    EventQueue eq(4);
    std::vector<std::pair<int, Tick>> seen;
    eq.wake(10, 0);
    eq.wake(4000, 1);
    eq.wake(4090, 2);
    eq.wake(9000, 3);
    const std::uint64_t before = eq.relinked();
    // 4000 and 4090 leave the base's block; 10 stays in it.
    eq.shiftPending(100);
    EXPECT_EQ(eq.relinked() - before, 4u) << "every pending record moves";
    EXPECT_EQ(eq.earliestPending(), 110u);
    std::vector<Tick> floors(1);
    eq.earliestPendingPerPriority(floors);
    EXPECT_EQ(floors[0], 110u);
    drain(eq, [&](int a) { seen.emplace_back(a, eq.now()); });
    const std::vector<std::pair<int, Tick>> want{
        {0, 110}, {1, 4100}, {2, 4190}, {3, 9100}};
    EXPECT_EQ(seen, want);
}

TEST(EventQueue, WheelEventsAreNeverRelinked)
{
    // A wake filed within the wheel span of the base stays in its
    // slot until its tick becomes current; only far wakes move.
    constexpr int chain = 0;
    EventQueue eq(64);
    std::uint64_t chained = 0;
    eq.wake(4096 * 6 - 1000, chain);
    int background = 1;
    for (Tick t = 1; t < 4096; t += 97)
        eq.wake(t, background++);
    drain(eq, [&](int a) {
        if (a != chain)
            return;
        // One far wake: a single refill walk filed it.
        if (chained == 0) {
            EXPECT_EQ(eq.relinked(), 1u);
        }
        // Gaps of 1..3 cross blocks only at boundaries, where the
        // successor lands in a radix bucket.
        if (++chained < 1000)
            eq.wake(eq.now() + 1 + chained % 3, chain);
    });
    EXPECT_EQ(chained, 1000u);
    // 1,000 chained steps over about 2,000 ticks from 23,576 cross
    // the 24,576 boundary once: that one successor moves, nothing
    // else does.
    EXPECT_EQ(eq.relinked(), 2u);
}

/**
 * Seeded hold model: 200 actors each re-wake themselves after a gap
 * drawn from the simulators' mix (same tick, short, block-crossing
 * and far), until 20,000 wakes have been re-filed.
 */
std::uint64_t
holdModelRelinks(EventQueue &eq)
{
    constexpr int actors = 200;
    Pcg32 rng(2024, 7);
    std::uint64_t budget = 20000;
    const auto gap = [&rng]() -> Tick {
        const std::uint32_t pick = rng.below(100);
        if (pick < 6)
            return 0;
        if (pick < 54)
            return 1 + rng.below(511);
        if (pick < 79)
            return 512 + rng.below(7680);
        return 8192 + rng.below(1 << 21);
    };
    eq.reset(actors);
    for (int a = 0; a < actors; ++a)
        eq.wake(eq.now() + gap(), a);
    drain(eq, [&](int a) {
        if (budget == 0)
            return;
        --budget;
        eq.wake(eq.now() + gap(), a);
    });
    return eq.relinked();
}

TEST(EventQueue, RelinkedPinsTheSeededHoldModel)
{
    // An exact work gate: the number of records refills moved is a
    // deterministic function of the traffic, so any change to the
    // queue's filing shows here without a wall-clock threshold.
    EventQueue eq;
    const std::uint64_t relinks = holdModelRelinks(eq);
    EXPECT_EQ(eq.executed(), 20200u);
    EXPECT_EQ(relinks, 25058u);

    // reset() keeps the lifetime count and a reused queue repeats it.
    eq.reset(0);
    EXPECT_EQ(eq.relinked(), relinks);
    EXPECT_EQ(holdModelRelinks(eq), 2 * relinks);
}

// ------------------------------------------------------------------
// Differential check: seeded random operation streams against a
// reference ordered set keyed (tick, actor, wake order).
// ------------------------------------------------------------------

/**
 * Drives one EventQueue and a reference model through the same
 * random operations, and after every step -- each popped wake and
 * each operation between pops -- compares the pop order, pending
 * count and every pending-set query. A popped actor wakes actors at
 * the current tick below and above itself and later, and shifts the
 * pending set, the way the machines and the loop batcher do. Each
 * actor has at most one wake pending: a wake drawn for a busy actor
 * goes to the next idle one.
 */
class QueueDifferential
{
  public:
    explicit QueueDifferential(std::uint64_t seed)
        : eq_(actors), rng_(seed, seed), wake_at_(actors, EventQueue::no_tick)
    {
    }

    void
    runStream(int ops)
    {
        for (int op = 0; op < ops && !::testing::Test::HasFailure();
             ++op) {
            const std::uint32_t pick = rng_.below(100);
            if (pick < 40) {
                wakeAt(eq_.now() + delta(), actor());
            } else if (pick < 55) {
                shift();
            } else if (pick < 70) {
                runUntilThenFill();
            } else if (pick < 85) {
                budget_ = rng_.below(200);
                drain(eq_, [this](int a) { fire(a); });
                EXPECT_TRUE(ref_.empty());
            } else if (pick < 89) {
                pin();
            } else if (pick < 93) {
                reset();
            } else {
                for (int i = 0; i < 32; ++i)
                    wakeAt(eq_.now() + delta(), actor());
            }
            check();
        }
        budget_ = 0;
        drain(eq_, [this](int a) { fire(a); });
        EXPECT_TRUE(ref_.empty());
        check();
    }

  private:
    /** (tick, actor, wake order). */
    using Key = std::tuple<Tick, int, std::uint64_t>;

    /** Bound actors; the per-actor floors are checked through a
     * narrower and a wider window. */
    static constexpr int actors = 48;
    static constexpr int narrow_window = 32;
    static constexpr int wide_window = 56;
    static constexpr Tick wheel_span = 4096;
    static constexpr Tick tick_limit = Tick{1} << 40;

    std::uint64_t
    wide(unsigned bits)
    {
        const std::uint64_t v =
            static_cast<std::uint64_t>(rng_()) << 32 | rng_();
        return bits >= 64 ? v : v & ((std::uint64_t{1} << bits) - 1);
    }

    /** Gap mix: same tick, short, long, a few ticks either side of a
     * wheel block boundary, and rare huge jumps up to 2^39, kept
     * inside the packed 40-bit tick range. */
    Tick
    delta()
    {
        const std::uint32_t pick = rng_.below(100);
        Tick d;
        if (pick < 15)
            d = 0;
        else if (pick < 50)
            d = wide(4);
        else if (pick < 70)
            d = wide(12);
        else if (pick < 85)
            d = toBoundary(8);
        else if (pick < 97)
            d = wide(21);
        else
            d = wide(39);
        return maxTick() + d < tick_limit / 2 ? d : wide(4);
    }

    /** Gap to a tick within @p spread of the next (or, one time in
     * four, the one after) multiple of the wheel's 4,096 ticks, on
     * either side of it, but never before now. */
    Tick
    toBoundary(std::uint32_t spread)
    {
        const Tick now = eq_.now();
        const Tick boundary =
            (now | (wheel_span - 1)) + 1 +
            (rng_.below(4) == 0 ? wheel_span : 0);
        const Tick target = boundary - spread + rng_.below(2 * spread);
        return target > now ? target - now : 0;
    }

    int actor() { return static_cast<int>(rng_.below(actors)); }

    Tick
    maxTick() const
    {
        return ref_.empty() ? eq_.now() : std::get<0>(*ref_.rbegin());
    }

    /** Wake @p want at @p when, or the next idle actor after it;
     * nothing when every actor is busy or @p want is out of range. */
    void
    wakeAt(Tick when, int want)
    {
        if (want < 0 || want >= actors)
            return;
        for (int i = 0; i < actors; ++i) {
            const int a = (want + i) % actors;
            if (wake_at_[a] != EventQueue::no_tick)
                continue;
            eq_.wake(when, a);
            ref_.insert(Key{when, a, next_seq_++});
            wake_at_[a] = when;
            return;
        }
    }

    /** One popped wake: it must be the reference's first, at the
     * reference's tick; then the actor may act. */
    void
    fire(int a)
    {
        ASSERT_FALSE(ref_.empty());
        const Key first = *ref_.begin();
        ASSERT_EQ(std::get<1>(first), a) << "out of order";
        EXPECT_EQ(eq_.now(), std::get<0>(first));
        ref_.erase(ref_.begin());
        wake_at_[a] = EventQueue::no_tick;
        check();
        if (budget_ == 0)
            return;
        --budget_;
        const std::uint32_t acts = rng_.below(3);
        for (std::uint32_t i = 0; i < acts; ++i) {
            const std::uint32_t pick = rng_.below(100);
            if (pick < 25) {
                // Same tick, below the running actor: it still runs
                // next, ahead of already-queued peers.
                wakeAt(eq_.now(), a - 1 - static_cast<int>(rng_.below(2)));
            } else if (pick < 40) {
                wakeAt(eq_.now(), a + static_cast<int>(rng_.below(3)));
            } else if (pick < 88) {
                wakeAt(eq_.now() + delta(), actor());
            } else {
                shift();
            }
            check();
        }
    }

    /** Shift mix: short, long, and just far enough to carry the
     * earliest records out of the current wheel block. */
    void
    shift()
    {
        const std::uint32_t pick = rng_.below(4);
        Tick d = pick == 0   ? wide(30)
                 : pick == 1 ? toBoundary(4) + 1
                             : wide(10);
        if (maxTick() + d >= tick_limit / 2)
            d = 1;
        eq_.shiftPending(d);
        std::set<Key> shifted;
        for (Key k : ref_) {
            std::get<0>(k) += d;
            wake_at_[std::get<1>(k)] = std::get<0>(k);
            shifted.insert(k);
        }
        ref_ = std::move(shifted);
    }

    /** Pop through a limit, then wake into [limit, next pending): the
     * queue must not have advanced its base past the last pop. */
    void
    runUntilThenFill()
    {
        // Limits short, long, or anywhere up to the end of now's
        // wheel block.
        const std::uint32_t pick = rng_.below(3);
        const Tick limit =
            eq_.now() +
            (pick == 0   ? wide(6)
             : pick == 1 ? wide(14)
                         : rng_.below(static_cast<std::uint32_t>(
                               wheel_span - (eq_.now() & (wheel_span - 1)))));
        budget_ = rng_.below(100);
        runUntil(eq_, limit, [this](int a) { fire(a); });
        EXPECT_LE(eq_.now(), limit);
        if (!ref_.empty()) {
            EXPECT_GT(std::get<0>(*ref_.begin()), limit);
        }
        check();
        const Tick next =
            ref_.empty() ? limit + 64 : std::get<0>(*ref_.begin());
        const std::uint32_t n = rng_.below(4);
        for (std::uint32_t i = 0; i < n; ++i) {
            wakeAt(limit + rng_.below(static_cast<std::uint32_t>(
                               std::min<Tick>(next - limit, 1 << 20))),
                   actor());
        }
    }

    void
    pin()
    {
        if (rng_.below(2) == 0) {
            pin_ = eq_.now() + wide(12);
            eq_.pinHorizon(pin_);
        } else {
            pin_ = EventQueue::no_tick;
            eq_.clearHorizonPin();
        }
    }

    void
    reset()
    {
        eq_.reset(actors);
        ref_.clear();
        std::fill(wake_at_.begin(), wake_at_.end(), EventQueue::no_tick);
        pin_ = EventQueue::no_tick;
        EXPECT_EQ(eq_.now(), 0u);
    }

    /** Compare every pending-set query with the reference. */
    void
    check()
    {
        ASSERT_EQ(eq_.pending(), ref_.size());
        EXPECT_EQ(eq_.empty(), ref_.empty());
        EXPECT_EQ(eq_.earliestPending(),
                  ref_.empty() ? EventQueue::no_tick
                               : std::get<0>(*ref_.begin()));

        for (const int window : {narrow_window, wide_window}) {
            std::vector<Tick> floors(static_cast<std::size_t>(window));
            eq_.earliestPendingPerPriority(floors);
            std::vector<Tick> want(static_cast<std::size_t>(window),
                                   EventQueue::no_tick);
            for (int a = 0; a < std::min(window, actors); ++a)
                want[static_cast<std::size_t>(a)] = wake_at_[a];
            EXPECT_EQ(floors, want);
        }

        const int own = actor();
        Tick foreign = pin_;
        for (const Key &k : ref_) {
            if (std::get<1>(k) != own)
                foreign = std::min(foreign, std::get<0>(k));
        }
        EXPECT_EQ(eq_.nextForeignTick(own), foreign);

        const Tick base = eq_.now();
        std::vector<std::uint64_t> enc;
        eq_.encodePending(base, enc);
        std::vector<std::uint64_t> ref_enc{ref_.size()};
        for (const Key &k : ref_) {
            ref_enc.push_back(std::get<0>(k) - base);
            ref_enc.push_back(static_cast<std::uint64_t>(std::get<1>(k)));
        }
        EXPECT_EQ(enc, ref_enc);
    }

    EventQueue eq_;
    Pcg32 rng_;
    std::set<Key> ref_;
    std::vector<Tick> wake_at_; ///< each actor's pending tick
    std::uint64_t next_seq_ = 0;
    std::uint32_t budget_ = 0; ///< popped wakes that may still act
    Tick pin_ = EventQueue::no_tick;
};

TEST(EventQueueDifferential, MatchesOrderedMultisetReference)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE(seed);
        QueueDifferential(seed).runStream(400);
        if (::testing::Test::HasFailure())
            break;
    }
}

} // namespace
} // namespace syncperf::sim
