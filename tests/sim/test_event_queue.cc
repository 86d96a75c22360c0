/**
 * @file
 * Unit tests for the discrete-event queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/event_queue.hh"

namespace syncperf::sim
{
namespace
{

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickOrderedByPriorityThenInsertion)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(1); }, 1);
    eq.schedule(5, [&] { order.push_back(0); }, 0);
    eq.schedule(5, [&] { order.push_back(2); }, 1);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(10, [&] {
        eq.scheduleIn(5, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 15u);
}

TEST(EventQueue, DescheduleCancels)
{
    EventQueue eq;
    bool ran = false;
    const EventId id = eq.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(eq.deschedule(id));
    eq.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, DoubleDescheduleIsNoop)
{
    EventQueue eq;
    const EventId id = eq.schedule(10, [] {});
    EXPECT_TRUE(eq.deschedule(id));
    EXPECT_FALSE(eq.deschedule(id));
}

TEST(EventQueue, DescheduleUnknownIdReturnsFalse)
{
    EventQueue eq;
    EXPECT_FALSE(eq.deschedule(12345));
}

TEST(EventQueue, DescheduleExecutedEventReturnsFalse)
{
    EventQueue eq;
    const EventId id = eq.schedule(1, [] {});
    eq.run();
    EXPECT_FALSE(eq.deschedule(id));
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    std::vector<Tick> seen;
    eq.schedule(10, [&] { seen.push_back(10); });
    eq.schedule(20, [&] { seen.push_back(20); });
    eq.runUntil(15);
    EXPECT_EQ(seen, (std::vector<Tick>{10}));
    EXPECT_EQ(eq.now(), 15u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(seen, (std::vector<Tick>{10, 20}));
}

TEST(EventQueue, EventsMaySpawnEvents)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 5)
            eq.scheduleIn(1, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.now(), 4u);
    EXPECT_EQ(eq.executed(), 5u);
}

TEST(EventQueue, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    ScopedLogCapture capture;
    EXPECT_THROW(eq.schedule(5, [] {}), LogDeathException);
}

TEST(EventQueue, PendingCountsLiveEvents)
{
    EventQueue eq;
    eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, MoveOnlyCallbacksAreSupported)
{
    EventQueue eq;
    int seen = 0;
    auto payload = std::make_unique<int>(41);
    eq.schedule(3, [&seen, p = std::move(payload)] { seen = *p + 1; });
    eq.run();
    EXPECT_EQ(seen, 42);
}

TEST(EventQueue, LargeCapturesFallBackToTheHeap)
{
    EventQueue eq;
    std::array<std::uint64_t, 16> big{};
    big.fill(7);
    std::uint64_t sum = 0;
    eq.schedule(1, [big, &sum] {
        for (auto v : big)
            sum += v;
    });
    eq.run();
    EXPECT_EQ(sum, 112u);
}

TEST(EventQueue, IdWindowIsTrimmedWhenDrained)
{
    // A reused machine runs many schedule/run cycles on one queue;
    // the cancellation bookkeeping must not accumulate across them.
    EventQueue eq;
    for (int cycle = 0; cycle < 100; ++cycle) {
        std::vector<EventId> ids;
        for (int i = 0; i < 10; ++i)
            ids.push_back(eq.scheduleIn(static_cast<Tick>(i), [] {}));
        eq.deschedule(ids[3]);
        eq.run();
        EXPECT_EQ(eq.idWindow(), 0u);
        EXPECT_EQ(eq.pending(), 0u);
        // Handles from a drained cycle are dead, even fresh ones.
        EXPECT_FALSE(eq.deschedule(ids.back()));
    }
    EXPECT_EQ(eq.executed(), 100u * 9u);
}

TEST(EventQueue, ResetRestoresInitialStateButKillsOldHandles)
{
    EventQueue eq;
    const EventId stale = eq.schedule(10, [] {});
    eq.schedule(20, [] {});
    eq.runUntil(12);
    eq.reset();
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.idWindow(), 0u);
    EXPECT_FALSE(eq.deschedule(stale));

    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(1); });
    eq.schedule(1, [&] { order.push_back(0); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, CancelledEntriesDoNotBlockDraining)
{
    EventQueue eq;
    bool ran = false;
    std::vector<EventId> ids;
    for (int i = 0; i < 8; ++i)
        ids.push_back(eq.schedule(static_cast<Tick>(100 + i), [] {}));
    eq.schedule(50, [&] { ran = true; });
    for (EventId id : ids)
        EXPECT_TRUE(eq.deschedule(id));
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_TRUE(ran);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.idWindow(), 0u);
    EXPECT_EQ(eq.executed(), 1u);
}

// ------------------------------------------------------------------
// Batching-horizon queries (the loop batcher's safety boundary; see
// docs/performance.md, "Loop batching").
// ------------------------------------------------------------------

TEST(EventQueue, NextForeignTickSkipsOwnPriority)
{
    EventQueue eq;
    eq.schedule(10, [] {}, /*priority=*/3);
    eq.schedule(20, [] {}, /*priority=*/5);
    eq.schedule(30, [] {}, /*priority=*/3);
    EXPECT_EQ(eq.nextForeignTick(3), 20u);
    EXPECT_EQ(eq.nextForeignTick(5), 10u);
    // Every pending event belongs to the queried actor: no horizon.
    EXPECT_EQ(eq.nextForeignTick(3), 20u);
    eq.runUntil(21);
    EXPECT_EQ(eq.nextForeignTick(3), EventQueue::no_tick);
}

TEST(EventQueue, NextForeignTickSeesBoundaryExactEvent)
{
    // A foreign event at exactly the would-be window boundary must
    // be reported, not jumped over: the batcher compares against
    // the boundary tick with <=, so an off-by-one here would let a
    // batch swallow a same-tick wakeup.
    EventQueue eq;
    eq.schedule(100, [] {}, 1);
    EXPECT_EQ(eq.nextForeignTick(0), 100u);
}

TEST(EventQueue, NextForeignTickIgnoresTombstones)
{
    EventQueue eq;
    const EventId doomed = eq.schedule(10, [] {}, 1);
    eq.schedule(40, [] {}, 2);
    EXPECT_EQ(eq.nextForeignTick(0), 10u);
    EXPECT_TRUE(eq.deschedule(doomed));
    // The cancelled event lands nowhere, so it cannot bound a batch.
    EXPECT_EQ(eq.nextForeignTick(0), 40u);
    eq.schedule(5, [] {}, 0);
    EXPECT_EQ(eq.nextForeignTick(0), 40u); // own priority still skipped
}

TEST(EventQueue, HorizonPinCapsNextForeignTick)
{
    EventQueue eq;
    eq.schedule(100, [] {}, 1);
    EXPECT_EQ(eq.horizonPin(), EventQueue::no_tick);
    eq.pinHorizon(25);
    EXPECT_EQ(eq.horizonPin(), 25u);
    // The pin is earlier than any pending foreign event and wins.
    EXPECT_EQ(eq.nextForeignTick(0), 25u);
    // A pending event earlier than the pin still wins over it.
    eq.schedule(7, [] {}, 2);
    EXPECT_EQ(eq.nextForeignTick(0), 7u);
    eq.clearHorizonPin();
    EXPECT_EQ(eq.horizonPin(), EventQueue::no_tick);
    EXPECT_EQ(eq.nextForeignTick(0), 7u);
    // With nothing pending, the pin alone forms the horizon.
    eq.pinHorizon(9);
    eq.run();
    EXPECT_EQ(eq.nextForeignTick(0), 9u);
}

TEST(EventQueue, ResetClearsHorizonPin)
{
    EventQueue eq;
    eq.pinHorizon(123);
    eq.reset();
    EXPECT_EQ(eq.horizonPin(), EventQueue::no_tick);
    EXPECT_EQ(eq.nextForeignTick(0), EventQueue::no_tick);
}

TEST(EventQueue, EarliestPendingResolvesCancelledRoot)
{
    EventQueue eq;
    EXPECT_EQ(eq.earliestPending(), EventQueue::no_tick);
    const EventId root = eq.schedule(10, [] {});
    eq.schedule(30, [] {});
    eq.schedule(20, [] {});
    EXPECT_EQ(eq.earliestPending(), 10u);
    // Cancelling the heap root leaves a tombstone in place; the
    // query must scan past it to the earliest live event.
    EXPECT_TRUE(eq.deschedule(root));
    EXPECT_EQ(eq.earliestPending(), 20u);
}

TEST(EventQueue, EarliestPendingPerPriorityTracksEachActor)
{
    EventQueue eq;
    std::vector<Tick> floors(3);

    eq.earliestPendingPerPriority(floors);
    for (Tick t : floors)
        EXPECT_EQ(t, EventQueue::no_tick);

    eq.schedule(40, [] {}, 0);
    eq.schedule(10, [] {}, 0);
    const EventId doomed = eq.schedule(5, [] {}, 1);
    eq.schedule(20, [] {}, 1);
    // Priority 2 has nothing scheduled; priority 7 is outside the
    // caller's window and must be ignored, not written out of range.
    eq.schedule(1, [] {}, 7);
    EXPECT_TRUE(eq.deschedule(doomed));

    eq.earliestPendingPerPriority(floors);
    EXPECT_EQ(floors[0], 10u);
    // The cancelled tick-5 tombstone must not count as pending.
    EXPECT_EQ(floors[1], 20u);
    EXPECT_EQ(floors[2], EventQueue::no_tick);
}

TEST(EventQueue, ShiftPendingPreservesOrderAndRelativeGaps)
{
    EventQueue eq;
    std::vector<std::pair<int, Tick>> seen;
    eq.schedule(10, [&] { seen.emplace_back(1, eq.now()); });
    eq.schedule(25, [&] { seen.emplace_back(3, eq.now()); });
    // Same tick, distinct priorities: order within the tick must
    // survive the shift (the packed key makes it a monotone
    // transform).
    eq.schedule(10, [&] { seen.emplace_back(2, eq.now()); }, 7);
    const EventId doomed = eq.schedule(15, [&] { seen.emplace_back(9, 0); });
    EXPECT_TRUE(eq.deschedule(doomed));

    eq.shiftPending(1000);
    eq.run();
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0], (std::pair<int, Tick>{1, 1010u}));
    EXPECT_EQ(seen[1], (std::pair<int, Tick>{2, 1010u}));
    EXPECT_EQ(seen[2], (std::pair<int, Tick>{3, 1025u}));
}

TEST(EventQueue, EncodePendingIsCanonicalAcrossInsertionHistory)
{
    // Two queues holding the same logical pending set -- built in
    // different insertion orders, one with a cancelled extra -- must
    // encode identically relative to their bases.
    EventQueue a;
    EventQueue b;
    a.schedule(10, [] {}, 1);
    a.schedule(20, [] {}, 2);
    a.schedule(30, [] {}, 1);

    b.schedule(30, [] {}, 1);
    const EventId extra = b.schedule(15, [] {}, 9);
    b.schedule(10, [] {}, 1);
    b.schedule(20, [] {}, 2);
    EXPECT_TRUE(b.deschedule(extra));

    std::vector<std::uint64_t> enc_a;
    std::vector<std::uint64_t> enc_b;
    a.encodePending(0, enc_a);
    b.encodePending(0, enc_b);
    EXPECT_EQ(enc_a, enc_b);

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
    EventQueue eq;
    Tick last = 0;
    bool monotonic = true;
    for (int i = 1000; i >= 1; --i) {
        eq.schedule(static_cast<Tick>(i), [&, i] {
            if (static_cast<Tick>(i) < last)
                monotonic = false;
            last = static_cast<Tick>(i);
        });
    }
    eq.run();
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(eq.executed(), 1000u);
}

// ------------------------------------------------------------------
// The per-tick wheel: ticks in the 4,096-tick block of the last
// refill are filed by their low 12 bits, farther ones in radix
// buckets.
// ------------------------------------------------------------------

TEST(EventQueue, WheelRunsAcrossBlockBoundaries)
{
    EventQueue eq;
    std::vector<std::pair<int, Tick>> seen;
    const auto at = [&](Tick when, int tag, int prio = 0) {
        eq.schedule(when, [&, tag] { seen.emplace_back(tag, eq.now()); },
                    prio);
    };
    at(4097, 5);
    at(4094, 1);
    at(8192, 7);
    at(4096, 4, 1);
    at(4095, 2);
    at(4096, 3, 0);
    at(8191, 6);
    eq.run();
    const std::vector<std::pair<int, Tick>> want{
        {1, 4094}, {2, 4095}, {3, 4096}, {4, 4096},
        {5, 4097}, {6, 8191}, {7, 8192}};
    EXPECT_EQ(seen, want);
}

TEST(EventQueue, WheelSlotKeepsTheBlockOfTheLastRefill)
{
    // After running into a later block, a wheel slot's tick is that
    // block's base plus the slot index, not the index alone.
    EventQueue eq;
    std::vector<Tick> seen;
    eq.schedule(3 * 4096 + 10, [&] {
        seen.push_back(eq.now());
        eq.scheduleIn(5, [&] { seen.push_back(eq.now()); });
        eq.scheduleIn(2, [&] { seen.push_back(eq.now()); });
    });
    eq.run();
    EXPECT_EQ(seen, (std::vector<Tick>{3 * 4096 + 10, 3 * 4096 + 12,
                                       3 * 4096 + 15}));
    EXPECT_EQ(eq.now(), 3u * 4096 + 15);
}

TEST(EventQueue, WheelTicksRunBeforeRadixTicks)
{
    // 5000 shares no 4,096-tick block with the base 0, 100 does: the
    // wheel's tick must run first even though it was queued later.
    EventQueue eq;
    std::vector<Tick> seen;
    eq.schedule(5000, [&] { seen.push_back(eq.now()); });
    eq.schedule(100, [&] {
        seen.push_back(eq.now());
        eq.schedule(4095, [&] { seen.push_back(eq.now()); });
    });
    EXPECT_EQ(eq.earliestPending(), 100u);
    eq.run();
    EXPECT_EQ(seen, (std::vector<Tick>{100, 4095, 5000}));
}

TEST(EventQueue, WheelSlotOfTombstonesOnlyIsSkipped)
{
    EventQueue eq;
    std::vector<Tick> seen;
    const EventId a = eq.schedule(7, [&] { seen.push_back(7); });
    const EventId b = eq.schedule(7, [&] { seen.push_back(7); }, 3);
    eq.schedule(9, [&] { seen.push_back(eq.now()); });
    eq.schedule(6000, [&] { seen.push_back(eq.now()); });
    EXPECT_TRUE(eq.deschedule(a));
    EXPECT_TRUE(eq.deschedule(b));
    EXPECT_EQ(eq.earliestPending(), 9u);
    EXPECT_EQ(eq.pending(), 2u);

    // The tombstone slot pops inside the limit; the base must not
    // pass the limit, so a later schedule at it still runs in order.
    eq.runUntil(8);
    EXPECT_EQ(eq.now(), 8u);
    EXPECT_TRUE(seen.empty());
    eq.schedule(8, [&] { seen.push_back(eq.now()); });
    eq.run();
    EXPECT_EQ(seen, (std::vector<Tick>{8, 9, 6000}));
    EXPECT_EQ(eq.idWindow(), 0u);
}

TEST(EventQueue, WheelRunUntilInsideTheSpan)
{
    EventQueue eq;
    std::vector<Tick> seen;
    const auto note = [&] { seen.push_back(eq.now()); };
    eq.schedule(100, note);
    eq.schedule(3000, note);
    eq.schedule(4200, note);
    eq.runUntil(2000);
    EXPECT_EQ(eq.now(), 2000u);
    EXPECT_EQ(eq.executed(), 1u);
    eq.schedule(2500, note);
    eq.schedule(2000, note);
    eq.runUntil(4096);
    EXPECT_EQ(seen, (std::vector<Tick>{100, 2000, 2500, 3000}));
    EXPECT_EQ(eq.earliestPending(), 4200u);
    eq.schedule(4100, note);
    eq.run();
    EXPECT_EQ(seen,
              (std::vector<Tick>{100, 2000, 2500, 3000, 4100, 4200}));
}

TEST(EventQueue, WheelShiftMovesRecordsIntoRadixBuckets)
{
    EventQueue eq;
    std::vector<std::pair<int, Tick>> seen;
    const auto at = [&](Tick when, int tag) {
        eq.schedule(when, [&, tag] { seen.emplace_back(tag, eq.now()); });
    };
    at(10, 1);
    at(4000, 2);
    at(4090, 3);
    at(9000, 4);
    const EventId doomed = eq.schedule(4095, [&] { seen.emplace_back(9, 0); });
    EXPECT_TRUE(eq.deschedule(doomed));
    const std::uint64_t before = eq.relinked();
    // 4000 and 4090 leave the base's block; 10 stays in it.
    eq.shiftPending(100);
    EXPECT_EQ(eq.relinked() - before, 5u) << "every held record moves";
    EXPECT_EQ(eq.earliestPending(), 110u);
    std::vector<Tick> floors(1);
    eq.earliestPendingPerPriority(floors);
    EXPECT_EQ(floors[0], 110u);
    eq.run();
    const std::vector<std::pair<int, Tick>> want{
        {1, 110}, {2, 4100}, {3, 4190}, {4, 9100}};
    EXPECT_EQ(seen, want);
}

TEST(EventQueue, WheelEventsAreNeverRelinked)
{
    // An event filed within the wheel span of the base stays in its
    // slot until its tick becomes current; only far events move.
    EventQueue eq;
    std::uint64_t chained = 0;
    std::function<void()> step = [&] {
        if (++chained < 1000)
            eq.scheduleIn(1 + chained % 3, step, 0);
    };
    eq.schedule(4096 * 6 - 1000, [&] {
        // One far event: a single refill walk files it.
        EXPECT_EQ(eq.relinked(), 1u);
        // Gaps of 1..3 cross blocks only at boundaries, where the
        // successor lands in a radix bucket.
        step();
    });
    for (Tick t = 1; t < 4096; t += 97)
        eq.schedule(t, [] {}, 2);
    eq.run();
    EXPECT_EQ(chained, 1000u);
    // 1,000 chained steps over about 2,000 ticks from 23,576 cross
    // the 24,576 boundary once: that one successor moves, nothing
    // else does.
    EXPECT_EQ(eq.relinked(), 2u);
}

/**
 * Seeded hold model: 200 actors each reschedule themselves after a gap
 * drawn from the simulators' mix (same tick, short, block-crossing
 * and far), until 20,000 events have run.
 */
std::uint64_t
holdModelRelinks(EventQueue &eq)
{
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
    std::function<void(int)> hold = [&](int actor) {
        if (budget == 0)
            return;
        --budget;
        eq.scheduleIn(gap(), [&hold, actor] { hold(actor); }, actor);
    };
    for (int a = 0; a < 200; ++a)
        eq.scheduleIn(gap(), [&hold, a] { hold(a); }, a);
    eq.run();
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
    eq.reset();
    EXPECT_EQ(eq.relinked(), relinks);
    EXPECT_EQ(holdModelRelinks(eq), 2 * relinks);
}

// ------------------------------------------------------------------
// Differential check: seeded random operation streams against a
// reference ordered multiset keyed (tick, priority, schedule order).
// ------------------------------------------------------------------

/**
 * Drives one EventQueue and a reference model through the same
 * random operations, and after every step -- each executed callback
 * and each operation between runs -- compares the execution order,
 * pending count and every pending-set query. Callbacks schedule at
 * the current tick above and below their own priority, cancel, and
 * shift the pending set, the way the machines and the loop batcher
 * do.
 */
class QueueDifferential
{
  public:
    explicit QueueDifferential(std::uint64_t seed) : rng_(seed, seed) {}

    void
    runStream(int ops)
    {
        for (int op = 0; op < ops && !::testing::Test::HasFailure();
             ++op) {
            const std::uint32_t pick = rng_.below(100);
            if (pick < 40) {
                scheduleAt(eq_.now() + delta(), priority());
            } else if (pick < 50) {
                cancelSome();
            } else if (pick < 60) {
                shift();
            } else if (pick < 75) {
                runUntilThenFill();
            } else if (pick < 85) {
                budget_ = rng_.below(200);
                eq_.run();
                EXPECT_TRUE(ref_.empty());
                // Handles of executed events are dead.
                if (!issued_.empty()) {
                    EXPECT_FALSE(eq_.deschedule(issued_.back()));
                }
            } else if (pick < 88) {
                pin();
            } else if (pick < 92) {
                tombstoneTick();
            } else if (pick < 95) {
                reset();
            } else {
                for (int i = 0; i < 32; ++i)
                    scheduleAt(eq_.now() + delta(), priority());
            }
            check();
        }
        budget_ = 0;
        eq_.run();
        EXPECT_TRUE(ref_.empty());
        check();
    }

  private:
    /** (tick, priority, schedule order); the order is also the
     * event's id. */
    using Key = std::tuple<Tick, int, std::uint64_t>;

    static constexpr int prio_window = 8;
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

    int
    priority()
    {
        return static_cast<int>(rng_.below(prio_window + 4)) - 2;
    }

    Tick
    maxTick() const
    {
        return ref_.empty() ? eq_.now() : std::get<0>(*ref_.rbegin());
    }

    void
    scheduleAt(Tick when, int prio)
    {
        const std::uint64_t id = next_id_++;
        const Key key{when, prio, id};
        const EventId handle =
            eq_.schedule(when, [this, id] { fire(id); }, prio);
        ref_.insert(key);
        by_id_[id] = {key, handle};
        issued_.push_back(handle);
    }

    /** One executed callback: it must be the reference's first
     * event, at the reference's tick; then it may act. */
    void
    fire(std::uint64_t id)
    {
        ASSERT_FALSE(ref_.empty());
        const Key first = *ref_.begin();
        ASSERT_EQ(std::get<2>(first), id) << "out of order";
        EXPECT_EQ(eq_.now(), std::get<0>(first));
        ref_.erase(ref_.begin());
        by_id_.erase(id);
        const int own = std::get<1>(first);
        check();
        if (budget_ == 0)
            return;
        --budget_;
        const std::uint32_t acts = rng_.below(3);
        for (std::uint32_t i = 0; i < acts; ++i) {
            const std::uint32_t pick = rng_.below(100);
            if (pick < 25) {
                // Same tick, below the running event's priority: it
                // still runs next, ahead of already-queued peers.
                scheduleAt(eq_.now(), own - 1 - static_cast<int>(
                                                     rng_.below(2)));
            } else if (pick < 40) {
                scheduleAt(eq_.now(), own + static_cast<int>(
                                                rng_.below(3)));
            } else if (pick < 80) {
                scheduleAt(eq_.now() + delta(), priority());
            } else if (pick < 90) {
                cancelSome();
            } else {
                shift();
            }
            check();
        }
    }

    /** Cancel a random issued handle; only pending ones succeed. */
    void
    cancelSome()
    {
        if (issued_.empty())
            return;
        const EventId handle = issued_[rng_.below(
            static_cast<std::uint32_t>(issued_.size()))];
        const auto live = std::find_if(
            by_id_.begin(), by_id_.end(),
            [handle](const auto &kv) { return kv.second.second == handle; });
        const bool expect = live != by_id_.end();
        EXPECT_EQ(eq_.deschedule(handle), expect);
        if (expect) {
            ref_.erase(live->second.first);
            by_id_.erase(live);
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
        for (auto &[id, entry] : by_id_) {
            std::get<0>(entry.first) += d;
            shifted.insert(entry.first);
        }
        ref_ = std::move(shifted);
    }

    /** runUntil(limit), then schedule into [limit, next pending):
     * the queue must not have advanced its base past limit. */
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
        eq_.runUntil(limit);
        EXPECT_EQ(eq_.now(), limit);
        if (!ref_.empty()) {
            EXPECT_GT(std::get<0>(*ref_.begin()), limit);
        }
        check();
        const Tick next =
            ref_.empty() ? limit + 64 : std::get<0>(*ref_.begin());
        const std::uint32_t n = rng_.below(4);
        for (std::uint32_t i = 0; i < n; ++i) {
            scheduleAt(limit + rng_.below(static_cast<std::uint32_t>(
                                   std::min<Tick>(next - limit, 1 << 20))),
                       priority());
        }
    }

    /** Schedule one to three events at a single near tick and
     * cancel them all: a wheel slot of tombstones only. */
    void
    tombstoneTick()
    {
        const Tick when = eq_.now() + 1 + wide(rng_.below(2) ? 4 : 11);
        const std::uint32_t n = 1 + rng_.below(3);
        for (std::uint32_t i = 0; i < n; ++i) {
            scheduleAt(when, priority());
            EXPECT_TRUE(eq_.deschedule(issued_.back()));
            const auto live = by_id_.find(next_id_ - 1);
            ref_.erase(live->second.first);
            by_id_.erase(live);
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
        eq_.reset();
        ref_.clear();
        by_id_.clear();
        pin_ = EventQueue::no_tick;
        // Every pre-reset handle is dead.
        for (std::size_t i = 0; i < issued_.size(); i += 7)
            EXPECT_FALSE(eq_.deschedule(issued_[i]));
        issued_.clear();
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

        std::vector<Tick> floors(prio_window);
        eq_.earliestPendingPerPriority(floors);
        std::vector<Tick> want(prio_window, EventQueue::no_tick);
        for (const Key &k : ref_) {
            const int p = std::get<1>(k);
            if (p >= 0 && p < prio_window)
                want[static_cast<std::size_t>(p)] = std::min(
                    want[static_cast<std::size_t>(p)], std::get<0>(k));
        }
        EXPECT_EQ(floors, want);

        const int own = priority();
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
            ref_enc.push_back(static_cast<std::uint64_t>(
                std::get<1>(k) + (1 << 23)));
        }
        EXPECT_EQ(enc, ref_enc);
    }

    EventQueue eq_;
    Pcg32 rng_;
    std::set<Key> ref_;
    std::map<std::uint64_t, std::pair<Key, EventId>> by_id_;
    std::vector<EventId> issued_;
    std::uint64_t next_id_ = 0;
    std::uint32_t budget_ = 0; ///< callbacks that may still act
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
