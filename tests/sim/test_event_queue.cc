/**
 * @file
 * Unit tests for the discrete-event queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
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
            } else if (pick < 90) {
                pin();
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
    static constexpr Tick tick_limit = Tick{1} << 40;

    std::uint64_t
    wide(unsigned bits)
    {
        const std::uint64_t v =
            static_cast<std::uint64_t>(rng_()) << 32 | rng_();
        return bits >= 64 ? v : v & ((std::uint64_t{1} << bits) - 1);
    }

    /** Gap mix: same tick, short, long, and rare huge jumps up to
     * 2^39, kept inside the packed 40-bit tick range. */
    Tick
    delta()
    {
        const std::uint32_t pick = rng_.below(100);
        Tick d;
        if (pick < 15)
            d = 0;
        else if (pick < 60)
            d = wide(4);
        else if (pick < 85)
            d = wide(12);
        else if (pick < 97)
            d = wide(21);
        else
            d = wide(39);
        return maxTick() + d < tick_limit / 2 ? d : wide(4);
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

    void
    shift()
    {
        Tick d = rng_.below(4) == 0 ? wide(30) : wide(10);
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
        const Tick limit = eq_.now() + wide(rng_.below(2) ? 6 : 14);
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
