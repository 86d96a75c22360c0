/**
 * @file
 * Unit tests for the wake-up queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
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
    // The pending count, then one word per bound actor: its offset,
    // or idle_word while it has no wake pending.
    constexpr std::uint64_t idle = EventQueue::idle_word;
    EXPECT_EQ(enc_a, (std::vector<std::uint64_t>{3, idle, 10, 20, 30, idle,
                                                 idle, idle, idle, idle,
                                                 idle}));

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
// Tick edges of the retired per-tick wheel, which filed ticks in the
// 4,096-tick block of now() by their low 12 bits and farther ones in
// radix buckets: block boundaries stay ordering regressions.
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
    // 4000 and 4090 leave the base's block; 10 stays in it.
    eq.shiftPending(100);
    EXPECT_EQ(eq.earliestPending(), 110u);
    std::vector<Tick> floors(1);
    eq.earliestPendingPerPriority(floors);
    EXPECT_EQ(floors[0], 110u);
    drain(eq, [&](int a) { seen.emplace_back(a, eq.now()); });
    const std::vector<std::pair<int, Tick>> want{
        {0, 110}, {1, 4100}, {2, 4190}, {3, 9100}};
    EXPECT_EQ(seen, want);
}

/**
 * Seeded hold model: @p actors actors each re-wake themselves after a
 * gap drawn from the simulators' mix (same tick, short, block-crossing
 * and far), until 20,000 wakes have been re-filed. Returns the FNV-1a
 * digest of every popped (tick, actor), in pop order.
 */
std::uint64_t
holdModelPopOrder(EventQueue &eq, int actors)
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
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    const auto fold = [&digest](std::uint64_t word) {
        for (int byte = 0; byte < 8; ++byte, word >>= 8) {
            digest ^= word & 0xff;
            digest *= 0x100000001b3ULL;
        }
    };
    eq.reset(static_cast<std::size_t>(actors));
    for (int a = 0; a < actors; ++a)
        eq.wake(eq.now() + gap(), a);
    drain(eq, [&](int a) {
        fold(eq.now());
        fold(static_cast<std::uint64_t>(a));
        if (budget == 0)
            return;
        --budget;
        eq.wake(eq.now() + gap(), a);
    });
    return digest;
}

TEST(EventQueue, SeededHoldModelPopOrder)
{
    // An exact order gate: the digest of the popped (tick, actor)
    // sequence is a deterministic function of the traffic, so any
    // change to the pop order fails here without a reference model.
    // 2,560 actors is the widest launch of the RTX 2070 Super sweep
    // (80 blocks of 1,024 threads).
    struct Case
    {
        int actors;
        std::uint64_t digest;
    };
    EventQueue eq;
    std::uint64_t executed = 0;
    for (const Case c : {Case{200, 0xa5ad0d9d5643fb54ULL},
                         Case{3, 0x6436593ed935ee8bULL},
                         Case{2560, 0x81cf89a907680e8eULL}}) {
        SCOPED_TRACE(c.actors);
        EXPECT_EQ(holdModelPopOrder(eq, c.actors), c.digest);
        executed += 20000 + static_cast<std::uint64_t>(c.actors);
        EXPECT_EQ(eq.executed(), executed);
    }
    // A reused queue repeats the order.
    EXPECT_EQ(holdModelPopOrder(eq, 200), 0xa5ad0d9d5643fb54ULL);
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
 * goes to the next idle one. The queue starts bound to @p actors, and
 * each reset() rebinds it to a count drawn from actor_counts.
 */
class QueueDifferential
{
  public:
    /** Bound actor counts: one actor, a few, counts either side of a
     * power of two, and the RTX 2070 Super sweep's widest launch. */
    static constexpr std::array<int, 8> actor_counts{1,  2,  3,  47,
                                                     48, 64, 65, 2560};

    QueueDifferential(std::uint64_t seed, int actors)
        : eq_(static_cast<std::size_t>(actors)), rng_(seed, seed),
          actors_(actors), wake_at_(static_cast<std::size_t>(actors),
                                    EventQueue::no_tick)
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
        check(true);
    }

  private:
    /** (tick, actor, wake order). */
    using Key = std::tuple<Tick, int, std::uint64_t>;

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
    actor()
    {
        return static_cast<int>(
            rng_.below(static_cast<std::uint32_t>(actors_)));
    }

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
        if (want < 0 || want >= actors_)
            return;
        for (int i = 0; i < actors_; ++i) {
            const int a = (want + i) % actors_;
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
    reset()
    {
        actors_ = actor_counts[rng_.below(actor_counts.size())];
        eq_.reset(static_cast<std::size_t>(actors_));
        ref_.clear();
        wake_at_.assign(static_cast<std::size_t>(actors_),
                        EventQueue::no_tick);
        EXPECT_EQ(eq_.now(), 0u);
    }

    /** Compare every pending-set query with the reference; @p scan
     * forces the per-actor ones. */
    void
    check(bool scan = false)
    {
        ASSERT_EQ(eq_.pending(), ref_.size());
        EXPECT_EQ(eq_.empty(), ref_.empty());
        EXPECT_EQ(eq_.earliestPending(),
                  ref_.empty() ? EventQueue::no_tick
                               : std::get<0>(*ref_.begin()));

        // The per-actor queries cost O(actors): a wide count scans on
        // every (actors / 64)-th step only, so each step costs about
        // what a 64-actor scan does.
        if (++steps_ % std::max(1, actors_ / 64) != 0 && !scan)
            return;

        // Per-actor floors through a narrower and a wider window than
        // the bound actors.
        for (const int window : {actors_ * 2 / 3, actors_ + 8}) {
            const auto bound = std::min(wake_at_.size(),
                                        static_cast<std::size_t>(window));
            floors_.resize(static_cast<std::size_t>(window));
            eq_.earliestPendingPerPriority(floors_);
            want_.assign(wake_at_.begin(),
                         wake_at_.begin() +
                             static_cast<std::ptrdiff_t>(bound));
            want_.resize(static_cast<std::size_t>(window),
                         EventQueue::no_tick);
            EXPECT_EQ(floors_, want_);
        }

        const Tick base = eq_.now();
        enc_.clear();
        eq_.encodePending(base, enc_);
        ref_enc_.assign(1, ref_.size());
        for (const Tick when : wake_at_) {
            ref_enc_.push_back(when == EventQueue::no_tick
                                   ? EventQueue::idle_word
                                   : when - base);
        }
        EXPECT_EQ(enc_, ref_enc_);
    }

    EventQueue eq_;
    Pcg32 rng_;
    int actors_; ///< bound actor count
    std::set<Key> ref_;
    std::vector<Tick> wake_at_; ///< each actor's pending tick
    /** check()'s buffers, reused so a wide count costs no allocation
     * per step. */
    std::vector<Tick> floors_, want_;
    std::vector<std::uint64_t> enc_, ref_enc_;
    std::uint64_t next_seq_ = 0;
    std::uint32_t budget_ = 0; ///< popped wakes that may still act
    int steps_ = 0;            ///< check() calls
};

TEST(EventQueueDifferential, MatchesOrderedMultisetReference)
{
    // Each seed starts at one of the counts in turn, so every count
    // runs eight streams whatever the resets draw.
    constexpr auto &counts = QueueDifferential::actor_counts;
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        const int actors = counts[seed % counts.size()];
        SCOPED_TRACE(::testing::Message() << "seed " << seed << ", "
                                          << actors << " actors");
        QueueDifferential(seed, actors).runStream(400);
        if (::testing::Test::HasFailure())
            break;
    }
}

} // namespace
} // namespace syncperf::sim
