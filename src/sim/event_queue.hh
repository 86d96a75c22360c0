/**
 * @file
 * Deterministic discrete-event queue of actor wake-ups.
 *
 * Every event a simulated machine schedules is "actor a resumes at
 * tick t", where an actor is a CPU thread or a GPU warp, and each
 * actor has at most one wake pending at a time. So the queue stores
 * no callbacks: it holds one 16-byte ordering record per actor, bound
 * by reset(), and next() hands the machine's loop the next actor due.
 * The machine keeps what that actor does next in its own state.
 *
 * Wakes for the same tick come out in actor order. Under the
 * one-wake invariant (tick, actor) is unique among pending records,
 * so this is the total order (tick, priority, schedule order) of a
 * general event queue whose priorities are the actor indices: the
 * schedule order never has a tie left to break. Every simulation in
 * this repository is therefore reproducible bit-for-bit regardless
 * of container internals. Steady-state wake()/next() cycles on a
 * reused queue perform zero heap allocations.
 *
 * Ordering resolves the 40-bit tick in two tiers, both exploiting
 * that simulated time never runs backwards. An event in the same
 * aligned 4,096-tick block as now() goes into an exact per-tick
 * wheel: one list per tick, found through a two-level occupancy
 * bitmap, so it is filed once and never moves again. A farther event
 * goes into a radix heap bucket (Ahuja, Mehlhorn, Orlin & Tarjan,
 * 1990) named by the highest bit in which its tick differs from
 * now(). A pop that runs out of current-tick events takes the
 * wheel's lowest tick whole; only when the wheel is empty does it
 * take the lowest radix bucket, whose minimum it already knows, and
 * redistribute it in one walk into the current tick, the wheel and
 * lower buckets. Every list is threaded through the per-actor
 * records, so the queue's memory is the record table plus the fixed
 * wheel, whatever the tick spread.
 */

#ifndef SYNCPERF_SIM_EVENT_QUEUE_HH
#define SYNCPERF_SIM_EVENT_QUEUE_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace syncperf::sim
{

/**
 * Monotone wake-up queue (a per-tick wheel under radix heap levels)
 * with stable same-tick ordering by actor.
 *
 * Not thread safe: each simulated machine owns one queue and runs it
 * from a single host thread.
 */
class EventQueue
{
  public:
    /** next()'s answer when nothing is pending. */
    static constexpr int none = -1;

    /** Sentinel tick: no pending foreign event / no horizon pin. */
    static constexpr Tick no_tick = ~Tick{0};

    /** encodePending()'s word for an actor with no wake pending: no
     * offset of a 40-bit tick from another reaches it. */
    static constexpr std::uint64_t idle_word = std::uint64_t{1} << 63;

    /** Actor indices fill the packed key's low 24 bits; the all-ones
     * index stays unused, so no pending key equals idle_key. */
    static constexpr std::size_t max_actors = (std::size_t{1} << 24) - 1;

    /** A queue bound to actors [0, @p actors), at time 0. */
    explicit EventQueue(std::size_t actors = 0);

    /**
     * Wake @p actor at absolute tick @p when.
     *
     * Panics when @p when is before now(), when @p actor is outside
     * the bound range, or when @p actor already has a wake pending.
     */
    void wake(Tick when, int actor);

    /**
     * Pop the next due wake, in (tick, actor) order, and advance
     * now() to its tick.
     *
     * @return The actor to resume, or none when nothing is pending
     *         (now() then stays at the last wake's tick).
     */
    int
    next()
    {
        if (live_ == 0)
            return none;
        if (current_.empty())
            advance();
        const std::uint32_t actor = current_.back();
        current_.pop_back();
        nodes_[actor].key = idle_key;
        --live_;
        ++executed_;
        return static_cast<int>(actor);
    }

    /** Current simulated time: the tick of the last wake popped. */
    Tick now() const { return now_; }

    /** Pending wake count. */
    std::size_t pending() const { return live_; }

    /** True when no wake is pending. */
    bool empty() const { return live_ == 0; }

    /** Total number of wakes popped over the queue's lifetime. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Total number of records that refills and shiftPending() moved
     * over the queue's lifetime: every record of a radix bucket a
     * refill walks, and every record a shift re-files. A wake filed
     * into the wheel or the current tick is never counted, and
     * neither is a wheel tick becoming the current one.
     * Deterministic, so it pins the queue's ordering work exactly.
     */
    std::uint64_t relinked() const { return relinked_; }

    /** High-water pending() mark since construction or reset(). */
    std::size_t maxPending() const { return max_pending_; }

    /**
     * Tick of the earliest pending wake, or no_tick when the queue
     * is empty: the current tick while it holds wakes, then the
     * wheel's lowest tick, then the lowest bucket's minimum -- every
     * wheel tick precedes every bucketed one, and every tick in a
     * lower bucket precedes every tick in a higher one.
     */
    Tick earliestPending() const;

    /**
     * For each actor a in [0, out.size()), set out[a] to the tick of
     * a's pending wake, or no_tick when a has none (or is outside the
     * bound range). An actor's next wake is the liveness floor for
     * its actor-local time stamps, which only its later ops can read.
     */
    void earliestPendingPerPriority(std::vector<Tick> &out) const;

    /**
     * Append a canonical encoding of the pending set to @p out: the
     * pending count, then one word per bound actor, in actor order:
     * its wake's offset when - base, or idle_word when it has none.
     * Two queues with equal encodings against their respective bases
     * pop the same wake pattern at the same offsets, whatever their
     * internal bucket layout or wake history.
     */
    void encodePending(Tick base, std::vector<std::uint64_t> &out) const;

    /**
     * Add @p delta to the tick of every pending wake. Relative order
     * is untouched -- the packed key makes this a monotone transform
     * -- so this is how the loop batcher advances a whole
     * steady-state window in O(pending). Wheel slots and bucket
     * indices depend on absolute ticks, so every record is re-filed.
     */
    void shiftPending(Tick delta);

    /**
     * Pin the batching horizon at @p when: the loop batcher treats
     * the pin as an opaque foreign event and never jumps a window
     * past it. Hook for fault-injection points and tests; cleared by
     * clearHorizonPin() and reset().
     */
    void pinHorizon(Tick when) { horizon_pin_ = when; }

    /** Remove the horizon pin. */
    void clearHorizonPin() { horizon_pin_ = no_tick; }

    /** Current horizon pin, or no_tick when unpinned. */
    Tick horizonPin() const { return horizon_pin_; }

    /**
     * Return the queue to its initial state (time 0, nothing
     * pending, no pin) bound to actors [0, @p actors), keeping
     * allocated capacity so a reused machine wakes into warm
     * buffers. executed() and relinked() are lifetime counts and
     * survive.
     */
    void reset(std::size_t actors);

  private:
    /** Bits of the packed key below the tick; wake() asserts ticks
     * fit the 40 above (2^40 cycles is minutes of simulated time at
     * GPU clocks -- orders of magnitude beyond any run). */
    static constexpr unsigned when_shift = 24;

    /** First tick past the packed 40-bit range. */
    static constexpr Tick tick_limit = Tick{1} << (64 - when_shift);

    /** Key of an actor with no wake pending: above every real key. */
    static constexpr std::uint64_t idle_key = ~std::uint64_t{0};

    /** Low tick bits the wheel resolves: 4,096 ticks, the most a
     * two-level 64 x 64 occupancy bitmap covers. */
    static constexpr unsigned wheel_bits = 12;
    static constexpr std::size_t wheel_size = 1 << wheel_bits;
    static constexpr Tick wheel_mask = wheel_size - 1;

    /** Radix buckets: bucket b in (wheel_bits, 40] holds ticks whose
     * highest bit differing from now_ is bit b - 1. Lower indices
     * are unused: the current tick is current_, the rest the wheel. */
    static constexpr unsigned bucket_count = 65 - when_shift;

    /** End of a wheel or bucket list. */
    static constexpr std::uint32_t no_actor = ~std::uint32_t{0};

    /**
     * Ordering record of one actor.
     *
     * key = tick : 40 | actor : 24 -- one compare orders by (tick,
     * actor), the total pop order -- or idle_key while the actor has
     * no wake pending. next links the record into its wheel slot's or
     * bucket's list.
     */
    struct Node
    {
        std::uint64_t key = idle_key;
        std::uint32_t next = no_actor;

        Tick when() const { return key >> when_shift; }
    };

    /** One radix bucket; the defaults are the empty state. */
    struct Bucket
    {
        /** Smallest key held: the refill base. */
        std::uint64_t min_key = ~std::uint64_t{0};
        std::uint32_t head = no_actor; ///< first actor of the list
    };

    /** File @p actor's record under current_, the wheel or the bucket
     * of its tick relative to now_ (requires its tick >= now_). */
    void place(std::uint32_t actor);

    /** Refill the empty current_ from the wheel's lowest tick, or,
     * with the wheel empty, from the lowest non-empty bucket,
     * advancing now_ to the tick taken. Requires a pending wake. */
    void advance();

    /** Index of the wheel's lowest occupied slot. Requires a
     * non-empty wheel. */
    std::size_t
    lowestWheelSlot() const
    {
        const auto word = std::countr_zero(wheel_summary_);
        return static_cast<std::size_t>(word) << 6 |
               static_cast<std::size_t>(
                   std::countr_zero(wheel_occupied_[word]));
    }

    /** Tick of wheel slot @p idx: wheel records share now_'s block. */
    Tick
    wheelTick(std::size_t idx) const
    {
        return (now_ & ~wheel_mask) | idx;
    }

    /** Call @p fn(idx) for every occupied wheel slot in tick order. */
    template <typename Fn>
    void
    forEachWheelSlot(Fn &&fn) const
    {
        for (std::uint64_t sm = wheel_summary_; sm != 0; sm &= sm - 1) {
            const auto word = std::countr_zero(sm);
            for (std::uint64_t m = wheel_occupied_[word]; m != 0;
                 m &= m - 1) {
                fn(static_cast<std::size_t>(word) << 6 |
                   static_cast<std::size_t>(std::countr_zero(m)));
            }
        }
    }

    /** Empty the wheel, handing @p fn(head) each occupied slot's
     * list first. Touches only the occupied slots and words. */
    template <typename Fn>
    void
    takeWheel(Fn &&fn)
    {
        forEachWheelSlot([&](std::size_t idx) {
            fn(wheel_[idx]);
            wheel_[idx] = no_actor;
        });
        for (; wheel_summary_ != 0; wheel_summary_ &= wheel_summary_ - 1)
            wheel_occupied_[std::countr_zero(wheel_summary_)] = 0;
    }

    std::vector<Node> nodes_; ///< ordering records, by actor
    /** The current tick: the actors due at now_, in descending
     * order, so the back runs next. They share the tick, so actor
     * order is key order. */
    std::vector<std::uint32_t> current_;
    /** List heads of the wheel: slot i holds the records due at
     * tick (now_'s block) + i. An empty slot's head is no_actor. */
    std::array<std::uint32_t, wheel_size> wheel_;
    /** Bit i % 64 of word i / 64 set iff wheel slot i is occupied. */
    std::array<std::uint64_t, wheel_size / 64> wheel_occupied_{};
    std::uint64_t wheel_summary_ = 0; ///< bit w set iff word w != 0
    /** [0, wheel_bits] unused. */
    std::array<Bucket, bucket_count> buckets_{};
    std::uint64_t mask_ = 0; ///< bit b set iff bucket b is non-empty
    /** Every pending record is at or after now_; wheel slots and
     * bucket indices are relative to it. */
    Tick now_ = 0;
    std::size_t live_ = 0;
    std::size_t max_pending_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t relinked_ = 0;
    Tick horizon_pin_ = no_tick;
};

} // namespace syncperf::sim

#endif // SYNCPERF_SIM_EVENT_QUEUE_HH
