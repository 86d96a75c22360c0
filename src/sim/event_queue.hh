/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events scheduled for the same tick execute in (priority, insertion
 * order), which makes every simulation in this repository
 * reproducible bit-for-bit regardless of container internals.
 *
 * The queue is the innermost loop of every simulated machine, so the
 * hot path is allocation-free: callbacks live in a small-buffer slot
 * in a dense free-listed side table (heap fallback only for
 * oversized captures), so the table stays as small as the peak
 * number of in-flight events rather than growing with every event
 * ever scheduled; cancellation is a lazy tombstone in the slot
 * rather than a hash set. Steady-state schedule()/run() cycles on a
 * reused queue perform zero heap allocations per event.
 *
 * Ordering resolves the 40-bit tick in two tiers, both exploiting
 * that simulated time never runs backwards. Let last_ be the tick of
 * the last refill. An event in the same aligned 4,096-tick block as
 * last_ goes into an exact per-tick wheel: one list per tick, found
 * through a two-level occupancy bitmap, so it is filed once and never
 * moves again. A farther event goes into a radix heap bucket (Ahuja,
 * Mehlhorn, Orlin & Tarjan, 1990) named by the highest bit in which
 * its tick differs from last_. A pop that runs out of current-tick
 * events takes the wheel's lowest tick whole; only when the wheel is
 * empty does it take the lowest radix bucket, whose minimum it
 * already knows, and redistribute it in one walk into the current
 * tick, the wheel and lower buckets. Every list is threaded through
 * a per-slot side array, so the queue's memory is bounded by the slot
 * table plus the fixed wheel, whatever the tick spread.
 *
 * Handles are generation-tagged slot references: executing,
 * cancelling, or reset() bumps the slot's generation, which
 * invalidates every outstanding handle to it. Execution order is
 * the total order (tick, priority, schedule call order) -- unique
 * per event -- so it is independent of bucket layout and of slot
 * reuse, and results stay reproducible bit-for-bit.
 */

#ifndef SYNCPERF_SIM_EVENT_QUEUE_HH
#define SYNCPERF_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <array>
#include <bit>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace syncperf::sim
{

/** Handle identifying a scheduled event for cancellation. */
using EventId = std::uint64_t;

/**
 * Type-erased nullary callback with a small-buffer slot.
 *
 * Callables up to @ref inline_size bytes (and nothrow-movable) are
 * stored inline; larger ones fall back to a single heap allocation.
 * Move-only; supports move-only callables.
 */
class EventCallback
{
  public:
    /** Inline storage: fits every machine callback in this repo
     * (two-pointer lambdas, std::function). */
    static constexpr std::size_t inline_size = 48;

    EventCallback() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventCallback>>>
    EventCallback(F &&fn) // NOLINT(google-explicit-constructor)
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (buf_) Fn(std::forward<F>(fn));
            ops_ = &inline_ops<Fn>;
        } else {
            *reinterpret_cast<Fn **>(buf_) =
                new Fn(std::forward<F>(fn));
            ops_ = &boxed_ops<Fn>;
        }
    }

    EventCallback(EventCallback &&other) noexcept { moveFrom(other); }

    EventCallback &
    operator=(EventCallback &&other) noexcept
    {
        if (this != &other) {
            destroy();
            moveFrom(other);
        }
        return *this;
    }

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { destroy(); }

    void operator()() { ops_->invoke(buf_); }

    explicit operator bool() const { return ops_ != nullptr; }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /** Move-construct into @p dst from @p src, destroying src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= inline_size &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    template <typename Fn>
    static constexpr Ops inline_ops = {
        [](void *p) { (*static_cast<Fn *>(p))(); },
        [](void *dst, void *src) noexcept {
            auto *from = static_cast<Fn *>(src);
            ::new (dst) Fn(std::move(*from));
            from->~Fn();
        },
        [](void *p) noexcept { static_cast<Fn *>(p)->~Fn(); },
    };

    template <typename Fn>
    static constexpr Ops boxed_ops = {
        [](void *p) { (**static_cast<Fn **>(p))(); },
        [](void *dst, void *src) noexcept {
            *static_cast<Fn **>(dst) = *static_cast<Fn **>(src);
        },
        [](void *p) noexcept { delete *static_cast<Fn **>(p); },
    };

    void
    moveFrom(EventCallback &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_ != nullptr) {
            ops_->relocate(buf_, other.buf_);
            other.ops_ = nullptr;
        }
    }

    void
    destroy() noexcept
    {
        if (ops_ != nullptr) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[inline_size];
    const Ops *ops_ = nullptr;
};

/**
 * Monotone event queue (a per-tick wheel under radix heap levels)
 * with stable same-tick ordering.
 *
 * Not thread safe: each simulated machine owns one queue and runs it
 * from a single host thread.
 */
class EventQueue
{
  public:
    /** Default event priority; lower runs first within a tick. */
    static constexpr int default_priority = 0;

    EventQueue();

    /**
     * Schedule @p cb to run at absolute time @p when.
     *
     * @param when Absolute tick; must be >= now().
     * @param cb Action to execute (any nullary callable, including
     *           move-only ones).
     * @param priority Tie-break within a tick; lower runs first.
     * @return Handle usable with deschedule().
     */
    EventId schedule(Tick when, EventCallback cb,
                     int priority = default_priority);

    /** Schedule relative to the current time. */
    EventId
    scheduleIn(Tick delay, EventCallback cb,
               int priority = default_priority)
    {
        return schedule(now_ + delay, std::move(cb), priority);
    }

    /**
     * Cancel a pending event.
     *
     * @return true if the event was pending and is now cancelled.
     */
    bool deschedule(EventId id);

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Pending (non-cancelled) event count. */
    std::size_t pending() const { return live_; }

    /** True when no live events remain. */
    bool empty() const { return live_ == 0; }

    /**
     * Run events until the queue drains.
     *
     * @return The tick of the last executed event (or now() if none).
     */
    Tick run();

    /**
     * Run events with time <= @p limit; stops with now() == limit if
     * events remain beyond it.
     */
    Tick runUntil(Tick limit);

    /** Total number of events executed over the queue's lifetime. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Total number of records that refills and shiftPending() moved
     * over the queue's lifetime: every record of a radix bucket a
     * refill walks, and every record a shift re-files. An event filed
     * into the wheel or the current tick is never counted, and neither
     * is a wheel tick becoming the current one. Deterministic, so it
     * pins the queue's ordering work exactly.
     */
    std::uint64_t relinked() const { return relinked_; }

    /** High-water pending() mark since construction or reset(). */
    std::size_t maxPending() const { return max_pending_; }

    /** Sentinel tick: no pending foreign event / no horizon pin. */
    static constexpr Tick no_tick = ~Tick{0};

    /**
     * Tick of the earliest pending (non-cancelled) event, or no_tick
     * when the queue is empty. Scans the current tick's events, then
     * the wheel's ticks in order, then the lowest bucket holding a
     * live event: every wheel tick precedes every bucketed one, and
     * every tick in a lower bucket precedes every tick in a higher
     * one.
     */
    Tick earliestPending() const;

    /**
     * For each priority p in [0, out.size()), set out[p] to the tick
     * of p's earliest pending (non-cancelled) event, or no_tick when
     * p has none scheduled. Priorities outside the range are
     * ignored. Linear in the pending set (a batching-boundary query,
     * not a hot-path one). The machines use actor indices as
     * priorities, so this yields each actor's next wake-up -- the
     * liveness floor for actor-local time stamps, which only that
     * actor's later ops can read.
     */
    void earliestPendingPerPriority(std::vector<Tick> &out) const;

    /**
     * Earliest pending (non-cancelled) event whose priority differs
     * from @p priority, or the horizon pin when that is earlier;
     * no_tick when neither exists. Linear in the pending set (it is
     * a batching-boundary query, not a hot-path one). Tombstoned
     * events never count: a cancelled event can land nowhere.
     */
    Tick nextForeignTick(int priority) const;

    /**
     * Append a canonical encoding of the pending set to @p out: the
     * live count, then a (when - base, biased priority) pair per
     * event in execution order. Cancelled tombstones are skipped.
     * Two queues with equal encodings against their respective bases
     * execute the same event pattern at the same offsets, whatever
     * their internal bucket layout or schedule-sequence numbers.
     */
    void encodePending(Tick base, std::vector<std::uint64_t> &out) const;

    /**
     * Add @p delta to the tick of every pending event (tombstones
     * included; they are inert either way). Relative order is
     * untouched -- the packed key makes this a monotone transform --
     * so this is how the loop batcher advances a whole steady-state
     * window in O(pending). Wheel slots and bucket indices depend on
     * absolute ticks, so every event is re-filed.
     */
    void shiftPending(Tick delta);

    /**
     * Pin the batching horizon at @p when: nextForeignTick() never
     * reports a tick past the pin, so no batch window can jump
     * across it. Hook for fault-injection points and tests; cleared
     * by clearHorizonPin() and reset().
     */
    void pinHorizon(Tick when) { horizon_pin_ = when; }

    /** Remove the horizon pin. */
    void clearHorizonPin() { horizon_pin_ = no_tick; }

    /** Current horizon pin, or no_tick when unpinned. */
    Tick horizonPin() const { return horizon_pin_; }

    /**
     * Return the queue to its initial state (time 0, nothing
     * pending) while keeping allocated capacity, so a reused machine
     * schedules into warm buffers. Every outstanding handle is
     * invalidated: deschedule() on one returns false, like executed
     * ones.
     */
    void reset();

    /**
     * Number of callback slots currently in use (test hook). Zero
     * whenever the queue drains, so repeated run() cycles on one
     * queue cannot accumulate stale bookkeeping.
     */
    std::size_t idWindow() const { return slots_.size() - free_.size(); }

  private:
    /** Lifecycle of an allocated slot. */
    enum class SlotState : unsigned char
    {
        Pending,
        Cancelled, ///< tombstone: freed when its record pops
    };

    /** Priority bias: int priorities in [-2^23, 2^23) map onto the
     * unsigned 24-bit field of the packed ordering key (the machines
     * use warp/thread indices as priorities, and a big reduction
     * grid holds far more than 2^16 warps). */
    static constexpr std::uint64_t priority_bias = 1ULL << 23;

    /** Bits of the packed key below the tick; schedule() asserts
     * ticks fit the 40 above (2^40 cycles is minutes of simulated
     * time at GPU clocks -- orders of magnitude beyond any run). */
    static constexpr unsigned when_shift = 24;

    /** First tick past the packed 40-bit range. */
    static constexpr Tick tick_limit = Tick{1} << (64 - when_shift);

    /** Low tick bits the wheel resolves: 4,096 ticks, the most a
     * two-level 64 x 64 occupancy bitmap covers. */
    static constexpr unsigned wheel_bits = 12;
    static constexpr std::size_t wheel_size = 1 << wheel_bits;
    static constexpr Tick wheel_mask = wheel_size - 1;

    /** Radix buckets: bucket b in (wheel_bits, 40] holds ticks whose
     * highest bit differing from last_ is bit b - 1. Lower indices
     * are unused: the current tick is current_, the rest the wheel. */
    static constexpr unsigned bucket_count = 65 - when_shift;

    /** End of a wheel or bucket list. */
    static constexpr std::uint32_t no_slot = ~std::uint32_t{0};

    /**
     * Ordering record of one slot, kept beside the slot table so
     * bucket walks touch 16 bytes per event and never the callbacks.
     *
     * key = tick : 40 | biased priority : 24 -- one compare orders by
     * (tick, priority). seq breaks remaining ties by schedule call
     * order, compared circularly (see before()), so the 32-bit
     * counter never wraps incorrectly while fewer than 2^31 events
     * coexist. next links the slot into its bucket's list.
     */
    struct Node
    {
        std::uint64_t key;
        std::uint32_t seq;
        std::uint32_t next;

        Tick when() const { return key >> when_shift; }
    };

    /** True when @p a executes before @p b: the total order
     * (tick, priority, schedule order), unique per event. */
    static bool
    before(const Node &a, const Node &b)
    {
        if (a.key != b.key)
            return a.key < b.key;
        // Circular 32-bit comparison of the schedule seqs: exact as
        // long as coexisting events span < 2^31 schedule calls.
        return static_cast<std::int32_t>(a.seq - b.seq) < 0;
    }

    /** One radix bucket; the defaults are the empty state. */
    struct Bucket
    {
        /** Smallest key held, tombstones included: the refill base. */
        std::uint64_t min_key = ~std::uint64_t{0};
        std::uint32_t head = no_slot; ///< first slot of the list
    };

    /** Callback plus handle-validation state for one slot. */
    struct Slot
    {
        EventCallback action;
        std::uint32_t gen = 0;
        SlotState state = SlotState::Pending;
    };

    /** Sort order of current_: slots that run later come first, so
     * the back runs next. */
    auto
    laterFirst() const
    {
        return [this](std::uint32_t a, std::uint32_t b) {
            return before(nodes_[b], nodes_[a]);
        };
    }

    /** File @p slot under current_, the wheel or the bucket of its
     * tick relative to last_ (requires its tick >= last_). */
    void place(std::uint32_t slot);

    /** Refill the empty current_ from the wheel's lowest tick, or,
     * with the wheel empty, from the lowest non-empty bucket,
     * advancing last_ to the tick taken. */
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

    /** Tick of wheel slot @p idx: wheel records share last_'s block. */
    Tick
    wheelTick(std::size_t idx) const
    {
        return (last_ & ~wheel_mask) | idx;
    }

    /** Earliest tick held, tombstones included, without moving
     * last_. Requires a non-empty queue. */
    Tick
    peekTick() const
    {
        if (!current_.empty())
            return last_;
        if (wheel_summary_ != 0)
            return wheelTick(lowestWheelSlot());
        return buckets_[std::countr_zero(mask_)].min_key >> when_shift;
    }

    /** True when no record (live or tombstone) is held. */
    bool
    drained() const
    {
        return current_.empty() && wheel_summary_ == 0 && mask_ == 0;
    }

    /** Call @p fn(idx) for every occupied wheel slot in tick order;
     * stop early when @p fn returns true. */
    template <typename Fn>
    void
    forEachWheelSlot(Fn &&fn) const
    {
        for (std::uint64_t sm = wheel_summary_; sm != 0; sm &= sm - 1) {
            const auto word = std::countr_zero(sm);
            for (std::uint64_t m = wheel_occupied_[word]; m != 0;
                 m &= m - 1) {
                if (fn(static_cast<std::size_t>(word) << 6 |
                       static_cast<std::size_t>(std::countr_zero(m))))
                    return;
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
            wheel_[idx] = no_slot;
            return false;
        });
        for (; wheel_summary_ != 0; wheel_summary_ &= wheel_summary_ - 1)
            wheel_occupied_[std::countr_zero(wheel_summary_)] = 0;
    }

    /** Call @p fn(slot) for every held record, tombstones included,
     * in no particular order. */
    template <typename Fn>
    void
    forEachHeld(Fn &&fn) const
    {
        for (std::uint32_t s : current_)
            fn(s);
        forEachWheelSlot([&](std::size_t idx) {
            for (std::uint32_t s = wheel_[idx]; s != no_slot;
                 s = nodes_[s].next) {
                fn(s);
            }
            return false;
        });
        for (std::uint64_t m = mask_; m != 0; m &= m - 1) {
            for (std::uint32_t s = buckets_[std::countr_zero(m)].head;
                 s != no_slot; s = nodes_[s].next) {
                fn(s);
            }
        }
    }

    /** Return @p slot to the free list and kill its handles. */
    void
    freeSlot(std::uint32_t slot)
    {
        ++slots_[slot].gen;
        free_.push_back(slot);
    }

    void executeOne();

    std::vector<Slot> slots_;
    std::vector<Node> nodes_;         ///< ordering records, by slot
    std::vector<std::uint32_t> free_; ///< reusable slot indices
    /** The current tick: the slots due at tick last_, sorted by
     * (priority, schedule order) from the back, which runs next. */
    std::vector<std::uint32_t> current_;
    /** List heads of the wheel: slot i holds the records due at
     * tick (last_'s block) + i. An empty slot's head is no_slot. */
    std::array<std::uint32_t, wheel_size> wheel_;
    /** Bit i % 64 of word i / 64 set iff wheel slot i is occupied. */
    std::array<std::uint64_t, wheel_size / 64> wheel_occupied_{};
    std::uint64_t wheel_summary_ = 0; ///< bit w set iff word w != 0
    /** [0, wheel_bits] unused. */
    std::array<Bucket, bucket_count> buckets_{};
    std::uint64_t mask_ = 0; ///< bit b set iff bucket b is non-empty
    /** Tick of the last refill: every held record is at or after
     * it, and it never exceeds now_ while a callback can run. */
    Tick last_ = 0;
    std::uint32_t next_seq_ = 0; ///< schedule-order tie-break
    Tick now_ = 0;
    std::size_t live_ = 0;
    std::size_t max_pending_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t relinked_ = 0;
    Tick horizon_pin_ = no_tick;
    /** Reused sort buffer of encodePending(). */
    mutable std::vector<Node> order_scratch_;
};

} // namespace syncperf::sim

#endif // SYNCPERF_SIM_EVENT_QUEUE_HH
