/**
 * @file
 * Deterministic discrete-event queue of actor wake-ups.
 *
 * Every event a simulated machine schedules is "actor a resumes at
 * tick t", where an actor is a CPU thread or a GPU warp, and each
 * actor has at most one wake pending at a time. So the queue stores
 * no callbacks: it holds one ordering key per actor, bound by
 * reset(), and next() hands the machine's loop the next actor due.
 * The machine keeps what that actor does next in its own state.
 *
 * Wakes for the same tick come out in actor order. Under the
 * one-wake invariant (tick, actor) is unique among pending keys, so
 * this is the total order (tick, priority, schedule order) of a
 * general event queue whose priorities are the actor indices: the
 * schedule order never has a tie left to break. Every simulation in
 * this repository is therefore reproducible bit-for-bit regardless
 * of container internals. Steady-state wake()/next() cycles on a
 * reused queue perform zero heap allocations.
 *
 * Ordering is a winner tree over the per-actor keys: a complete
 * binary tree stored in one array, with one leaf per actor (padded
 * to a power of two) and each internal node holding the smaller of
 * its two children, so the root is the next wake. A wake writes its
 * leaf and climbs only while it beats the node above; a pop idles
 * the root's leaf and recomputes every node on its path to the root,
 * one branch-free minimum per level. Because each actor owns a fixed
 * leaf, the per-actor queries and the loop batcher's fingerprint
 * read the leaves in actor order directly.
 */

#ifndef SYNCPERF_SIM_EVENT_QUEUE_HH
#define SYNCPERF_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace syncperf::sim
{

/**
 * Monotone wake-up queue (a winner tree over one key per actor) with
 * stable same-tick ordering by actor.
 *
 * Not thread safe: each simulated machine owns one queue and runs it
 * from a single host thread.
 */
class EventQueue
{
  public:
    /** next()'s answer when nothing is pending. */
    static constexpr int none = -1;

    /** Sentinel tick: no pending event. */
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
        std::uint64_t *const tree = tree_.data();
        const std::uint64_t key = tree[1];
        now_ = key >> when_shift;
        const std::size_t actor = key & actor_mask;
        std::size_t i = leaves_ + actor;
        tree[i] = idle_key;
        for (; i > 1; i >>= 1)
            tree[i >> 1] = std::min(tree[i], tree[i ^ 1]);
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

    /** High-water pending() mark since construction or reset(). */
    std::size_t maxPending() const { return max_pending_; }

    /** Tick of the earliest pending wake (the root's), or no_tick
     * when the queue is empty. */
    Tick
    earliestPending() const
    {
        return live_ == 0 ? no_tick : tree_[1] >> when_shift;
    }

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
     * wake history.
     */
    void encodePending(Tick base, std::vector<std::uint64_t> &out) const;

    /**
     * Add @p delta to the tick of every pending wake. Relative order
     * is untouched -- the packed key makes this a monotone transform,
     * so every internal node stays the minimum of its children --
     * which is how the loop batcher advances a whole steady-state
     * window in O(actors).
     */
    void shiftPending(Tick delta);

    /**
     * Return the queue to its initial state (time 0, nothing
     * pending) bound to actors [0, @p actors), keeping
     * allocated capacity so a reused machine wakes into warm
     * buffers. executed() is a lifetime count and survives.
     */
    void reset(std::size_t actors);

  private:
    /** Bits of the packed key below the tick; wake() asserts ticks
     * fit the 40 above (2^40 cycles is minutes of simulated time at
     * GPU clocks -- orders of magnitude beyond any run). */
    static constexpr unsigned when_shift = 24;
    static constexpr std::uint64_t actor_mask =
        (std::uint64_t{1} << when_shift) - 1;

    /** First tick past the packed 40-bit range. */
    static constexpr Tick tick_limit = Tick{1} << (64 - when_shift);

    /** Key of an actor with no wake pending: above every real key. */
    static constexpr std::uint64_t idle_key = ~std::uint64_t{0};

    /**
     * The winner tree, 2 * leaves_ keys (index 0 unused). Leaf
     * leaves_ + a holds actor a's key, tick : 40 | actor : 24 -- one
     * compare orders by (tick, actor), the total pop order -- or
     * idle_key while a has no wake pending (and for every padding
     * leaf). Node i < leaves_ holds min(node 2i, node 2i + 1), so
     * node 1 is the next wake.
     */
    std::vector<std::uint64_t> tree_;
    std::size_t leaves_ = 1; ///< bit_ceil(max(actors_, 1))
    std::size_t actors_ = 0; ///< bound actor count
    /** Every pending key's tick is at or after now_. */
    Tick now_ = 0;
    std::size_t live_ = 0;
    std::size_t max_pending_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace syncperf::sim

#endif // SYNCPERF_SIM_EVENT_QUEUE_HH
