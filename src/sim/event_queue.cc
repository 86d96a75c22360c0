/**
 * @file
 * Implementation of the wake-up queue.
 */

#include "event_queue.hh"

#include <algorithm>
#include <functional>

#include "common/logging.hh"

namespace syncperf::sim
{

EventQueue::EventQueue(std::size_t actors)
{
    wheel_.fill(no_actor);
    reset(actors);
}

void
EventQueue::wake(Tick when, int actor)
{
    SYNCPERF_ASSERT(when >= now_, "cannot wake into the past");
    SYNCPERF_ASSERT(when < tick_limit,
                    "tick out of the packed 40-bit range");
    SYNCPERF_ASSERT(static_cast<std::size_t>(actor) < nodes_.size(),
                    "actor outside the bound range");
    Node &node = nodes_[static_cast<std::size_t>(actor)];
    SYNCPERF_ASSERT(node.key == idle_key,
                    "second pending wake of one actor");
    node.key = when << when_shift | static_cast<std::uint64_t>(actor);
    place(static_cast<std::uint32_t>(actor));
    ++live_;
    if (live_ > max_pending_)
        max_pending_ = live_;
}

inline void
EventQueue::place(std::uint32_t actor)
{
    Node &node = nodes_[actor];
    const auto b =
        static_cast<unsigned>(std::bit_width(node.when() ^ now_));
    if (b == 0) {
        // Due now: keep current_ sorted. A lower actor than the
        // running one's still runs next.
        current_.insert(std::upper_bound(current_.begin(), current_.end(),
                                         actor, std::greater<>()),
                        actor);
        return;
    }
    if (b <= wheel_bits) {
        // Same block as now_: the exact slot of its tick, where it
        // stays until that tick becomes current.
        const auto idx = static_cast<std::size_t>(node.when() & wheel_mask);
        node.next = wheel_[idx];
        wheel_[idx] = actor;
        wheel_occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
        wheel_summary_ |= std::uint64_t{1} << (idx >> 6);
        return;
    }
    // Branch-free push: an empty bucket holds the no_actor head and
    // the all-ones key, which chain and min() absorb.
    Bucket &bucket = buckets_[b];
    node.next = bucket.head;
    bucket.head = actor;
    bucket.min_key = std::min(bucket.min_key, node.key);
    mask_ |= std::uint64_t{1} << b;
}

void
EventQueue::advance()
{
    if (wheel_summary_ != 0) {
        // Every wheel tick precedes every bucketed one. The new now_
        // keeps the block, so the rest of the wheel and every bucket
        // stay filed correctly.
        const std::size_t idx = lowestWheelSlot();
        std::uint64_t &word = wheel_occupied_[idx >> 6];
        word &= word - 1;
        if (word == 0)
            wheel_summary_ &= wheel_summary_ - 1;
        now_ = wheelTick(idx);
        for (std::uint32_t a = wheel_[idx]; a != no_actor;
             a = nodes_[a].next) {
            current_.push_back(a);
        }
        wheel_[idx] = no_actor;
    } else {
        Bucket &bucket = buckets_[std::countr_zero(mask_)];
        mask_ &= mask_ - 1;
        // Every record of the bucket agrees with the new base above
        // the bucket's bit, so each one lands in current_, the empty
        // wheel or a lower bucket, and this one is empty again before
        // the walk refills anything.
        now_ = bucket.min_key >> when_shift;
        std::uint32_t a = bucket.head;
        bucket = Bucket{};
        while (a != no_actor) {
            const std::uint32_t next = nodes_[a].next;
            ++relinked_;
            if (nodes_[a].when() == now_)
                current_.push_back(a); // sorted once, below
            else
                place(a);
            a = next;
        }
    }
    if (current_.size() > 1)
        std::sort(current_.begin(), current_.end(), std::greater<>());
}

Tick
EventQueue::earliestPending() const
{
    if (live_ == 0)
        return no_tick;
    if (!current_.empty())
        return now_;
    if (wheel_summary_ != 0)
        return wheelTick(lowestWheelSlot());
    return buckets_[std::countr_zero(mask_)].min_key >> when_shift;
}

void
EventQueue::earliestPendingPerPriority(std::vector<Tick> &out) const
{
    const std::size_t bound = std::min(out.size(), nodes_.size());
    for (std::size_t a = 0; a < bound; ++a) {
        out[a] = nodes_[a].key == idle_key ? no_tick : nodes_[a].when();
    }
    std::fill(out.begin() + static_cast<std::ptrdiff_t>(bound), out.end(),
              no_tick);
}

void
EventQueue::encodePending(Tick base, std::vector<std::uint64_t> &out) const
{
    // Each actor has at most one wake pending, and (tick, actor) is
    // the pop order, so each actor's offset alone fixes the pattern.
    // The offset is signed-in-two's-complement: pending wakes may
    // precede the caller's base tick.
    out.push_back(live_);
    for (const Node &node : nodes_) {
        out.push_back(node.key == idle_key
                          ? idle_word
                          : static_cast<std::uint64_t>(node.when() - base));
    }
}

void
EventQueue::shiftPending(Tick delta)
{
    if (delta == 0)
        return;
    SYNCPERF_ASSERT(delta < tick_limit,
                    "shift out of the packed 40-bit range");
    // Detach every pending record into one chain, then re-file each
    // against the unchanged now_: wheel slots and bucket indices
    // depend on absolute ticks. Every shifted tick is past now_, so
    // nothing re-enters current_.
    std::uint32_t chain = no_actor;
    const auto detach = [&](std::uint32_t a) {
        while (a != no_actor) {
            const std::uint32_t next = nodes_[a].next;
            nodes_[a].next = chain;
            chain = a;
            a = next;
        }
    };
    for (std::uint32_t a : current_) {
        nodes_[a].next = chain;
        chain = a;
    }
    current_.clear();
    takeWheel(detach);
    for (std::uint64_t m = mask_; m != 0; m &= m - 1) {
        Bucket &bucket = buckets_[std::countr_zero(m)];
        detach(bucket.head);
        bucket = Bucket{};
    }
    mask_ = 0;
    while (chain != no_actor) {
        const std::uint32_t next = nodes_[chain].next;
        Node &n = nodes_[chain];
        SYNCPERF_ASSERT(n.when() < tick_limit - delta,
                        "shifted tick out of the packed 40-bit range");
        n.key += delta << when_shift;
        place(chain);
        ++relinked_;
        chain = next;
    }
}

void
EventQueue::reset(std::size_t actors)
{
    SYNCPERF_ASSERT(actors <= max_actors,
                    "actor count out of the packed 24-bit range");
    current_.clear();
    takeWheel([](std::uint32_t) {});
    buckets_.fill(Bucket{});
    mask_ = 0;
    nodes_.assign(actors, Node{});
    now_ = 0;
    live_ = 0;
    max_pending_ = 0;
    horizon_pin_ = no_tick;
}

} // namespace syncperf::sim
