/**
 * @file
 * Implementation of the discrete-event queue.
 */

#include "event_queue.hh"

#include <algorithm>

#include "common/logging.hh"

namespace syncperf::sim
{

EventId
EventQueue::schedule(Tick when, EventCallback cb, int priority)
{
    SYNCPERF_ASSERT(when >= now_, "cannot schedule into the past");
    SYNCPERF_ASSERT(
        static_cast<std::uint64_t>(priority + priority_bias) <
            (priority_bias << 1),
        "event priority out of the packed 24-bit range");
    SYNCPERF_ASSERT(when < tick_limit,
                    "tick out of the packed 40-bit range");

    std::uint32_t slot_idx;
    if (free_.empty()) {
        slot_idx = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
        nodes_.emplace_back();
    } else {
        slot_idx = free_.back();
        free_.pop_back();
    }
    Slot &slot = slots_[slot_idx];
    slot.action = std::move(cb);
    slot.state = SlotState::Pending;

    const std::uint64_t prio_key =
        (static_cast<std::uint64_t>(priority) + priority_bias) &
        ((priority_bias << 1) - 1);
    nodes_[slot_idx] = Node{when << when_shift | prio_key, next_seq_++,
                            no_slot};
    place(slot_idx);
    ++live_;
    if (live_ > max_pending_)
        max_pending_ = live_;
    return static_cast<EventId>(slot.gen) << 32 | slot_idx;
}

bool
EventQueue::deschedule(EventId id)
{
    // Cancelled records stay in their bucket (their slot is a
    // tombstone reclaimed when the record pops); executed,
    // already-cancelled, and pre-reset handles fail the generation
    // check.
    const std::uint32_t slot_idx = static_cast<std::uint32_t>(id);
    const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
    if (slot_idx >= slots_.size())
        return false;
    Slot &slot = slots_[slot_idx];
    if (slot.gen != gen || slot.state != SlotState::Pending)
        return false;
    slot.state = SlotState::Cancelled;
    slot.action = EventCallback{}; // release captures eagerly
    --live_;
    return true;
}

inline void
EventQueue::place(std::uint32_t slot)
{
    Node &node = nodes_[slot];
    const auto b =
        static_cast<unsigned>(std::bit_width(node.when() ^ last_));
    if (b == 0) {
        // Due now: keep current_ sorted. A lower priority than the
        // running event's still runs next.
        current_.insert(std::upper_bound(current_.begin(), current_.end(),
                                         slot, laterFirst()),
                        slot);
        return;
    }
    // Branch-free push: an empty bucket holds the no_slot head and the
    // all-ones key, which chain and min() absorb.
    Bucket &bucket = buckets_[b];
    node.next = bucket.head;
    bucket.head = slot;
    bucket.min_key = std::min(bucket.min_key, node.key);
    mask_ |= std::uint64_t{1} << b;
}

void
EventQueue::advance()
{
    Bucket &bucket = buckets_[std::countr_zero(mask_)];
    mask_ &= mask_ - 1;
    // Every record of the bucket agrees with the new base above the
    // bucket's bit, so each one lands in a lower bucket (or
    // current_), and this one is empty again before the walk refills
    // anything.
    last_ = bucket.min_key >> when_shift;
    std::uint32_t s = bucket.head;
    bucket = Bucket{};
    while (s != no_slot) {
        const std::uint32_t next = nodes_[s].next;
        if (nodes_[s].when() == last_)
            current_.push_back(s); // sorted once, below
        else
            place(s);
        s = next;
    }
    if (current_.size() > 1)
        std::sort(current_.begin(), current_.end(), laterFirst());
}

void
EventQueue::executeOne()
{
    if (current_.empty())
        advance();
    const std::uint32_t idx = current_.back();
    current_.pop_back();
    Slot &slot = slots_[idx];
    if (slot.state != SlotState::Pending) {
        freeSlot(idx); // cancelled tombstone, action gone
        return;
    }
    --live_;
    now_ = last_;
    ++executed_;
    // Move out and free before invoking: the callback may schedule
    // new events, reusing this very slot or reallocating slots_.
    EventCallback action = std::move(slot.action);
    freeSlot(idx);
    action();
}

Tick
EventQueue::run()
{
    while (!drained())
        executeOne();
    // Trailing tombstones may have carried last_ past the final
    // event; nothing is held, so rebase on now_ and keep every
    // schedule() at or after now_ valid.
    last_ = now_;
    return now_;
}

Tick
EventQueue::runUntil(Tick limit)
{
    // Peek, never advance, before deciding: a refill past limit would
    // move last_ beyond ticks that later schedule() calls may use.
    while (!drained() && peekTick() <= limit)
        executeOne();
    if (now_ < limit)
        now_ = limit;
    return now_;
}

Tick
EventQueue::earliestPending() const
{
    if (live_ == 0)
        return no_tick;
    for (std::uint32_t s : current_) {
        if (slots_[s].state == SlotState::Pending)
            return last_;
    }
    for (std::uint64_t m = mask_; m != 0; m &= m - 1) {
        Tick best = no_tick;
        for (std::uint32_t s = buckets_[std::countr_zero(m)].head;
             s != no_slot; s = nodes_[s].next) {
            if (slots_[s].state == SlotState::Pending &&
                nodes_[s].when() < best) {
                best = nodes_[s].when();
            }
        }
        if (best != no_tick)
            return best;
    }
    return no_tick;
}

void
EventQueue::earliestPendingPerPriority(std::vector<Tick> &out) const
{
    std::fill(out.begin(), out.end(), no_tick);
    forEachHeld([&](std::uint32_t s) {
        if (slots_[s].state != SlotState::Pending)
            return;
        const Node &n = nodes_[s];
        const std::int64_t prio =
            static_cast<std::int64_t>(n.key &
                                      ((priority_bias << 1) - 1)) -
            static_cast<std::int64_t>(priority_bias);
        if (prio < 0 || prio >= static_cast<std::int64_t>(out.size()))
            return;
        Tick &best = out[static_cast<std::size_t>(prio)];
        if (n.when() < best)
            best = n.when();
    });
}

Tick
EventQueue::nextForeignTick(int priority) const
{
    const std::uint64_t prio_key =
        (static_cast<std::uint64_t>(priority) + priority_bias) &
        ((priority_bias << 1) - 1);
    Tick best = horizon_pin_;
    forEachHeld([&](std::uint32_t s) {
        if (slots_[s].state != SlotState::Pending)
            return; // tombstone: a cancelled event lands nowhere
        const Node &n = nodes_[s];
        if ((n.key & ((priority_bias << 1) - 1)) == prio_key)
            return;
        if (n.when() < best)
            best = n.when();
    });
    return best;
}

void
EventQueue::encodePending(Tick base, std::vector<std::uint64_t> &out) const
{
    order_scratch_.clear();
    forEachHeld([&](std::uint32_t s) {
        if (slots_[s].state == SlotState::Pending)
            order_scratch_.push_back(nodes_[s]);
    });
    // Execution order, not bucket order: the bucket layout depends on
    // insertion history, which two equivalent states need not share.
    std::sort(order_scratch_.begin(), order_scratch_.end(), before);
    out.push_back(order_scratch_.size());
    for (const Node &n : order_scratch_) {
        // The offset is signed-in-two's-complement: pending events
        // may precede the caller's base tick.
        out.push_back(static_cast<std::uint64_t>(n.when() - base));
        out.push_back(n.key & ((priority_bias << 1) - 1));
    }
}

void
EventQueue::shiftPending(Tick delta)
{
    if (delta == 0)
        return;
    SYNCPERF_ASSERT(delta < tick_limit,
                    "shift out of the packed 40-bit range");
    const auto shift = [&](std::uint32_t s) {
        Node &n = nodes_[s];
        SYNCPERF_ASSERT(n.when() < tick_limit - delta,
                        "shifted tick out of the packed 40-bit range");
        n.key += delta << when_shift;
        place(s);
    };
    // Re-bucket against the unchanged last_: bucket indices depend on
    // absolute ticks. Every shifted tick is past last_, so nothing
    // re-enters current_ while it is walked.
    const std::array<Bucket, bucket_count> lists = buckets_;
    const std::uint64_t held = mask_;
    buckets_.fill(Bucket{});
    mask_ = 0;
    for (std::uint32_t s : current_)
        shift(s);
    current_.clear();
    for (std::uint64_t m = held; m != 0; m &= m - 1) {
        std::uint32_t s = lists[std::countr_zero(m)].head;
        while (s != no_slot) {
            const std::uint32_t next = nodes_[s].next;
            shift(s);
            s = next;
        }
    }
}

void
EventQueue::reset()
{
    current_.clear();
    buckets_.fill(Bucket{});
    mask_ = 0;
    last_ = 0;
    free_.clear();
    // Every slot is reclaimed and its generation bumped, so handles
    // from before the reset are dead. Descending order so the next
    // cycle fills slots from index 0 with warm memory.
    for (std::uint32_t i = static_cast<std::uint32_t>(slots_.size());
         i-- > 0;) {
        slots_[i].action = EventCallback{};
        slots_[i].state = SlotState::Pending;
        ++slots_[i].gen;
        free_.push_back(i);
    }
    now_ = 0;
    live_ = 0;
    max_pending_ = 0;
    horizon_pin_ = no_tick;
}

} // namespace syncperf::sim
