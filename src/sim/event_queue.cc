/**
 * @file
 * Implementation of the wake-up queue.
 */

#include "event_queue.hh"

#include <bit>

#include "common/logging.hh"

namespace syncperf::sim
{

EventQueue::EventQueue(std::size_t actors)
{
    reset(actors);
}

void
EventQueue::wake(Tick when, int actor)
{
    SYNCPERF_ASSERT(when >= now_, "cannot wake into the past");
    SYNCPERF_ASSERT(when < tick_limit,
                    "tick out of the packed 40-bit range");
    SYNCPERF_ASSERT(static_cast<std::size_t>(actor) < actors_,
                    "actor outside the bound range");
    std::uint64_t *const tree = tree_.data();
    std::size_t i = leaves_ + static_cast<std::size_t>(actor);
    SYNCPERF_ASSERT(tree[i] == idle_key,
                    "second pending wake of one actor");
    const std::uint64_t key =
        when << when_shift | static_cast<std::uint64_t>(actor);
    tree[i] = key;
    // The leaf only got smaller: an ancestor changes iff the key
    // beats it, and once one does not, none above it does either.
    for (; i > 1 && key < tree[i >> 1]; i >>= 1)
        tree[i >> 1] = key;
    ++live_;
    if (live_ > max_pending_)
        max_pending_ = live_;
}

void
EventQueue::earliestPendingPerPriority(std::vector<Tick> &out) const
{
    const std::size_t bound = std::min(out.size(), actors_);
    for (std::size_t a = 0; a < bound; ++a) {
        const std::uint64_t key = tree_[leaves_ + a];
        out[a] = key == idle_key ? no_tick : key >> when_shift;
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
    for (std::size_t a = 0; a < actors_; ++a) {
        const std::uint64_t key = tree_[leaves_ + a];
        out.push_back(key == idle_key ? idle_word
                                      : (key >> when_shift) - base);
    }
}

void
EventQueue::shiftPending(Tick delta)
{
    if (delta == 0)
        return;
    SYNCPERF_ASSERT(delta < tick_limit,
                    "shift out of the packed 40-bit range");
    // Internal nodes hold copies of leaf keys and move with them.
    const std::uint64_t add = delta << when_shift;
    for (std::size_t i = 1; i < tree_.size(); ++i) {
        std::uint64_t &key = tree_[i];
        if (key == idle_key)
            continue;
        SYNCPERF_ASSERT((key >> when_shift) < tick_limit - delta,
                        "shifted tick out of the packed 40-bit range");
        key += add;
    }
}

void
EventQueue::reset(std::size_t actors)
{
    SYNCPERF_ASSERT(actors <= max_actors,
                    "actor count out of the packed 24-bit range");
    actors_ = actors;
    leaves_ = std::bit_ceil(std::max<std::size_t>(actors, 1));
    tree_.assign(2 * leaves_, idle_key);
    now_ = 0;
    live_ = 0;
    max_pending_ = 0;
}

} // namespace syncperf::sim
