/**
 * @file
 * The non-template half of the shared loop batcher: run reset and
 * anchor lookup.
 */

#include "loop_batch.hh"

namespace syncperf::sim
{

void
LoopBatcher::beginRun(EventQueue &eq, StatSet &stats,
                      std::uint64_t total_iters)
{
    eq_ = &eq;
    stats_ = &stats;
    trigger_ = -1;
    ring_n_ = 0;
    skip_ = 0;
    penalty_ = 1;
    if (pin_ != EventQueue::no_tick)
        eq.pinHorizon(pin_); // the queue's reset cleared any pin
    counters_ = LoopBatchCounters{};
    counters_.total_iters = total_iters;
}

const LoopBatcher::Anchor *
LoopBatcher::findMatch()
{
    // Newest-first: contended regimes rotate through their P
    // contenders before the machine state recurs, so the cycle often
    // closes against an anchor several boundaries back -- a match at
    // any distance proves a period just as rigorously as an adjacent
    // one, because the tick and iteration deltas are measured from
    // the matched anchor itself.
    for (int back = 0; back < ring_n_; ++back) {
        const Anchor &cand =
            ring_[(ring_head_ - back + ring_size) % ring_size];
        if (cand.fp == fp_)
            return &cand;
    }
    return nullptr;
}

} // namespace syncperf::sim
