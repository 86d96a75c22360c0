/**
 * @file
 * The non-template half of the shared loop batcher: the run reset.
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
    armed_ = false;
    window_ = 1;
    last_rng_ = 0;
    counters_ = LoopBatchCounters{};
    counters_.total_iters = total_iters;
}

} // namespace syncperf::sim
