/**
 * @file
 * One round of a team barrier, shared by the CPU and GPU machines.
 *
 * Every rendezvous the machines model -- the OpenMP team barrier and
 * warmup join, a block's __syncthreads and a grid sync -- collects
 * arrivals until the whole team is in, then releases them together.
 * What a release costs and which spread histogram it feeds stay with
 * the caller; this is only the round's state.
 */

#ifndef SYNCPERF_SIM_RENDEZVOUS_HH
#define SYNCPERF_SIM_RENDEZVOUS_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace syncperf::sim
{

/** The arrivals of one barrier round. */
struct Rendezvous
{
    int arrived = 0;
    Tick first = 0;          ///< earliest arrival tick of the round
    Tick last = 0;           ///< latest arrival tick of the round
    std::vector<int> waiters; ///< arrived actors, in arrival order

    /** @p actor arrives at @p when; true once all @p team actors are
     * in, when the caller must release() the round. */
    bool
    arrive(int actor, Tick when, int team)
    {
        first = arrived == 0 ? when : std::min(first, when);
        last = std::max(last, when);
        ++arrived;
        waiters.push_back(actor);
        return arrived == team;
    }

    /** End the round: its waiters, with the state reset for the
     * next one. */
    std::vector<int>
    release()
    {
        std::vector<int> out = std::move(waiters);
        *this = Rendezvous{};
        return out;
    }

    /**
     * The round's part of a machine's visitState() (see
     * sim::StateEncoder). Both stamps are live while the round is
     * partly arrived: first feeds a min(), and last can still win
     * its max(), since a later arrival carries a smaller tick when
     * issue contention delayed an earlier one.
     */
    template <class Self, class V>
    static void
    visit(Self &self, V &v)
    {
        v.word(static_cast<std::uint64_t>(self.arrived));
        v.stampIf(self.arrived > 0, self.first);
        v.stampIf(self.arrived > 0, self.last);
        v.words(self.waiters);
    }
};

} // namespace syncperf::sim

#endif // SYNCPERF_SIM_RENDEZVOUS_HH
