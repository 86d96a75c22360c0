/**
 * @file
 * Implementation of sweep helpers.
 */

#include "sweep.hh"

#include <algorithm>

#include "common/logging.hh"

namespace syncperf::core
{

std::vector<int>
ompThreadCounts(int max_hw_threads, int step)
{
    SYNCPERF_ASSERT(max_hw_threads >= 2 && step >= 1);
    std::vector<int> out;
    for (int t = 2; t <= max_hw_threads; t += step)
        out.push_back(t);
    if (out.back() != max_hw_threads)
        out.push_back(max_hw_threads);
    return out;
}

std::vector<int>
cudaThreadCounts(int max_threads_per_block, int step)
{
    SYNCPERF_ASSERT(max_threads_per_block >= 2 && step >= 1);
    std::vector<int> out;
    for (int t = 2, i = 0; t <= max_threads_per_block; t *= 2, ++i) {
        if (i % step == 0 || 2 * t > max_threads_per_block)
            out.push_back(t);
    }
    return out;
}

std::vector<int>
cudaBlockCounts(int sm_count)
{
    SYNCPERF_ASSERT(sm_count >= 1);
    std::vector<int> out{1, 2, sm_count / 2, sm_count, sm_count * 2};
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    out.erase(std::remove_if(out.begin(), out.end(),
                             [](int b) { return b < 1; }),
              out.end());
    return out;
}

} // namespace syncperf::core
