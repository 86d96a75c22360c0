/**
 * @file
 * Parameter-sweep helpers matching the paper's experimental
 * methodology (Section IV).
 */

#ifndef SYNCPERF_CORE_SWEEP_HH
#define SYNCPERF_CORE_SWEEP_HH

#include <vector>

namespace syncperf::core
{

/**
 * OpenMP thread counts: 2 up to the machine's hardware-thread
 * maximum (the paper omits 1 since synchronization is pointless
 * serially).
 *
 * @param max_hw_threads Total hardware threads of the machine.
 * @param step Stride through the range (1 reproduces the paper;
 *        larger steps speed up smoke runs).
 */
std::vector<int> ompThreadCounts(int max_hw_threads, int step = 1);

/** CUDA thread-per-block counts: powers of two, 2..1024. */
std::vector<int> cudaThreadCounts(int max_threads_per_block = 1024);

/** CUDA block counts: 1, 2, SMs/2, SMs, 2*SMs (deduplicated). */
std::vector<int> cudaBlockCounts(int sm_count);

} // namespace syncperf::core

#endif // SYNCPERF_CORE_SWEEP_HH
