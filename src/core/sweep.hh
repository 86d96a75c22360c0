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

/**
 * CUDA thread-per-block counts: powers of two, 2..1024.
 *
 * @param max_threads_per_block Largest block size of the sweep.
 * @param step Keep every step-th power of two (1 reproduces the
 *        paper; 2 is the quick sweep {2, 8, 32, 128, 512, 1024}); the
 *        maximum is always kept.
 */
std::vector<int> cudaThreadCounts(int max_threads_per_block = 1024,
                                  int step = 1);

/** CUDA block counts: 1, 2, SMs/2, SMs, 2*SMs (deduplicated). */
std::vector<int> cudaBlockCounts(int sm_count);

} // namespace syncperf::core

#endif // SYNCPERF_CORE_SWEEP_HH
