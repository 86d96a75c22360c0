/**
 * @file
 * Multithreaded correctness tests for the barrier algorithms.
 *
 * These run on real host threads. The invariant checked for every
 * algorithm: between consecutive barrier episodes, no thread may
 * observe another thread more than one phase ahead or behind.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <ostream>

#include "threadlib/barrier.hh"
#include "threadlib/parallel_region.hh"

namespace syncperf::threadlib
{
namespace
{

/** Run @p rounds barrier episodes and verify phase lockstep. */
void
checkBarrierLockstep(Barrier &barrier, int threads, int rounds)
{
    std::vector<std::atomic<int>> phase(threads);
    for (auto &p : phase)
        p.store(0);
    std::atomic<bool> failed{false};

    parallelRegion(threads, [&](int tid) {
        for (int r = 0; r < rounds; ++r) {
            phase[tid].store(r, std::memory_order_release);
            barrier.arriveAndWait(tid);
            // After the barrier, everyone must have published >= r.
            for (int t = 0; t < threads; ++t) {
                if (phase[t].load(std::memory_order_acquire) < r)
                    failed.store(true);
            }
            barrier.arriveAndWait(tid);
        }
    });
    EXPECT_FALSE(failed.load());
}

template <typename T>
std::unique_ptr<Barrier>
make(int n)
{
    return std::make_unique<T>(n);
}

using Factory = std::unique_ptr<Barrier> (*)(int);

struct BarrierCase
{
    const char *name;
    Factory factory;
};

// Print a case by its name so the test listing (and the names ctest
// registers) does not embed the factory's run-time address.
void
PrintTo(const BarrierCase &c, std::ostream *os)
{
    *os << c.name;
}

class BarrierTest : public ::testing::TestWithParam<BarrierCase>
{
};

TEST_P(BarrierTest, SingleThreadNeverBlocks)
{
    auto barrier = GetParam().factory(1);
    for (int i = 0; i < 100; ++i)
        barrier->arriveAndWait(0);
    SUCCEED();
}

TEST_P(BarrierTest, TwoThreadsLockstep)
{
    auto barrier = GetParam().factory(2);
    checkBarrierLockstep(*barrier, 2, 200);
}

TEST_P(BarrierTest, ManyThreadsLockstep)
{
    auto barrier = GetParam().factory(7);
    checkBarrierLockstep(*barrier, 7, 50);
}

TEST_P(BarrierTest, NonPowerOfTwoTeam)
{
    auto barrier = GetParam().factory(5);
    checkBarrierLockstep(*barrier, 5, 50);
}

TEST_P(BarrierTest, ReportsTeamSize)
{
    auto barrier = GetParam().factory(3);
    EXPECT_EQ(barrier->teamSize(), 3);
}

TEST_P(BarrierTest, SumAcrossPhasesIsExact)
{
    // Each thread adds its contribution before the barrier; after
    // the barrier every thread must see the full round total.
    constexpr int threads = 4;
    constexpr int rounds = 100;
    auto barrier = GetParam().factory(threads);
    std::atomic<long> total{0};
    std::atomic<bool> failed{false};

    parallelRegion(threads, [&](int tid) {
        (void)tid;
        for (int r = 1; r <= rounds; ++r) {
            total.fetch_add(1);
            barrier->arriveAndWait(tid);
            if (total.load() != static_cast<long>(r) * threads)
                failed.store(true);
            barrier->arriveAndWait(tid);
        }
    });
    EXPECT_FALSE(failed.load());
    EXPECT_EQ(total.load(), static_cast<long>(rounds) * threads);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, BarrierTest,
    ::testing::Values(BarrierCase{"central", &make<CentralBarrier>},
                      BarrierCase{"tree", &make<TreeBarrier>},
                      BarrierCase{"dissemination",
                                  &make<DisseminationBarrier>}),
    [](const ::testing::TestParamInfo<BarrierCase> &info) {
        return info.param.name;
    });

TEST(TreeBarrier, LargeTeamBuildsMultipleLevels)
{
    TreeBarrier barrier(33);  // forces 3 levels at fan-in 4
    checkBarrierLockstep(barrier, 33, 10);
}

TEST(DisseminationBarrier, RoundCountIsLogarithmic)
{
    // Indirect check: a 9-thread barrier needs 4 rounds and still
    // synchronizes correctly.
    DisseminationBarrier barrier(9);
    checkBarrierLockstep(barrier, 9, 20);
}

} // namespace
} // namespace syncperf::threadlib
