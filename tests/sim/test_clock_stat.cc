/**
 * @file
 * Unit tests for stat counters.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "sim/stat.hh"

namespace syncperf::sim
{
namespace
{

TEST(StatSet, DefaultsToZero)
{
    StatSet stats;
    EXPECT_EQ(stats.get("nothing"), 0u);
}

TEST(StatSet, IncrementAccumulates)
{
    StatSet stats;
    stats.inc("a");
    stats.inc("a", 4);
    EXPECT_EQ(stats.get("a"), 5u);
}

TEST(StatSet, AllIsSortedByName)
{
    StatSet stats;
    stats.inc("zeta");
    stats.inc("alpha");
    const auto &all = stats.all();
    EXPECT_EQ(all.begin()->first, "alpha");
}

TEST(StatSet, ClearResets)
{
    StatSet stats;
    stats.inc("x", 10);
    stats.clear();
    EXPECT_EQ(stats.get("x"), 0u);
    EXPECT_TRUE(stats.all().empty());
}

TEST(StatSet, InternedProbeRoundTrip)
{
    StatSet stats;
    stats.inc(Probe::CpuL1Hit);
    stats.inc(Probe::CpuL1Hit, 4);
    EXPECT_EQ(stats.get(Probe::CpuL1Hit), 5u);
    EXPECT_EQ(stats.get(Probe::GpuSyncthreads), 0u);
}

TEST(StatSet, StringApiResolvesInternedProbes)
{
    // The historical string names and the interned probes are the
    // same counters: tests that assert via strings keep working.
    StatSet stats;
    stats.inc(Probe::GpuAtomicAggregated, 7);
    EXPECT_EQ(stats.get("gpu.atomic_aggregated"), 7u);
    stats.inc("gpu.atomic_aggregated", 3);
    EXPECT_EQ(stats.get(Probe::GpuAtomicAggregated), 10u);
}

TEST(StatSet, AllMergesProbesAndAdHocNamesSorted)
{
    StatSet stats;
    stats.inc(Probe::CpuLinePingPong, 2);
    stats.inc("zz_custom", 1);
    stats.inc(Probe::GpuFence); // zero probes must stay absent
    const auto all = stats.all();
    ASSERT_EQ(all.size(), 3u);
    auto it = all.begin();
    EXPECT_EQ(it->first, "cpu.line_ping_pong");
    ++it;
    EXPECT_EQ(it->first, "gpu.fence");
    ++it;
    EXPECT_EQ(it->first, "zz_custom");
    EXPECT_EQ(all.count("cpu.l1_hit"), 0u);
}

TEST(StatSet, EveryProbeHasAUniqueName)
{
    std::map<std::string, int> seen;
    for (int i = 0; i < static_cast<int>(Probe::Count); ++i)
        ++seen[probeName(static_cast<Probe>(i))];
    EXPECT_EQ(seen.size(),
              static_cast<std::size_t>(static_cast<int>(Probe::Count)));
    for (int i = 0; i < static_cast<int>(HistProbe::Count); ++i)
        ++seen[histProbeName(static_cast<HistProbe>(i))];
    EXPECT_EQ(seen.size(),
              static_cast<std::size_t>(static_cast<int>(Probe::Count) +
                                       static_cast<int>(
                                           HistProbe::Count)));
}

TEST(StatSet, HistogramRecordAndClear)
{
    StatSet stats;
    stats.record(HistProbe::CpuAcqWaitTicks, 16);
    stats.record(HistProbe::CpuAcqWaitTicks, 48);
    EXPECT_EQ(stats.hist(HistProbe::CpuAcqWaitTicks).count(), 2u);
    EXPECT_EQ(stats.hist(HistProbe::CpuAcqWaitTicks).sum(), 64u);
    EXPECT_TRUE(stats.hist(HistProbe::GpuFenceStallTicks).empty());
    stats.clear();
    EXPECT_TRUE(stats.hist(HistProbe::CpuAcqWaitTicks).empty());
}

} // namespace
} // namespace syncperf::sim
