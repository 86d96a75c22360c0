/**
 * @file
 * Tests for the bench scaffolding (option parsing, sweep selection,
 * protocol selection).
 */

#include <gtest/gtest.h>

#include <array>

#include "bench_common.hh"

namespace syncperf::bench
{
namespace
{

Options
parseArgs(std::initializer_list<const char *> args)
{
    std::vector<char *> argv;
    static char prog[] = "bench";
    argv.push_back(prog);
    for (const char *a : args)
        argv.push_back(const_cast<char *>(a));
    return Options::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchOptions, DefaultsAreOff)
{
    const Options opt = parseArgs({});
    EXPECT_FALSE(opt.full);
    EXPECT_FALSE(opt.quick);
    EXPECT_FALSE(opt.csv);
}

TEST(BenchOptions, FlagsParse)
{
    const Options opt = parseArgs({"--full", "--csv"});
    EXPECT_TRUE(opt.full);
    EXPECT_TRUE(opt.csv);
    EXPECT_FALSE(opt.quick);
}

TEST(BenchOptions, QuickParses)
{
    EXPECT_TRUE(parseArgs({"--quick"}).quick);
}

TEST(BenchOptions, UnknownFlagsExitWithUsage)
{
    // A mistyped flag must not run the default sweep in its place.
    EXPECT_EXIT(parseArgs({"--quick", "--frobnicate"}),
                testing::ExitedWithCode(2),
                "unknown argument '--frobnicate'\nusage: ");
}

TEST(BenchProtocols, FullSelectsPaperDefaults)
{
    Options opt;
    opt.full = true;
    const auto cfg = ompProtocol(opt);
    EXPECT_EQ(cfg.runs, 9);
    EXPECT_EQ(cfg.attempts, 7);
    EXPECT_EQ(cfg.n_iter, 1000);
}

TEST(BenchProtocols, DefaultIsSingleDeterministicRun)
{
    const auto cfg = ompProtocol(Options{});
    EXPECT_EQ(cfg.runs, 1);
    EXPECT_EQ(cfg.attempts, 1);
    const auto gpu = gpuProtocol(Options{});
    EXPECT_EQ(gpu.runs, 1);
}

TEST(BenchSweeps, OmpSweepCoversWholeMachine)
{
    const auto cpu = cpusim::CpuConfig::system3();
    const auto threads = ompSweep(cpu, Options{});
    EXPECT_EQ(threads.front(), 2);
    EXPECT_EQ(threads.back(), cpu.totalHwThreads());
}

TEST(BenchSweeps, QuickOmpSweepIsCoarser)
{
    const auto cpu = cpusim::CpuConfig::system3();
    Options quick;
    quick.quick = true;
    EXPECT_LT(ompSweep(cpu, quick).size(),
              ompSweep(cpu, Options{}).size());
    EXPECT_EQ(ompSweep(cpu, quick).back(), cpu.totalHwThreads());
}

TEST(BenchSweeps, QuickCudaSweepKeepsEndpoints)
{
    Options quick;
    quick.quick = true;
    const auto full = cudaSweep(Options{});
    const auto coarse = cudaSweep(quick);
    EXPECT_LT(coarse.size(), full.size());
    EXPECT_EQ(coarse.front(), full.front());
    EXPECT_EQ(coarse.back(), full.back());
}

TEST(BenchHelpers, ToXsConverts)
{
    EXPECT_EQ(toXs({1, 2, 3}), (std::vector<double>{1.0, 2.0, 3.0}));
}

} // namespace
} // namespace syncperf::bench
