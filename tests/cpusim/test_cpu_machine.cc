/**
 * @file
 * Unit and behavioral tests for the multicore CPU timing machine.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/logging.hh"
#include "cpusim/machine.hh"

namespace syncperf::cpusim
{
namespace
{

CpuConfig
testConfig()
{
    CpuConfig c;
    c.name = "test cpu";
    c.sockets = 1;
    c.cores_per_socket = 8;
    c.threads_per_core = 2;
    c.cores_per_complex = 8;
    return c;
}

CpuProgram
singleOpProgram(CpuOpKind kind, std::uint64_t addr, DataType t,
                long iters = 50)
{
    CpuProgram p;
    CpuOp op;
    op.kind = kind;
    op.addr = addr;
    op.dtype = t;
    p.body = {op};
    p.iterations = iters;
    return p;
}

/** Average timed cycles per body iteration across threads. */
double
cyclesPerIteration(CpuMachine &machine,
                   const std::vector<CpuProgram> &programs)
{
    const auto result = machine.run(programs, 2);
    double sum = 0.0;
    for (auto c : result.thread_cycles)
        sum += static_cast<double>(c);
    return sum / static_cast<double>(result.thread_cycles.size()) /
           static_cast<double>(programs.front().iterations);
}

TEST(CpuMachine, RunsToCompletion)
{
    CpuMachine machine(testConfig(), Affinity::System);
    const auto result = machine.run(
        {singleOpProgram(CpuOpKind::Alu, 0, DataType::Int32)}, 1);
    EXPECT_EQ(result.thread_cycles.size(), 1u);
    EXPECT_GT(result.thread_cycles[0], 0u);
    EXPECT_GT(result.total_cycles, 0u);
}

TEST(CpuMachine, DeterministicAcrossRuns)
{
    std::vector<CpuProgram> programs;
    for (int t = 0; t < 4; ++t) {
        programs.push_back(
            singleOpProgram(CpuOpKind::AtomicRmw, 0x1000,
                            DataType::Int32));
    }
    CpuMachine a(testConfig(), Affinity::System, 7);
    CpuMachine b(testConfig(), Affinity::System, 7);
    EXPECT_EQ(a.run(programs, 2).thread_cycles,
              b.run(programs, 2).thread_cycles);
}

TEST(CpuMachine, L1HitsAfterWarmup)
{
    // A thread writing its own private line should hit in L1.
    CpuMachine machine(testConfig(), Affinity::System);
    const auto result = machine.run(
        {singleOpProgram(CpuOpKind::Store, 0x9000, DataType::Int32)}, 2);
    (void)result;
    EXPECT_GT(machine.stats().get("cpu.l1_hit"), 0u);
}

TEST(CpuMachine, ContendedAtomicsSerialize)
{
    // Per-thread cost of a contended atomic grows roughly linearly
    // with the thread count (the paper's Fig 2 collapse).
    auto programsFor = [&](int n) {
        std::vector<CpuProgram> p(
            n, singleOpProgram(CpuOpKind::AtomicRmw, 0x1000,
                               DataType::Int32));
        return p;
    };
    CpuMachine m2(testConfig(), Affinity::System);
    CpuMachine m8(testConfig(), Affinity::System);
    const double c2 = cyclesPerIteration(m2, programsFor(2));
    const double c8 = cyclesPerIteration(m8, programsFor(8));
    EXPECT_GT(c8, 3.0 * c2);
}

TEST(CpuMachine, IntegerRmwCheaperThanFloatUnderContention)
{
    auto programsFor = [&](DataType t) {
        return std::vector<CpuProgram>(
            4, singleOpProgram(CpuOpKind::AtomicRmw, 0x1000, t));
    };
    CpuMachine mi(testConfig(), Affinity::System);
    CpuMachine mf(testConfig(), Affinity::System);
    const double ci = cyclesPerIteration(mi, programsFor(DataType::Int32));
    const double cf =
        cyclesPerIteration(mf, programsFor(DataType::Float64));
    EXPECT_LT(ci, cf);
}

TEST(CpuMachine, FalseSharingCostsMoreThanPrivateLines)
{
    // Threads hitting the same line (different words) vs separate
    // lines -- the Fig 3 mechanism.
    auto programsAtStride = [&](int stride_bytes) {
        std::vector<CpuProgram> p;
        for (int t = 0; t < 4; ++t) {
            p.push_back(singleOpProgram(
                CpuOpKind::AtomicRmw,
                0x10000 + static_cast<std::uint64_t>(t) * stride_bytes,
                DataType::Int32));
        }
        return p;
    };
    CpuMachine shared(testConfig(), Affinity::System);
    CpuMachine padded(testConfig(), Affinity::System);
    const double c_shared =
        cyclesPerIteration(shared, programsAtStride(4));
    const double c_padded =
        cyclesPerIteration(padded, programsAtStride(64));
    EXPECT_GT(c_shared, 3.0 * c_padded);
}

TEST(CpuMachine, SmtSiblingsDoNotFalseShare)
{
    // With Close affinity, threads 0 and 1 share a core and an L1:
    // their "false sharing" on one line costs nothing extra.
    auto programs = [&] {
        std::vector<CpuProgram> p;
        for (int t = 0; t < 2; ++t) {
            p.push_back(singleOpProgram(
                CpuOpKind::AtomicRmw,
                0x10000 + static_cast<std::uint64_t>(t) * 4,
                DataType::Int32));
        }
        return p;
    }();
    CpuMachine close_m(testConfig(), Affinity::Close);
    CpuMachine spread_m(testConfig(), Affinity::Spread);
    const double c_close = cyclesPerIteration(close_m, programs);
    const double c_spread = cyclesPerIteration(spread_m, programs);
    EXPECT_LT(3.0 * c_close, c_spread);
}

TEST(CpuMachine, AtomicLoadCostsSameAsPlainLoad)
{
    // The paper's atomic-read result: no difference.
    CpuMachine ml(testConfig(), Affinity::System);
    CpuMachine ma(testConfig(), Affinity::System);
    const double cl = cyclesPerIteration(
        ml, {singleOpProgram(CpuOpKind::Load, 0x1000, DataType::Int32)});
    const double ca = cyclesPerIteration(
        ma,
        {singleOpProgram(CpuOpKind::AtomicLoad, 0x1000, DataType::Int32)});
    EXPECT_DOUBLE_EQ(cl, ca);
}

TEST(CpuMachine, AtomicWriteCostTypeIndependent)
{
    auto programsFor = [&](DataType t) {
        return std::vector<CpuProgram>(
            4, singleOpProgram(CpuOpKind::AtomicStore, 0x1000, t));
    };
    CpuMachine mi(testConfig(), Affinity::System);
    CpuMachine md(testConfig(), Affinity::System);
    const double ci =
        cyclesPerIteration(mi, programsFor(DataType::Int32));
    const double cd =
        cyclesPerIteration(md, programsFor(DataType::Float64));
    EXPECT_DOUBLE_EQ(ci, cd);
}

TEST(CpuMachine, BarrierReleasesAllThreads)
{
    std::vector<CpuProgram> programs(
        6, singleOpProgram(CpuOpKind::Barrier, 0, DataType::Int32, 10));
    CpuMachine machine(testConfig(), Affinity::System);
    const auto result = machine.run(programs, 2);
    for (auto c : result.thread_cycles)
        EXPECT_GT(c, 0u);
    EXPECT_GT(machine.stats().get("cpu.barrier_spin") +
                  machine.stats().get("cpu.barrier_futex"),
              0u);
}

TEST(CpuMachine, BarrierSwitchesToFutexAtLargeTeams)
{
    CpuConfig cfg = testConfig();
    auto barrierProgs = [&](int n) {
        return std::vector<CpuProgram>(
            n, singleOpProgram(CpuOpKind::Barrier, 0, DataType::Int32, 5));
    };
    CpuMachine small(cfg, Affinity::System);
    small.run(barrierProgs(2), 1);
    EXPECT_GT(small.stats().get("cpu.barrier_spin"), 0u);
    EXPECT_EQ(small.stats().get("cpu.barrier_futex"), 0u);

    CpuMachine large(cfg, Affinity::System);
    large.run(barrierProgs(16), 1);
    EXPECT_GT(large.stats().get("cpu.barrier_futex"), 0u);
}

TEST(CpuMachine, LockSerializesCriticalSections)
{
    auto criticalProgram = [&] {
        CpuProgram p;
        CpuOp acq;
        acq.kind = CpuOpKind::LockAcquire;
        acq.addr = 0x3000;
        CpuOp body;
        body.kind = CpuOpKind::Store;
        body.addr = 0x4000;
        CpuOp rel;
        rel.kind = CpuOpKind::LockRelease;
        rel.addr = 0x3000;
        p.body = {acq, body, rel};
        p.iterations = 30;
        return p;
    }();
    std::vector<CpuProgram> programs(4, criticalProgram);
    CpuMachine machine(testConfig(), Affinity::System);
    const auto result = machine.run(programs, 2);
    for (auto c : result.thread_cycles)
        EXPECT_GT(c, 0u);
    EXPECT_GT(machine.stats().get("cpu.lock_handoff"), 0u);
}

TEST(CpuMachine, CriticalSlowerThanAtomic)
{
    auto criticalProgram = [&] {
        CpuProgram p;
        CpuOp acq;
        acq.kind = CpuOpKind::LockAcquire;
        acq.addr = 0x3000;
        CpuOp load;
        load.kind = CpuOpKind::Load;
        load.addr = 0x4000;
        CpuOp alu;
        alu.kind = CpuOpKind::Alu;
        CpuOp store;
        store.kind = CpuOpKind::Store;
        store.addr = 0x4000;
        CpuOp rel;
        rel.kind = CpuOpKind::LockRelease;
        rel.addr = 0x3000;
        p.body = {acq, load, alu, store, rel};
        p.iterations = 50;
        return p;
    }();
    CpuMachine mc(testConfig(), Affinity::System);
    CpuMachine ma(testConfig(), Affinity::System);
    const double c_critical =
        cyclesPerIteration(mc, std::vector<CpuProgram>(4, criticalProgram));
    const double c_atomic = cyclesPerIteration(
        ma, std::vector<CpuProgram>(
                4, singleOpProgram(CpuOpKind::AtomicRmw, 0x4000,
                                   DataType::Int32)));
    EXPECT_GT(c_critical, c_atomic);
}

TEST(CpuMachine, FenceCheapWithoutFalseSharing)
{
    auto fenceProgram = [&](int tid) {
        CpuProgram p;
        CpuOp store;
        store.kind = CpuOpKind::Store;
        store.addr = 0x10000 + static_cast<std::uint64_t>(tid) * 64;
        CpuOp fence;
        fence.kind = CpuOpKind::Fence;
        p.body = {store, fence};
        p.iterations = 50;
        return p;
    };
    std::vector<CpuProgram> programs;
    for (int t = 0; t < 4; ++t)
        programs.push_back(fenceProgram(t));
    CpuMachine machine(testConfig(), Affinity::System);
    machine.run(programs, 2);
    EXPECT_GT(machine.stats().get("cpu.fence_clean"), 0u);
    EXPECT_EQ(machine.stats().get("cpu.fence_contended"), 0u);
}

TEST(CpuMachine, FenceExpensiveUnderFalseSharing)
{
    auto fenceProgram = [&](int tid) {
        CpuProgram p;
        CpuOp store;
        store.kind = CpuOpKind::Store;
        store.addr = 0x10000 + static_cast<std::uint64_t>(tid) * 4;
        CpuOp fence;
        fence.kind = CpuOpKind::Fence;
        p.body = {store, fence};
        p.iterations = 50;
        return p;
    };
    std::vector<CpuProgram> programs;
    for (int t = 0; t < 4; ++t)
        programs.push_back(fenceProgram(t));
    CpuMachine machine(testConfig(), Affinity::Spread);
    machine.run(programs, 2);
    EXPECT_GT(machine.stats().get("cpu.fence_contended"), 0u);
}

TEST(CpuMachine, JitterProducesRunToRunVariation)
{
    CpuConfig cfg = testConfig();
    cfg.jitter_frac = 0.4;
    std::vector<CpuProgram> programs(
        4, singleOpProgram(CpuOpKind::AtomicRmw, 0x1000, DataType::Int32));
    CpuMachine a(cfg, Affinity::System, 1);
    CpuMachine b(cfg, Affinity::System, 2);
    EXPECT_NE(a.run(programs, 2).thread_cycles,
              b.run(programs, 2).thread_cycles);
}

TEST(CpuMachine, RemoteTransfersCrossComplexes)
{
    CpuConfig cfg = testConfig();
    cfg.cores_per_complex = 1;  // every core its own complex
    std::vector<CpuProgram> programs(
        4, singleOpProgram(CpuOpKind::AtomicRmw, 0x1000, DataType::Int32));
    CpuMachine machine(cfg, Affinity::System);
    machine.run(programs, 2);
    EXPECT_GT(machine.stats().get("cpu.transfer_remote"), 0u);
}

TEST(CpuMachine, EmptyProgramListPanics)
{
    CpuMachine machine(testConfig(), Affinity::System);
    ScopedLogCapture capture;
    EXPECT_THROW(machine.run(std::vector<CpuProgram>{}, 1),
                 LogDeathException);
}

TEST(CpuMachine, EmptyBodyPanics)
{
    CpuMachine machine(testConfig(), Affinity::System);
    CpuProgram empty;
    empty.iterations = 1;
    ScopedLogCapture capture;
    EXPECT_THROW(machine.run({empty}, 1), LogDeathException);
}

TEST(CpuMachine, ReleaseWithoutAcquirePanics)
{
    CpuMachine machine(testConfig(), Affinity::System);
    CpuProgram p;
    CpuOp rel;
    rel.kind = CpuOpKind::LockRelease;
    p.body = {rel};
    p.iterations = 1;
    ScopedLogCapture capture;
    EXPECT_THROW(machine.run({p}, 1), LogDeathException);
}

/** A contended program mix exercising every interned structure:
 * atomics on a shared line, a critical section, and a fence. */
std::vector<CpuProgram>
imageTestPrograms()
{
    std::vector<CpuProgram> programs;
    for (int tid = 0; tid < 4; ++tid) {
        CpuProgram p;
        CpuOp rmw;
        rmw.kind = CpuOpKind::AtomicRmw;
        rmw.addr = 0x1000;
        rmw.dtype = DataType::Int32;
        CpuOp acq;
        acq.kind = CpuOpKind::LockAcquire;
        acq.addr = 0x3000;
        acq.lock_id = 0;
        CpuOp alu;
        alu.kind = CpuOpKind::Alu;
        CpuOp rel;
        rel.kind = CpuOpKind::LockRelease;
        rel.addr = 0x3000;
        rel.lock_id = 0;
        CpuOp fence;
        fence.kind = CpuOpKind::Fence;
        CpuOp bar;
        bar.kind = CpuOpKind::Barrier;
        p.body = {rmw, acq, alu, rel, fence, bar};
        p.iterations = 30;
        programs.push_back(std::move(p));
    }
    return programs;
}

/** testConfig() with the Threadripper's transfer jitter, so a
 * run's cycles depend on its seed. */
CpuConfig
jitteredConfig()
{
    CpuConfig c = testConfig();
    c.jitter_frac = 0.35;
    return c;
}

/** Cycles and stats of one run agree with another's. */
void
expectSameRun(const CpuRunResult &a, const CpuMachine &ma,
              const CpuRunResult &b, const CpuMachine &mb)
{
    EXPECT_EQ(a.thread_cycles, b.thread_cycles);
    EXPECT_EQ(a.total_cycles, b.total_cycles);
    EXPECT_EQ(ma.stats().all(), mb.stats().all());
}

TEST(CpuMachineImage, BuiltImageRunMatchesColdRun)
{
    const auto programs = imageTestPrograms();
    CpuMachine cold(testConfig(), Affinity::System, 5);
    const auto want = cold.run(programs, 2);

    CpuMachine warm(testConfig(), Affinity::System, 5);
    const CpuMachine::DecodedImage image = warm.decode(programs);
    expectSameRun(warm.run(image, 2), warm, want, cold);
    // Replaying the image again stays identical.
    warm.reseed(5);
    expectSameRun(warm.run(image, 2), warm, want, cold);
}

TEST(CpuMachineImage, ReplaysAcrossReseeds)
{
    // One image, replayed under interleaved seeds of a jittered
    // model, gives each seed exactly what a fresh machine built with
    // that seed gives for the programs -- and so does the seeded
    // run(programs).
    const auto programs = imageTestPrograms();
    CpuMachine machine(jitteredConfig(), Affinity::Spread);
    const CpuMachine::DecodedImage image = machine.decode(programs);
    std::map<std::uint64_t, std::vector<sim::Tick>> cycles;
    for (const std::uint64_t seed : {3, 11, 3, 7}) {
        SCOPED_TRACE(seed);
        CpuMachine fresh(jitteredConfig(), Affinity::Spread, seed);
        const auto want = fresh.run(programs, 2);
        machine.reseed(seed);
        expectSameRun(machine.run(image, 2), machine, want, fresh);
        expectSameRun(machine.run(programs, 2, seed), machine, want,
                      fresh);
        cycles[seed] = want.thread_cycles;
    }
    EXPECT_NE(cycles[3], cycles[11]) << "the jitter never reached the cycles";
}

TEST(CpuMachineImage, RunsOnASecondMachine)
{
    // An image holds no machine state: decoded on one machine, it runs
    // on another of the same config exactly as there.
    const auto programs = imageTestPrograms();
    CpuMachine a(jitteredConfig(), Affinity::Close, 9);
    CpuMachine b(jitteredConfig(), Affinity::Close, 9);
    const CpuMachine::DecodedImage image = a.decode(programs);
    const auto on_a = a.run(image, 2);
    expectSameRun(b.run(image, 2), b, on_a, a);
    b.reseed(9);
    expectSameRun(b.run(programs, 2), b, on_a, a);
}

/** @p n_threads copies of a one-op program. */
std::vector<CpuProgram>
oneOpPrograms(CpuOpKind kind, DataType dtype, int n_threads)
{
    CpuOp o;
    o.kind = kind;
    o.addr = 0x1000;
    o.dtype = dtype;
    CpuProgram p;
    p.body = {o};
    p.iterations = 50;
    return std::vector<CpuProgram>(static_cast<std::size_t>(n_threads),
                                   p);
}

TEST(CpuMachineImage, DtypeMergedProgramsShareAFingerprint)
{
    // The decode collapse the launch memo exploits: int and
    // unsigned-long-long atomic updates decode to the same handler
    // stream, so their images fingerprint equal and their runs are
    // the same walk.
    const auto a = oneOpPrograms(CpuOpKind::AtomicRmw, DataType::Int32, 4);
    const auto b =
        oneOpPrograms(CpuOpKind::AtomicRmw, DataType::UInt64, 4);
    const auto c = oneOpPrograms(CpuOpKind::Load, DataType::Int32, 4);
    CpuMachine machine(testConfig(), Affinity::Close);
    const auto image_a = machine.decode(a);
    const auto image_b = machine.decode(b);
    EXPECT_NE(image_a.fingerprint, 0u);
    EXPECT_EQ(image_a.fingerprint, image_b.fingerprint);
    EXPECT_NE(image_a.fingerprint, machine.decode(c).fingerprint);

    machine.reseed(5);
    const auto run_a = machine.run(image_a, 2);
    const auto stats_a = machine.stats().all();
    machine.reseed(5);
    const auto run_b = machine.run(image_b, 2);
    EXPECT_EQ(run_b.total_cycles, run_a.total_cycles);
    EXPECT_EQ(run_b.thread_cycles, run_a.thread_cycles);
    EXPECT_EQ(machine.stats().all(), stats_a);
}

} // namespace
} // namespace syncperf::cpusim
