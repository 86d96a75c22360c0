/**
 * @file
 * Randomized robustness tests: seeded random SPMD programs and
 * kernels must always complete (no deadlock, no assertion failures),
 * deterministically, with plausible timing -- and exactly as they do
 * with loop batching off. The programs, iteration counts, systems and
 * launch shapes are drawn so that the shared sim::LoopBatcher engages,
 * so a fingerprint that misses a live field shows up here as a cycle
 * or stat difference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "cpusim/machine.hh"
#include "gpusim/machine.hh"

namespace syncperf
{
namespace
{

// ---------------------------------------------------------------- CPU

/** Build one random SPMD body; all threads share the structure so
 * barriers and locks stay balanced. */
std::vector<cpusim::CpuOp>
randomCpuBody(Pcg32 &rng)
{
    using cpusim::CpuOp;
    using cpusim::CpuOpKind;
    const int len = 1 + static_cast<int>(rng.below(6));
    std::vector<CpuOp> body;
    for (int i = 0; i < len; ++i) {
        CpuOp op;
        switch (rng.below(8)) {
          case 0: op.kind = CpuOpKind::Load; break;
          case 1: op.kind = CpuOpKind::Store; break;
          case 2: op.kind = CpuOpKind::AtomicRmw; break;
          case 3: op.kind = CpuOpKind::AtomicLoad; break;
          case 4: op.kind = CpuOpKind::AtomicStore; break;
          case 5: op.kind = CpuOpKind::Fence; break;
          case 6: op.kind = CpuOpKind::Alu; break;
          case 7: op.kind = CpuOpKind::Barrier; break;
        }
        op.addr = 0x1000 + rng.below(4) * 0x40;
        op.dtype = all_data_types[rng.below(4)];
        body.push_back(op);
    }
    // Optionally wrap everything in a critical section -- but never
    // around a barrier: a thread waiting at a barrier while holding
    // the lock deadlocks the team (the machine correctly panics on
    // that, which is its own test below).
    bool has_barrier = false;
    for (const auto &op : body)
        has_barrier |= (op.kind == CpuOpKind::Barrier);
    if (!has_barrier && rng.below(3) == 0) {
        CpuOp acq;
        acq.kind = CpuOpKind::LockAcquire;
        acq.addr = 0x3000;
        CpuOp rel;
        rel.kind = CpuOpKind::LockRelease;
        rel.addr = 0x3000;
        body.insert(body.begin(), acq);
        body.push_back(rel);
    }
    return body;
}

/** Field-for-field equality of two runs' stats: counters, every
 * histogram bucket (min/max only where a bucket holds samples) and
 * the string-keyed extras. */
void
expectSameStats(const sim::StatSet &a, const sim::StatSet &b)
{
    sim::StatSnapshot sa;
    sim::StatSnapshot sb;
    a.snapshot(sa);
    b.snapshot(sb);
    EXPECT_EQ(sa.counters, sb.counters);
    for (std::size_t h = 0; h < sa.hists.size(); ++h) {
        ASSERT_EQ(sa.hists[h].size(), sb.hists[h].size()) << "hist " << h;
        for (std::size_t i = 0; i < sa.hists[h].size(); ++i) {
            const Histogram::Bucket &x = sa.hists[h][i];
            const Histogram::Bucket &y = sb.hists[h][i];
            EXPECT_EQ(x.count, y.count) << "hist " << h << " bucket " << i;
            EXPECT_EQ(x.sum, y.sum) << "hist " << h << " bucket " << i;
            if (x.count > 0) {
                EXPECT_EQ(x.min, y.min) << "hist " << h << " bucket " << i;
                EXPECT_EQ(x.max, y.max) << "hist " << h << " bucket " << i;
            }
        }
    }
    EXPECT_EQ(a.all(), b.all());
}

/** The seeds each parameterized fuzz suite runs as its own test. */
constexpr int first_seed = 1;
constexpr int end_seed = 26;

/** The FuzzCorpus sweeps run the differential in-process up to here:
 * some omissions from a fingerprint show only in a few cases per
 * hundred (an unencoded pending-event set, for one). */
constexpr int sweep_end_seed = 201;

/** One seeded CPU case: a system, a placement and a team. */
struct CpuCase
{
    cpusim::CpuConfig cfg;
    Affinity affinity = Affinity::System;
    std::vector<cpusim::CpuProgram> programs;
};

CpuCase
randomCpuCase(int seed)
{
    Pcg32 rng(static_cast<std::uint64_t>(seed), 17);
    CpuCase c;
    switch (rng.below(3)) {
      case 0: c.cfg = cpusim::CpuConfig::system1(); break;
      case 1: c.cfg = cpusim::CpuConfig::system2(); break;
      default: c.cfg = cpusim::CpuConfig::system3(); break;
    }
    const Affinity affinities[] = {Affinity::System, Affinity::Spread,
                                   Affinity::Close};
    c.affinity = affinities[rng.below(3)];
    const int threads = 1 + static_cast<int>(rng.below(16));
    const auto shared_body = randomCpuBody(rng);

    std::vector<cpusim::CpuProgram> programs;
    for (int t = 0; t < threads; ++t) {
        cpusim::CpuProgram p;
        p.body = shared_body;
        // Give array-ish ops per-thread addresses sometimes.
        for (auto &op : p.body) {
            if (rng.below(2) == 0 &&
                op.kind != cpusim::CpuOpKind::Barrier &&
                op.kind != cpusim::CpuOpKind::LockAcquire &&
                op.kind != cpusim::CpuOpKind::LockRelease) {
                op.addr = 0x100000 +
                          static_cast<std::uint64_t>(t) * 8 *
                              dataTypeSize(op.dtype);
            }
        }
        // Long enough for the batcher to anchor, match and jump.
        p.iterations = 8 + static_cast<long>(rng.below(293));
        c.programs.push_back(std::move(p));
    }
    // Iterations must match when the body holds a barrier.
    bool has_barrier = false;
    for (const auto &op : shared_body)
        has_barrier |= (op.kind == cpusim::CpuOpKind::Barrier);
    if (has_barrier) {
        for (auto &p : c.programs)
            p.iterations = c.programs.front().iterations;
    }
    return c;
}

class CpuFuzz : public ::testing::TestWithParam<int>
{
};

/** Run @p c with batching on and off and expect identical cycles
 * and stats; returns the batched run's counters. */
sim::LoopBatchCounters
expectCpuBatchingExact(const CpuCase &c)
{
    cpusim::CpuMachine batched(c.cfg, c.affinity, 7);
    cpusim::CpuMachine stepped(c.cfg, c.affinity, 7);
    stepped.setLoopBatch(false);
    const auto rb = batched.run(c.programs, 2);
    const auto rs = stepped.run(c.programs, 2);
    EXPECT_EQ(rb.thread_cycles.size(), c.programs.size());
    EXPECT_EQ(rb.thread_cycles, rs.thread_cycles);
    EXPECT_EQ(rb.total_cycles, rs.total_cycles);
    expectSameStats(batched.stats(), stepped.stats());
    EXPECT_EQ(stepped.loopBatch().windows, 0u);
    for (auto cycles : rb.thread_cycles)
        EXPECT_GT(cycles, 0u);
    return batched.loopBatch();
}

TEST_P(CpuFuzz, RandomProgramsCompleteDeterministically)
{
    expectCpuBatchingExact(randomCpuCase(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CpuFuzz,
                         ::testing::Range(first_seed, end_seed));

TEST(FuzzCorpus, CpuSeedsBatchAndTheSweepMatchesSingleStep)
{
    // The differential proves nothing for seeds that never batch; the
    // parameterized seeds as a whole must jump somewhere.
    sim::LoopBatchCounters lb;
    for (int seed = first_seed; seed < sweep_end_seed; ++seed) {
        SCOPED_TRACE(seed);
        const sim::LoopBatchCounters one =
            expectCpuBatchingExact(randomCpuCase(seed));
        if (seed < end_seed)
            lb.merge(one);
    }
    EXPECT_GT(lb.windows, 0u);
    EXPECT_GT(lb.batched_iters, 0u);
}

TEST(CpuDeadlock, BarrierInsideCriticalSectionIsDetected)
{
    // Thread 0 reaches the barrier holding the lock; thread 1 cannot
    // pass LockAcquire: the machine must diagnose the deadlock
    // instead of hanging.
    using cpusim::CpuOp;
    using cpusim::CpuOpKind;
    CpuOp acq;
    acq.kind = CpuOpKind::LockAcquire;
    acq.addr = 0x3000;
    CpuOp barrier;
    barrier.kind = CpuOpKind::Barrier;
    CpuOp rel;
    rel.kind = CpuOpKind::LockRelease;
    rel.addr = 0x3000;

    cpusim::CpuProgram p;
    p.body = {acq, barrier, rel};
    p.iterations = 2;
    cpusim::CpuMachine machine(cpusim::CpuConfig::system3(),
                               Affinity::System);
    ScopedLogCapture capture;
    EXPECT_THROW(machine.run({p, p}, 1), LogDeathException);
}

// ---------------------------------------------------------------- GPU

gpusim::GpuKernel
randomGpuKernel(Pcg32 &rng)
{
    using gpusim::AddressMode;
    using gpusim::AtomicOp;
    using gpusim::GpuOp;
    gpusim::GpuKernel k;
    const int len = 1 + static_cast<int>(rng.below(5));
    for (int i = 0; i < len; ++i) {
        switch (rng.below(11)) {
          case 0: k.body.push_back(GpuOp::alu()); break;
          case 1: k.body.push_back(GpuOp::syncWarp()); break;
          case 2: k.body.push_back(GpuOp::syncThreads()); break;
          case 3:
            k.body.push_back(GpuOp::shfl(all_data_types[rng.below(4)]));
            break;
          case 4: k.body.push_back(GpuOp::vote()); break;
          case 5:
            k.body.push_back(GpuOp::globalAtomic(
                rng.below(2) ? AtomicOp::Add : AtomicOp::Max,
                rng.below(2) ? AddressMode::SingleShared
                             : AddressMode::PerThread,
                0x1000, all_data_types[rng.below(4)],
                1 + static_cast<int>(rng.below(32))));
            break;
          case 6:
            k.body.push_back(GpuOp::globalAtomic(
                rng.below(2) ? AtomicOp::Cas : AtomicOp::Exch,
                AddressMode::SingleShared, 0x2000,
                rng.below(2) ? DataType::Int32 : DataType::UInt64));
            break;
          case 7:
            k.body.push_back(
                GpuOp::sharedAtomic(AtomicOp::Add, 0x5000));
            break;
          case 8:
            k.body.push_back(GpuOp::globalLoad(0x100000));
            break;
          case 9: {
            // A system-scope fence draws jitter: the batcher's
            // randomness early-out.
            const gpusim::FenceScope scopes[] = {
                gpusim::FenceScope::Block, gpusim::FenceScope::Device,
                gpusim::FenceScope::System};
            k.body.push_back(GpuOp::fence(scopes[rng.below(3)]));
            break;
          }
          case 10:
            k.body.push_back(GpuOp::globalStore(
                0x200000, all_data_types[rng.below(4)],
                1 + static_cast<int>(rng.below(32))));
            break;
        }
    }
    // Long enough for the batcher to anchor, match and jump.
    k.body_iters = 8 + static_cast<long>(rng.below(293));
    return k;
}

/** One seeded GPU case: a machine config, a kernel and a launch. */
struct GpuCase
{
    gpusim::GpuConfig cfg;
    gpusim::GpuKernel kernel;
    gpusim::LaunchConfig launch;
};

GpuCase
randomGpuCase(int seed)
{
    Pcg32 rng(static_cast<std::uint64_t>(seed), 23);
    GpuCase c;
    switch (rng.below(3)) {
      case 0: c.cfg = gpusim::GpuConfig::rtx2070Super(); break;
      case 1: c.cfg = gpusim::GpuConfig::a100(); break;
      default: c.cfg = gpusim::GpuConfig::rtx4090(); break;
    }
    // Power-of-two and not, fewer and more units than the presets.
    const int units[] = {1, 7, 16, 40, 48};
    c.cfg.l2_atomic_units = units[rng.below(5)];
    // A short fire-and-forget window makes atomics wait on the unit
    // queues, so their stamps reach the results.
    if (rng.below(2) == 0)
        c.cfg.ff_window = 32;
    c.kernel = randomGpuKernel(rng);
    c.launch.threads_per_block = static_cast<int>(1 + rng.below(256));
    if (rng.below(3) == 0) {
        // Multi-wave: shrink the device to a few SMs, then launch
        // two to three times the blocks it can hold at once, so
        // block turnover hands the trigger across waves.
        c.cfg.sm_count = 1 + static_cast<int>(rng.below(3));
        const int warp_slots = c.cfg.max_threads_per_sm / c.cfg.warp_size;
        const int warps_per_block =
            c.cfg.warpsPerBlock(c.launch.threads_per_block);
        const int resident =
            c.cfg.sm_count * std::min(c.cfg.max_blocks_per_sm,
                                      warp_slots / warps_per_block);
        c.launch.blocks =
            resident * 2 + static_cast<int>(rng.below(
                               static_cast<std::uint32_t>(resident) + 1));
    } else {
        c.launch.blocks = 1 + static_cast<int>(rng.below(8));
    }
    return c;
}

class GpuFuzz : public ::testing::TestWithParam<int>
{
};

/** The GPU counterpart of expectCpuBatchingExact(). */
sim::LoopBatchCounters
expectGpuBatchingExact(const GpuCase &c)
{
    gpusim::GpuMachine batched(c.cfg, 9);
    gpusim::GpuMachine stepped(c.cfg, 9);
    stepped.setLoopBatch(false);
    const auto rb = batched.run(c.kernel, c.launch, 1);
    const auto rs = stepped.run(c.kernel, c.launch, 1);
    EXPECT_EQ(rb.thread_cycles, rs.thread_cycles);
    EXPECT_EQ(rb.total_cycles, rs.total_cycles);
    expectSameStats(batched.stats(), stepped.stats());
    EXPECT_EQ(stepped.loopBatch().windows, 0u);
    EXPECT_EQ(rb.thread_cycles.size(),
              static_cast<std::size_t>(c.launch.blocks) *
                  c.launch.threads_per_block);
    EXPECT_GT(rb.total_cycles, 0u);
    return batched.loopBatch();
}

TEST_P(GpuFuzz, RandomKernelsCompleteDeterministically)
{
    expectGpuBatchingExact(randomGpuCase(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GpuFuzz,
                         ::testing::Range(first_seed, end_seed));

TEST(FuzzCorpus, GpuSeedsBatchAndTheSweepMatchesSingleStep)
{
    sim::LoopBatchCounters lb;
    for (int seed = first_seed; seed < sweep_end_seed; ++seed) {
        SCOPED_TRACE(seed);
        const sim::LoopBatchCounters one =
            expectGpuBatchingExact(randomGpuCase(seed));
        if (seed < end_seed)
            lb.merge(one);
    }
    EXPECT_GT(lb.windows, 0u);
    EXPECT_GT(lb.batched_iters, 0u);
}

// --------------------------------------------- GPU monotonicity

class GpuContentionMonotonicity
    : public ::testing::TestWithParam<gpusim::AtomicOp>
{
};

TEST_P(GpuContentionMonotonicity, PerThreadThroughputNonIncreasing)
{
    using gpusim::GpuOp;
    gpusim::GpuKernel k;
    k.body = {GpuOp::globalAtomic(GetParam(),
                                  gpusim::AddressMode::SingleShared,
                                  0x1000)};
    k.body_iters = 40;

    double previous_rate = -1.0;
    for (int threads : {2, 8, 32, 128, 512, 1024}) {
        gpusim::GpuMachine machine(gpusim::GpuConfig::rtx4090());
        const auto r = machine.run(k, {1, threads}, 2);
        sim::Tick max_cycles = 0;
        for (auto c : r.thread_cycles)
            max_cycles = std::max(max_cycles, c);
        const double rate = 1.0 / static_cast<double>(max_cycles);
        if (previous_rate >= 0.0)
            EXPECT_LE(rate, previous_rate * 1.03) << threads;
        previous_rate = rate;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AtomicOps, GpuContentionMonotonicity,
    ::testing::Values(gpusim::AtomicOp::Add, gpusim::AtomicOp::Max,
                      gpusim::AtomicOp::Cas, gpusim::AtomicOp::Exch),
    [](const ::testing::TestParamInfo<gpusim::AtomicOp> &info) {
        switch (info.param) {
          case gpusim::AtomicOp::Add: return "add";
          case gpusim::AtomicOp::Max: return "max";
          case gpusim::AtomicOp::Cas: return "cas";
          case gpusim::AtomicOp::Exch: return "exch";
        }
        return "unknown";
    });

} // namespace
} // namespace syncperf
