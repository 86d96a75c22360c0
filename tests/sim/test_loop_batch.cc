/**
 * @file
 * Tests for steady-state loop batching (docs/performance.md, "Loop
 * batching"). The shared sim::LoopBatcher is first driven alone by a
 * scripted host -- anchor matching, the randomness early-out, the
 * backoff, the horizon clamp and the trigger hand-off -- and the
 * state visitors it fingerprints and jumps with are checked one
 * liveness class at a time. Then, for every workload class the
 * simulators model, a batched run must produce cycle counts
 * bit-identical to single-stepping, the batcher must engage on
 * uncontended steady states, fall back around contention, and respect
 * a pinned horizon.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "cpusim/machine.hh"
#include "gpusim/machine.hh"
#include "sim/loop_batch.hh"

namespace syncperf
{
namespace
{

// ---------------------------------------------------- LoopBatcher

/** A host whose fingerprints are scripted by the test. */
struct FakeHost
{
    std::vector<long> iters;
    std::uint64_t rng = 1;
    std::uint64_t fp = 0;                ///< what the next encode reports
    sim::Tick now = 0;                   ///< the boundary being crossed
    mutable std::vector<sim::Tick> encodes;  ///< base of every encode
    sim::Tick shifted = 0;               ///< sum of the jumps

    template <class Self, class V>
    static void
    visitState(Self &self, V &v)
    {
        if constexpr (std::is_const_v<Self>)
            self.encodes.push_back(self.now);
        v.word(self.fp);
        // Encodes as dead and moves with every jump.
        v.gatedMaxReg(false, self.shifted);
    }
    int actorCount() const { return static_cast<int>(iters.size()); }
    long &itersLeft(int actor) { return iters[actor]; }
    std::uint64_t rngState() const { return rng; }
};

/** A batcher bound to a fresh queue and stat set, plus its host. */
struct Rig
{
    sim::EventQueue eq;
    sim::StatSet stats;
    sim::LoopBatcher lb;
    FakeHost host;

    explicit Rig(std::vector<long> iters)
    {
        host.iters = std::move(iters);
        lb.beginRun(eq, stats, 0);
    }

    /** One timed boundary of @p actor, then the machine's decrement. */
    sim::Tick
    cross(int actor, sim::Tick done)
    {
        host.now = done;
        const sim::Tick shift = lb.boundary(host, actor, done);
        --host.iters[actor];
        return shift;
    }
};

TEST(LoopBatcher, PeriodThreeRotationMatchesTheAnchorThreeBoundariesBack)
{
    // The trigger (actor 0) rotates through fingerprints A, B, C with
    // 10 ticks per boundary; actor 1 runs two iterations per trigger
    // iteration. B's fallback retries at the next boundary and C's
    // skips round 3 (A), so round 4 is the first to see a repeat, B,
    // and it must close the cycle against round 1, not the newest
    // anchor (C).
    Rig r({1000, 5000});
    const std::uint64_t pattern[] = {0xA, 0xB, 0xC};
    sim::Tick shift = 0;
    for (int round = 0; round < 5; ++round) {
        r.host.fp = pattern[round % 3];
        r.stats.inc(sim::Probe::CpuL1Hit);
        shift = r.cross(0, 10 * (round + 1));
        if (round < 4) {
            EXPECT_EQ(shift, 0u);
            EXPECT_EQ(r.cross(1, 10 * (round + 1)), 0u);
            EXPECT_EQ(r.cross(1, 10 * (round + 1)), 0u);
        }
    }
    EXPECT_EQ(r.host.encodes, (std::vector<sim::Tick>{10, 20, 30, 50}));

    // Δ = 50 - 20 and d = (3, 6), both from round 1's anchor; actor 0
    // limits k to (996 - 2) / 3 = 331.
    EXPECT_EQ(shift, 30u * 331u);
    EXPECT_EQ(r.host.shifted, shift);
    EXPECT_EQ(r.host.iters[0], 996 - 331 * 3 - 1);
    EXPECT_EQ(r.host.iters[1], 4992 - 331 * 6);
    const sim::LoopBatchCounters &c = r.lb.counters();
    EXPECT_EQ(c.windows, 1u);
    EXPECT_EQ(c.fallbacks, 2u);
    EXPECT_EQ(c.batched_iters, 331u * 9u);
    // The stats recorded since the anchor (3 increments) replay k times.
    EXPECT_EQ(r.stats.get(sim::Probe::CpuL1Hit), 5u + 331u * 3u);
}

TEST(LoopBatcher, RngChangeDropsEveryAnchorWithoutEncoding)
{
    Rig r({1000});
    r.host.fp = 0xA;
    r.cross(0, 10);    // encode, anchor A
    r.host.fp = 0xB;
    r.cross(0, 20);    // encode, fall back (skip 0)
    r.host.rng = 2;
    r.cross(0, 30);    // randomness consumed: no encode
    EXPECT_EQ(r.host.encodes.size(), 2u);
    EXPECT_EQ(r.lb.counters().fallbacks, 2u);

    r.cross(0, 40);    // backoff (skip 1)
    r.host.fp = 0xA;
    r.cross(0, 50);    // A again, but round 0's anchor is gone
    EXPECT_EQ(r.host.encodes.size(), 3u);
    EXPECT_EQ(r.lb.counters().windows, 0u);
    EXPECT_EQ(r.lb.counters().fallbacks, 2u); // an empty ring misses freely
}

TEST(LoopBatcher, BackoffDoublesToTheCapAndResetsAfterAJump)
{
    Rig r({1000000});
    sim::Tick now = 0;
    std::uint64_t next_fp = 100;
    std::vector<int> gaps;
    // Every boundary reports a fresh fingerprint until @p n encodes
    // are seen (or a gap outgrows the cap); gaps collects the
    // boundaries from one encode to the next, each a skip plus one.
    const auto runUntil = [&](std::size_t n) {
        int since = 0;
        while (r.host.encodes.size() < n && since <= 256) {
            const std::size_t seen = r.host.encodes.size();
            now += 10;
            r.host.fp = next_fp++;
            now += r.cross(0, now);
            ++since;
            if (r.host.encodes.size() != seen) {
                gaps.push_back(since);
                since = 0;
            }
        }
    };
    now += 10;
    r.host.fp = next_fp++;
    r.cross(0, now);
    runUntil(13);
    EXPECT_EQ(gaps, (std::vector<int>{1, 1, 2, 4, 8, 16, 32, 64, 128, 256,
                                      256, 256}));

    // Repeat the newest anchor's fingerprint; the pin keeps the jump
    // to one period (Δ = 256 boundaries).
    const std::size_t before = r.host.encodes.size();
    r.host.fp = next_fp - 1;
    for (int i = 0; i < 256 && r.host.encodes.size() == before; ++i) {
        now += 10;
        r.eq.pinHorizon(now + 2561);
        now += r.cross(0, now);
    }
    r.eq.clearHorizonPin();
    EXPECT_EQ(r.lb.counters().windows, 1u);
    EXPECT_EQ(r.host.shifted, 2560u);

    gaps.clear();
    runUntil(before + 5);
    EXPECT_EQ(gaps, (std::vector<int>{1, 1, 2, 4}));
}

TEST(LoopBatcher, PinCapsTheJumpAndAShortWindowReanchors)
{
    Rig r({1000});
    r.host.fp = 7; // a period of one boundary
    EXPECT_EQ(r.cross(0, 10), 0u);

    // The pin leaves room for five periods of 10 ticks.
    r.eq.pinHorizon(70);
    EXPECT_EQ(r.cross(0, 20), 50u);
    EXPECT_EQ(r.host.iters[0], 999 - 5 - 1);
    EXPECT_EQ(r.lb.counters().batched_iters, 5u);

    // Past the pin k < 1: fall back and anchor this boundary instead.
    EXPECT_EQ(r.cross(0, 80), 0u);
    EXPECT_EQ(r.lb.counters().fallbacks, 1u);
    // The retry at the next boundary is still pinned: fall back and
    // anchor again, then back off.
    EXPECT_EQ(r.cross(0, 90), 0u);
    EXPECT_EQ(r.lb.counters().fallbacks, 2u);
    r.cross(0, 100); // backoff

    // Unpinned, the match is against the tick-90 anchor: Δ = 20 and
    // d = 2 (the tick-80 anchor would give 30 and 3).
    r.eq.clearHorizonPin();
    EXPECT_EQ(r.host.iters[0], 990);
    EXPECT_EQ(r.cross(0, 110), 20u * ((990 - 2) / 2));
    EXPECT_EQ(r.lb.counters().windows, 2u);
}

TEST(LoopBatcher, ActorNearItsLoopExitVacatesTheTrigger)
{
    Rig r({6, 100});
    std::uint64_t next_fp = 1;
    for (int round = 0; round < 5; ++round) {
        r.host.fp = next_fp++;
        r.cross(0, 10 * round + 1);
        r.host.fp = next_fp++;
        r.cross(1, 10 * round + 2);
    }
    // Actor 0 triggers with 6, 5 and 4 iterations left, vacates at 3;
    // actor 1 takes over, honors the backoff that survived the
    // hand-off (round 3), and starts with an empty ring (round 4
    // records no fallback).
    EXPECT_EQ(r.host.encodes, (std::vector<sim::Tick>{1, 11, 21, 42}));
    EXPECT_EQ(r.lb.counters().fallbacks, 2u);
}

// ------------------------------------- StateEncoder / StateShifter

/** A host state with one field of each liveness class. */
struct ClassHost
{
    std::uint64_t word = 0x77;
    sim::Tick reg = 0;
    int actor = 1;
    sim::Tick actor_reg = 0;
    bool gate_live = true;
    sim::Tick gated = 0;
    sim::Tick stamp = 0;
    int arrivals = 0;
    sim::Tick rendezvous = 0;
    std::unordered_map<std::uint64_t, sim::Tick> map;
    std::vector<int> ids;
    std::vector<sim::Tick> regs;

    template <class Self, class V>
    static void
    visitState(Self &self, V &v)
    {
        v.word(self.word);
        v.maxReg(self.reg);
        v.actorMaxReg(self.actor, self.actor_reg);
        v.gatedMaxReg(self.gate_live, self.gated);
        v.stamp(self.stamp);
        v.stampIf(self.arrivals > 0, self.rendezvous);
        v.map(self.map, [&v](auto &t) { v.maxReg(t); });
        v.words(self.ids);
        v.maxRegs(self.regs);
    }
};

/** Word positions of ClassHost's fields in an encode (after rng). */
enum ClassWord
{
    RngWord,
    PlainWord,
    RegWord,
    ActorRegWord,
    GatedWord,
    StampWord,
    RendezvousWord,
    MapSizeWord,
};

/** Encode @p h at boundary @p base, with two actors, against @p eq. */
std::vector<std::uint64_t>
encodeAt(const ClassHost &h, const sim::EventQueue &eq, sim::Tick base)
{
    sim::StateEncoder enc;
    std::vector<std::uint64_t> out;
    enc.begin(eq, base, 0x5eed, 2, out);
    ClassHost::visitState(h, enc);
    enc.finish();
    return out;
}

/** The encoded offset of tick @p t from @p base. */
std::uint64_t
offset(sim::Tick t, sim::Tick base)
{
    return static_cast<std::uint64_t>(t - base);
}

TEST(StateEncoder, MaxRegAtOrBelowTheFloorEncodesDead)
{
    sim::EventQueue eq(2);
    ClassHost h;
    h.reg = 100;
    auto out = encodeAt(h, eq, 100); // no events: the floor is the base
    EXPECT_EQ(out[RngWord], 0x5eedu);
    EXPECT_EQ(out[PlainWord], 0x77u);
    EXPECT_EQ(out[RegWord], sim::StateEncoder::dead);
    h.reg = 101;
    EXPECT_EQ(encodeAt(h, eq, 100)[RegWord], 1u);

    // A pending event before the boundary lowers the floor to it: a
    // register between the two can still win a max().
    eq.wake(60, 0);
    h.reg = 80;
    EXPECT_EQ(encodeAt(h, eq, 100)[RegWord], offset(80, 100));
    h.reg = 60;
    EXPECT_EQ(encodeAt(h, eq, 100)[RegWord], sim::StateEncoder::dead);
}

TEST(StateEncoder, ActorFloorOverridesALowerGlobalFloor)
{
    sim::EventQueue eq(2);
    eq.wake(150, 1); // actor 1's next wake
    ClassHost h;
    h.reg = 120;
    h.actor_reg = 120;
    auto out = encodeAt(h, eq, 100);
    EXPECT_EQ(out[RegWord], 20u);                        // global floor 100
    EXPECT_EQ(out[ActorRegWord], sim::StateEncoder::dead); // actor floor 150
    h.actor_reg = 151;
    EXPECT_EQ(encodeAt(h, eq, 100)[ActorRegWord], 51u);

    // An actor with nothing pending keeps the global floor.
    h.actor = 0;
    h.actor_reg = 120;
    EXPECT_EQ(encodeAt(h, eq, 100)[ActorRegWord], 20u);
}

TEST(StateEncoder, GatedMaxRegIsDeadWhileItsGateIsClosed)
{
    sim::EventQueue eq;
    ClassHost h;
    h.gated = 130;
    EXPECT_EQ(encodeAt(h, eq, 100)[GatedWord], 30u);
    h.gated = 100; // an open gate keeps the floor
    EXPECT_EQ(encodeAt(h, eq, 100)[GatedWord], sim::StateEncoder::dead);
    h.gated = 130;
    h.gate_live = false;
    EXPECT_EQ(encodeAt(h, eq, 100)[GatedWord], sim::StateEncoder::dead);
}

TEST(StateEncoder, StampsKeepTheirOffsetBelowTheFloor)
{
    sim::EventQueue eq;
    ClassHost h;
    h.stamp = 40;
    EXPECT_EQ(encodeAt(h, eq, 100)[StampWord], offset(40, 100));
}

TEST(StateEncoder, InactiveStampIfEncodesZeroAndIsNotShifted)
{
    sim::EventQueue eq;
    ClassHost h;
    h.rendezvous = 90;
    EXPECT_EQ(encodeAt(h, eq, 100)[RendezvousWord], 0u);
    sim::StateShifter shift(40);
    ClassHost::visitState(h, shift);
    EXPECT_EQ(h.rendezvous, 90u);

    h.arrivals = 1;
    EXPECT_EQ(encodeAt(h, eq, 100)[RendezvousWord], offset(90, 100));
    ClassHost::visitState(h, shift);
    EXPECT_EQ(h.rendezvous, 130u);
}

TEST(StateEncoder, MapEncodingIgnoresInsertionOrder)
{
    sim::EventQueue eq;
    ClassHost a;
    ClassHost b;
    for (std::uint64_t key : {3, 1, 2})
        a.map[key] = 100 + key;
    b.map.reserve(64);
    for (std::uint64_t key : {2, 3, 1})
        b.map[key] = 100 + key;
    const auto order = [](const ClassHost &h) {
        std::vector<std::uint64_t> keys;
        for (const auto &kv : h.map)
            keys.push_back(kv.first);
        return keys;
    };
    ASSERT_NE(order(a), order(b)); // the maps iterate differently

    const auto out = encodeAt(a, eq, 100);
    EXPECT_EQ(out, encodeAt(b, eq, 100));
    const std::vector<std::uint64_t> entries(out.begin() + MapSizeWord,
                                             out.begin() + MapSizeWord + 7);
    EXPECT_EQ(entries,
              (std::vector<std::uint64_t>{3, 1, 1, 2, 2, 3, 3}));
}

TEST(StateShifter, MovesEveryTimeFieldAndNoWord)
{
    ClassHost h;
    h.reg = 10;
    h.actor_reg = 20;
    h.gate_live = false; // a closed gate still moves its register
    h.gated = 30;
    h.stamp = 40;
    h.arrivals = 2;
    h.rendezvous = 50;
    h.map = {{1, 60}, {2, 70}};
    h.ids = {8, 9};
    h.regs = {80, 90};
    sim::StateShifter shift(5);
    ClassHost::visitState(h, shift);
    EXPECT_EQ(h.word, 0x77u);
    EXPECT_EQ(h.actor, 1);
    EXPECT_EQ(h.arrivals, 2);
    EXPECT_EQ(h.ids, (std::vector<int>{8, 9}));
    EXPECT_EQ(h.reg, 15u);
    EXPECT_EQ(h.actor_reg, 25u);
    EXPECT_EQ(h.gated, 35u);
    EXPECT_EQ(h.stamp, 45u);
    EXPECT_EQ(h.rendezvous, 55u);
    EXPECT_EQ(h.map, (std::unordered_map<std::uint64_t, sim::Tick>{
                         {1, 65}, {2, 75}}));
    EXPECT_EQ(h.regs, (std::vector<sim::Tick>{85, 95}));
}

// ------------------------------------------------------------- CPU

cpusim::CpuOp
op(cpusim::CpuOpKind kind, std::uint64_t addr = 0,
   DataType dtype = DataType::Int32, int lock_id = 0)
{
    cpusim::CpuOp o;
    o.kind = kind;
    o.addr = addr;
    o.dtype = dtype;
    o.lock_id = lock_id;
    return o;
}

cpusim::CpuProgram
program(std::vector<cpusim::CpuOp> body, long iterations)
{
    cpusim::CpuProgram p;
    p.body = std::move(body);
    p.iterations = iterations;
    return p;
}

cpusim::CpuRunResult
runCpu(const std::vector<cpusim::CpuProgram> &programs, bool batch,
       sim::LoopBatchCounters *lb = nullptr,
       sim::Tick pin = sim::EventQueue::no_tick)
{
    cpusim::CpuMachine m(cpusim::CpuConfig{}, Affinity::Close, 42);
    m.setLoopBatch(batch);
    m.setBatchHorizonPin(pin);
    const auto r = m.run(programs, /*warmup_iterations=*/2);
    if (lb != nullptr)
        *lb = m.loopBatch();
    return r;
}

void
expectCpuIdentity(const std::vector<cpusim::CpuProgram> &programs,
                  sim::LoopBatchCounters &lb)
{
    const auto batched = runCpu(programs, true, &lb);
    const auto stepped = runCpu(programs, false);
    EXPECT_EQ(batched.total_cycles, stepped.total_cycles);
    EXPECT_EQ(batched.thread_cycles, stepped.thread_cycles);
}

TEST(CpuLoopBatch, UncontendedAluBatchesAndMatchesSingleStep)
{
    const std::vector<cpusim::CpuProgram> programs(
        4, program({op(cpusim::CpuOpKind::Alu)}, 200));
    sim::LoopBatchCounters lb;
    expectCpuIdentity(programs, lb);
    EXPECT_GT(lb.windows, 0u);
    EXPECT_GT(lb.batched_iters, 0u);
    EXPECT_EQ(lb.total_iters, 4u * 200u);
}

TEST(CpuLoopBatch, PrivateLineRmwBatchesAndMatchesSingleStep)
{
    std::vector<cpusim::CpuProgram> programs;
    for (int tid = 0; tid < 4; ++tid) {
        const std::uint64_t slot =
            0x1000 + static_cast<std::uint64_t>(tid) * 64;
        programs.push_back(program({op(cpusim::CpuOpKind::Load, slot),
                                    op(cpusim::CpuOpKind::Alu),
                                    op(cpusim::CpuOpKind::Store, slot)},
                                   200));
    }
    sim::LoopBatchCounters lb;
    expectCpuIdentity(programs, lb);
    EXPECT_GT(lb.batched_iters, 0u);
}

TEST(CpuLoopBatch, ContendedAtomicsMatchSingleStepAndFallBack)
{
    // All four threads hammer one shared line: the coherence pattern
    // keeps shifting, so boundary checks must keep falling back --
    // and whatever does batch must still change nothing.
    const std::vector<cpusim::CpuProgram> programs(
        4, program({op(cpusim::CpuOpKind::AtomicRmw, 0x2000)}, 150));
    sim::LoopBatchCounters lb;
    expectCpuIdentity(programs, lb);
    EXPECT_GT(lb.fallbacks, 0u);
}

TEST(CpuLoopBatch, BarrierTeamMatchesSingleStep)
{
    const std::vector<cpusim::CpuProgram> programs(
        8, program({op(cpusim::CpuOpKind::Alu),
                    op(cpusim::CpuOpKind::Barrier)},
                   150));
    sim::LoopBatchCounters lb;
    expectCpuIdentity(programs, lb);
}

TEST(CpuLoopBatch, LockLoopMatchesSingleStep)
{
    const std::vector<cpusim::CpuProgram> programs(
        4, program({op(cpusim::CpuOpKind::LockAcquire, 0x3000,
                       DataType::Int32, 1),
                    op(cpusim::CpuOpKind::Alu),
                    op(cpusim::CpuOpKind::LockRelease, 0x3000,
                       DataType::Int32, 1)},
                   150));
    sim::LoopBatchCounters lb;
    expectCpuIdentity(programs, lb);
    EXPECT_GT(lb.fallbacks, 0u);
}

TEST(CpuLoopBatch, MultiIterationRunRecordsAFallback)
{
    // The boundaries nearest the loop end can never batch past it,
    // so any run with >= 2 timed iterations records a fallback.
    const std::vector<cpusim::CpuProgram> programs(
        2, program({op(cpusim::CpuOpKind::Alu)}, 50));
    sim::LoopBatchCounters lb;
    expectCpuIdentity(programs, lb);
    EXPECT_GT(lb.fallbacks, 0u);
}

TEST(CpuLoopBatch, HorizonPinShrinksBatchingButNotResults)
{
    const std::vector<cpusim::CpuProgram> programs(
        4, program({op(cpusim::CpuOpKind::Alu)}, 200));

    sim::LoopBatchCounters unpinned;
    const auto reference = runCpu(programs, true, &unpinned);
    ASSERT_GT(unpinned.batched_iters, 0u);

    // Pin mid-run: windows may not jump across it, so strictly less
    // gets batched -- with identical cycle counts.
    sim::LoopBatchCounters pinned;
    const auto capped = runCpu(programs, true, &pinned,
                               reference.total_cycles / 2);
    EXPECT_EQ(capped.total_cycles, reference.total_cycles);
    EXPECT_EQ(capped.thread_cycles, reference.thread_cycles);
    EXPECT_LT(pinned.batched_iters, unpinned.batched_iters);

    // Pin at tick 0: every boundary is at or past it, nothing may
    // batch at all.
    sim::LoopBatchCounters frozen;
    const auto stepped = runCpu(programs, true, &frozen, 0);
    EXPECT_EQ(stepped.total_cycles, reference.total_cycles);
    EXPECT_EQ(stepped.thread_cycles, reference.thread_cycles);
    EXPECT_EQ(frozen.batched_iters, 0u);
    EXPECT_EQ(frozen.windows, 0u);
}

// ------------------------------------------------------------- GPU

gpusim::GpuKernel
kernel(std::vector<gpusim::GpuOp> body, long iterations)
{
    gpusim::GpuKernel k;
    k.body = std::move(body);
    k.body_iters = iterations;
    return k;
}

gpusim::GpuRunResult
runGpu(const gpusim::GpuKernel &k, gpusim::LaunchConfig launch,
       bool batch, sim::LoopBatchCounters *lb = nullptr,
       sim::Tick pin = sim::EventQueue::no_tick)
{
    gpusim::GpuMachine m(gpusim::GpuConfig{}, 7);
    m.setLoopBatch(batch);
    m.setBatchHorizonPin(pin);
    const auto r = m.run(k, launch, /*warmup_iterations=*/2);
    if (lb != nullptr)
        *lb = m.loopBatch();
    return r;
}

void
expectGpuIdentity(const gpusim::GpuKernel &k,
                  gpusim::LaunchConfig launch,
                  sim::LoopBatchCounters &lb)
{
    const auto batched = runGpu(k, launch, true, &lb);
    const auto stepped = runGpu(k, launch, false);
    EXPECT_EQ(batched.total_cycles, stepped.total_cycles);
    EXPECT_EQ(batched.warp_cycles, stepped.warp_cycles);
}

TEST(GpuLoopBatch, UncontendedAluBatchesAndMatchesSingleStep)
{
    sim::LoopBatchCounters lb;
    expectGpuIdentity(kernel({gpusim::GpuOp::alu(4)}, 100), {8, 128},
                      lb);
    EXPECT_GT(lb.windows, 0u);
    EXPECT_GT(lb.batched_iters, 0u);
}

TEST(GpuLoopBatch, SyncThreadsMatchesSingleStep)
{
    sim::LoopBatchCounters lb;
    expectGpuIdentity(kernel({gpusim::GpuOp::alu(),
                              gpusim::GpuOp::syncThreads()},
                             100),
                      {4, 256}, lb);
}

TEST(GpuLoopBatch, ContendedAtomicMatchesSingleStepAndFallsBack)
{
    sim::LoopBatchCounters lb;
    expectGpuIdentity(kernel({gpusim::GpuOp::globalAtomic(
                                 gpusim::AtomicOp::Cas,
                                 gpusim::AddressMode::SingleShared,
                                 0x200)},
                             100),
                      {8, 64}, lb);
    EXPECT_GT(lb.fallbacks, 0u);
}

TEST(GpuLoopBatch, GridSyncMatchesSingleStep)
{
    sim::LoopBatchCounters lb;
    expectGpuIdentity(kernel({gpusim::GpuOp::alu(),
                              gpusim::GpuOp::gridSync()},
                             80),
                      {4, 128}, lb);
}

TEST(GpuLoopBatch, MultiWaveLaunchMatchesSingleStep)
{
    // More blocks than can be resident: block turnover hands the
    // trigger role across waves, and every wave must still match.
    sim::LoopBatchCounters lb;
    expectGpuIdentity(kernel({gpusim::GpuOp::alu(8)}, 60),
                      {512, 1024}, lb);
    EXPECT_GT(lb.batched_iters, 0u);
}

TEST(GpuLoopBatch, SystemFenceDrawsJitterAndNeverBatches)
{
    // __threadfence_system draws per-iteration rng: the batcher's
    // randomness guard must keep it single-stepped forever.
    sim::LoopBatchCounters lb;
    expectGpuIdentity(kernel({gpusim::GpuOp::globalStore(0x600),
                              gpusim::GpuOp::fence(
                                  gpusim::FenceScope::System)},
                             80),
                      {4, 64}, lb);
    EXPECT_EQ(lb.windows, 0u);
    EXPECT_GT(lb.fallbacks, 0u);
}

TEST(GpuLoopBatch, HorizonPinShrinksBatchingButNotResults)
{
    const auto k = kernel({gpusim::GpuOp::alu(4)}, 100);
    const gpusim::LaunchConfig launch{8, 128};

    sim::LoopBatchCounters unpinned;
    const auto reference = runGpu(k, launch, true, &unpinned);
    ASSERT_GT(unpinned.batched_iters, 0u);

    sim::LoopBatchCounters pinned;
    const auto capped = runGpu(k, launch, true, &pinned,
                               reference.total_cycles / 2);
    EXPECT_EQ(capped.total_cycles, reference.total_cycles);
    EXPECT_EQ(capped.warp_cycles, reference.warp_cycles);
    EXPECT_LT(pinned.batched_iters, unpinned.batched_iters);

    sim::LoopBatchCounters frozen;
    const auto stepped = runGpu(k, launch, true, &frozen, 0);
    EXPECT_EQ(stepped.total_cycles, reference.total_cycles);
    EXPECT_EQ(stepped.warp_cycles, reference.warp_cycles);
    EXPECT_EQ(frozen.batched_iters, 0u);
}

} // namespace
} // namespace syncperf
