/**
 * @file
 * Tests for steady-state loop batching (docs/performance.md, "Loop
 * batching"). The shared sim::LoopBatcher is first driven alone by a
 * scripted host -- Brent's encode ticks and window doubling, the rng
 * gate, the k < 1 re-anchor and the trigger hand-off -- and the state
 * visitors it fingerprints and jumps with are checked one liveness
 * class at a time. Then, for every workload class the simulators
 * model, a batched run must produce cycle counts bit-identical to
 * single-stepping, the batcher must engage on uncontended steady
 * states, and fall back around contention.
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
    // iteration. Round 0 is spent on the rng gate, round 1 anchors,
    // and the anchor moves at rounds 2 and 4 (windows 1 and 2). With
    // the window at 4 the rotation closes at round 7, against the
    // round-4 anchor.
    Rig r({1000, 5000});
    const std::uint64_t pattern[] = {0xA, 0xB, 0xC};
    sim::Tick shift = 0;
    for (int round = 0; round < 8; ++round) {
        r.host.fp = pattern[round % 3];
        r.stats.inc(sim::Probe::CpuL1Hit);
        shift = r.cross(0, 10 * (round + 1));
        if (round < 7) {
            EXPECT_EQ(shift, 0u);
            EXPECT_EQ(r.cross(1, 10 * (round + 1)), 0u);
            EXPECT_EQ(r.cross(1, 10 * (round + 1)), 0u);
        }
    }
    EXPECT_EQ(r.host.encodes,
              (std::vector<sim::Tick>{20, 30, 40, 50, 60, 70, 80}));

    // Δ = 80 - 50 and d = (3, 6), both from round 4's anchor; actor 0
    // limits k to (993 - 2) / 3 = 330.
    EXPECT_EQ(shift, 30u * 330u);
    EXPECT_EQ(r.host.shifted, shift);
    EXPECT_EQ(r.host.iters[0], 993 - 330 * 3 - 1);
    EXPECT_EQ(r.host.iters[1], 4986 - 330 * 6);
    const sim::LoopBatchCounters &c = r.lb.counters();
    EXPECT_EQ(c.windows, 1u);
    EXPECT_EQ(c.fallbacks, 6u); // the gate and rounds 2-6
    EXPECT_EQ(c.batched_iters, 330u * 9u);
    // The stats recorded since the anchor (3 increments) replay k times.
    EXPECT_EQ(r.stats.get(sim::Probe::CpuL1Hit), 8u + 330u * 3u);
}

TEST(LoopBatcher, RngGateDisarmsWithoutEncoding)
{
    Rig r({1000});
    r.host.fp = 0xA;
    r.cross(0, 10);    // the run's first word: gate, no encode
    r.cross(0, 20);    // encode, anchor A
    r.host.fp = 0xB;
    r.cross(0, 30);    // encode, mismatch: the anchor moves to B
    r.host.rng = 2;
    r.cross(0, 40);    // randomness consumed: disarm, no encode
    EXPECT_EQ(r.host.encodes, (std::vector<sim::Tick>{20, 30}));
    EXPECT_EQ(r.lb.counters().fallbacks, 3u);

    // The word holds again: anchor afresh (no fallback), then match
    // the very next boundary.
    r.host.fp = 0xA;
    EXPECT_EQ(r.cross(0, 50), 0u);
    EXPECT_EQ(r.lb.counters().fallbacks, 3u);
    EXPECT_EQ(r.cross(0, 60), 10u * ((995 - 2) / 1));
    EXPECT_EQ(r.host.encodes, (std::vector<sim::Tick>{20, 30, 50, 60}));
    EXPECT_EQ(r.lb.counters().windows, 1u);
}

TEST(LoopBatcher, AJitteredLoopNeverEncodes)
{
    Rig r({1000});
    r.host.fp = 0xA;
    for (int i = 1; i <= 100; ++i) {
        ++r.host.rng; // every iteration draws
        EXPECT_EQ(r.cross(0, 10 * i), 0u);
    }
    EXPECT_TRUE(r.host.encodes.empty());
    EXPECT_EQ(r.lb.counters().fallbacks, 100u);
    EXPECT_EQ(r.lb.counters().windows, 0u);
}

TEST(LoopBatcher, WindowDoublesAtEachAnchorMoveAndResetsAfterAJump)
{
    // Boundary i of the trigger (actor 0) is at tick 10 i and, unless
    // a step says otherwise, reports the fresh fingerprint 100 + i;
    // actor 1 runs one iteration per boundary, 115 in all. Boundary 0
    // is the gate; boundary 1 anchors; after windows of 1, 2 and 4
    // failed checks the anchor moves to boundaries 2, 4 and 8.
    Rig r({1000000, 115});
    sim::Tick now = 0;
    const auto at = [&](int i, std::uint64_t fp) {
        r.host.fp = fp;
        const sim::Tick shift = r.cross(0, now + 10 * i);
        now += shift;
        if (r.host.iters[1] > 0)
            r.cross(1, now + 10 * i + 1);
        return shift;
    };
    for (int i = 0; i <= 11; ++i)
        EXPECT_EQ(at(i, 100 + i), 0u);
    // Boundary 4's fingerprint no longer matches: the anchor is at 8.
    EXPECT_EQ(at(12, 104), 0u);
    std::vector<sim::Tick> every;
    for (int i = 1; i <= 12; ++i)
        every.push_back(10 * i);
    EXPECT_EQ(r.host.encodes, every);
    EXPECT_EQ(r.lb.counters().fallbacks, 12u); // the gate and 2-12

    // Boundary 8's does: Δ = 50 ticks, d = (5, 5), and actor 1 limits
    // k to (102 - 2) / 5 = 20.
    EXPECT_EQ(r.host.iters[1], 102);
    EXPECT_EQ(at(13, 108), 50u * 20u);
    EXPECT_EQ(r.host.iters[1], 1);

    // The jump resets the window to 1: the first failed check after
    // it moves the anchor to boundary 14 and the second (window 2)
    // to 16, so 16's fingerprint closes a period of one at 17. Had
    // the window stayed at 8, the anchor would still be the post-jump
    // boundary.
    EXPECT_EQ(at(14, 1014), 0u);
    EXPECT_EQ(at(15, 1015), 0u);
    EXPECT_EQ(at(16, 1016), 0u);
    EXPECT_EQ(r.host.iters[1], 0);
    const long left = r.host.iters[0];
    EXPECT_EQ(at(17, 1016), 10u * static_cast<sim::Tick>(left - 2));
    EXPECT_EQ(r.lb.counters().windows, 2u);
    EXPECT_EQ(r.lb.counters().fallbacks, 15u);
}

TEST(LoopBatcher, AMatchWithNoWholePeriodLeftReanchors)
{
    // Actor 1 runs two iterations per trigger boundary and leaves its
    // loop after boundary 3. The matches at boundaries 2-4 each span
    // iterations of actor 1, which has no whole period left (k < 1):
    // each falls back and re-anchors, so the match at boundary 5
    // measures one boundary from the boundary-4 anchor, not four from
    // boundary 1.
    Rig r({1000, 7});
    r.host.fp = 7;
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(r.cross(0, 10 * (i + 1)), 0u);
        for (int twice = 0; twice < 2 && r.host.iters[1] > 0; ++twice)
            r.cross(1, 10 * (i + 1) + 1);
    }
    EXPECT_EQ(r.lb.counters().fallbacks, 4u); // the gate and 2-4
    EXPECT_EQ(r.host.iters[0], 995);
    EXPECT_EQ(r.host.iters[1], 0);
    EXPECT_EQ(r.cross(0, 60), 10u * (995 - 2));
    EXPECT_EQ(r.host.encodes,
              (std::vector<sim::Tick>{20, 30, 40, 50, 60}));
    EXPECT_EQ(r.lb.counters().windows, 1u);
}

TEST(LoopBatcher, ActorNearItsLoopExitVacatesTheTrigger)
{
    Rig r({6, 100});
    std::uint64_t next_fp = 1;
    std::uint64_t fp_at_52 = 0;
    for (int round = 0; round < 7; ++round) {
        if (r.host.iters[0] > 0) {
            r.host.fp = next_fp++;
            r.cross(0, 10 * round + 1);
        }
        r.host.fp = next_fp++;
        if (round == 5)
            fp_at_52 = r.host.fp;
        EXPECT_EQ(r.cross(1, 10 * round + 2), 0u);
    }
    // Actor 0 triggers with 6 (the gate), 5 and 4 iterations left and
    // vacates at 3; actor 1 takes over at tick 32 with an anchor of
    // its own (no fallback). The window of 2 survived the hand-off,
    // so the anchor stays at 32 until a second failed check moves it
    // to 52.
    EXPECT_EQ(r.host.encodes,
              (std::vector<sim::Tick>{11, 21, 32, 42, 52, 62}));
    EXPECT_EQ(r.lb.counters().fallbacks, 5u);
    EXPECT_EQ(r.host.iters[0], 0);

    // Repeating tick 52's fingerprint at 72 closes a period of two
    // (actor 1 only: actor 0 is out of its loop); had the window
    // restarted at 1, the anchor would be at 62 and this would miss.
    r.host.fp = fp_at_52;
    EXPECT_EQ(r.host.iters[1], 93);
    EXPECT_EQ(r.cross(1, 72), 20u * ((93 - 2) / 2));
    EXPECT_EQ(r.lb.counters().windows, 1u);
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
       sim::LoopBatchCounters *lb = nullptr)
{
    cpusim::CpuMachine m(cpusim::CpuConfig{}, Affinity::Close, 42);
    m.setLoopBatch(batch);
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
    // A run's first trigger check fails the rng gate (the batcher's
    // last word starts at zero), so any run whose trigger has four or
    // more timed iterations records a fallback.
    const std::vector<cpusim::CpuProgram> programs(
        2, program({op(cpusim::CpuOpKind::Alu)}, 50));
    sim::LoopBatchCounters lb;
    expectCpuIdentity(programs, lb);
    EXPECT_GT(lb.fallbacks, 0u);
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
       bool batch, sim::LoopBatchCounters *lb = nullptr)
{
    gpusim::GpuMachine m(gpusim::GpuConfig{}, 7);
    m.setLoopBatch(batch);
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

} // namespace
} // namespace syncperf
