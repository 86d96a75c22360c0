/**
 * @file
 * Implementation of the multicore CPU machine.
 */

#include "machine.hh"

#include <algorithm>
#include <bit>
#include <iterator>
#include <unordered_map>

#include "common/logging.hh"

namespace syncperf::cpusim
{
namespace
{

/** Pcg32 stream selector for the CPU jitter model. */
constexpr std::uint64_t rng_stream = 0x9e3779b97f4a7c15ULL;

} // namespace

CpuMachine::CpuMachine(CpuConfig cfg, Affinity affinity, std::uint64_t seed)
    : cfg_(std::move(cfg)), affinity_(affinity), rng_(seed, rng_stream)
{
}

void
CpuMachine::reseed(std::uint64_t seed)
{
    rng_ = Pcg32(seed, rng_stream);
}

Tick
CpuMachine::transferLatency(const Line &line, const HwPlace &to)
{
    Tick base;
    if (line.owner_core < 0 && line.copies == 0) {
        base = cfg_.remote_transfer;  // memory fetch
        stats_.inc(sim::Probe::CpuMemFetch);
    } else {
        const int src = line.owner_core >= 0
            ? line.owner_core
            : std::countr_zero(line.copies);
        const int src_complex = src / cfg_.cores_per_complex;
        if (src == to.core) {
            base = cfg_.l1_hit_latency;
        } else if (src_complex == to.complex_id) {
            base = cfg_.local_transfer;
            stats_.inc(sim::Probe::CpuTransferLocal);
        } else {
            base = cfg_.remote_transfer;
            stats_.inc(sim::Probe::CpuTransferRemote);
        }
    }
    if (cfg_.jitter_frac > 0.0) {
        base = static_cast<Tick>(
            static_cast<double>(base) *
            (1.0 + cfg_.jitter_frac * rng_.uniform()));
    }
    return base;
}

Tick
CpuMachine::coherencePointSlot(Tick ready)
{
    const Tick slot = std::max(ready, coherence_point_free_);
    coherence_point_free_ = slot + cfg_.coherence_point_ii;
    return slot;
}

Tick
CpuMachine::aluCost(CpuOpKind kind, DataType dtype) const
{
    switch (kind) {
      case CpuOpKind::AtomicRmw:
        return isIntegerType(dtype) ? cfg_.alu_int_rmw : cfg_.alu_fp_rmw;
      case CpuOpKind::Alu:
        return cfg_.plain_alu;
      default:
        return 0;
    }
}

namespace
{

/** ceil(log_base(n)) for n >= 1. */
int
ceilLog(int n, int base)
{
    int levels = 0;
    int reach = 1;
    while (reach < n) {
        reach *= base;
        ++levels;
    }
    return levels;
}

} // namespace

Tick
CpuMachine::barrierLatency(int team_size)
{
    const auto t = static_cast<Tick>(team_size);
    switch (cfg_.barrier_algorithm) {
      case BarrierAlgorithm::SpinFutex: {
        // libgomp-like: spin while the expected wait is short, fall
        // back to a futex sleep whose wake constant dominates at
        // scale -- the source of Fig. 1's plateau.
        const Tick spin_cost =
            cfg_.barrier_base + t * cfg_.barrier_arrival;
        if (spin_cost <= cfg_.barrier_spin_budget) {
            stats_.inc(sim::Probe::CpuBarrierSpin);
            return spin_cost;
        }
        stats_.inc(sim::Probe::CpuBarrierFutex);
        return cfg_.barrier_futex_wake + t * cfg_.barrier_wake_stagger;
      }
      case BarrierAlgorithm::Central:
        // Pure centralized spinning: every arrival serializes on the
        // counter line, forever.
        stats_.inc(sim::Probe::CpuBarrierSpin);
        return cfg_.barrier_base + t * cfg_.barrier_arrival;
      case BarrierAlgorithm::Tree:
        stats_.inc(sim::Probe::CpuBarrierTree);
        return cfg_.barrier_base +
               static_cast<Tick>(
                   ceilLog(team_size, cfg_.barrier_tree_fanin)) *
                   cfg_.barrier_tree_level;
      case BarrierAlgorithm::Dissemination:
        stats_.inc(sim::Probe::CpuBarrierDissemination);
        return cfg_.barrier_base +
               static_cast<Tick>(ceilLog(team_size, 2)) *
                   cfg_.barrier_dissem_round;
    }
    panic("unhandled barrier algorithm");
}

void
CpuMachine::arriveBarrier(int tid, Tick when)
{
    const int team = static_cast<int>(threads_.size());
    if (!barrier_.arrive(tid, when, team))
        return;

    stats_.record(sim::HistProbe::CpuBarrierSpreadTicks,
                  barrier_.last - barrier_.first);
    const Tick release = barrier_.last + barrierLatency(team);
    for (int w : barrier_.release()) {
        // The resumed step reads its tick from the queue (it runs
        // exactly at `release`), so a loop-batch shift of the pending
        // wake shifts the continuation with it.
        threads_[w].resume = true;
        eq_.wake(release, w);
    }
}

void
CpuMachine::finishOp(int tid, Tick done)
{
    ThreadCtx &ctx = threads_[tid];
    ++ctx.pc;
    if (ctx.pc < ctx.code->size()) {
        eq_.wake(done, tid);
        return;
    }

    // Body iteration complete.
    ctx.pc = 0;
    if (!ctx.timed) {
        if (--warm_left_[tid] > 0) {
            eq_.wake(done, tid);
            return;
        }
        // Alignment join before the timed region (Listing 2 line 15).
        const int team = static_cast<int>(threads_.size());
        if (align_.arrive(tid, done, team)) {
            const Tick go = align_.last + barrierLatency(team);
            for (int w : align_.release()) {
                threads_[w].aligning = true;
                eq_.wake(go, w);
            }
        }
        return;
    }

    // Timed boundary: the batcher may jump whole steady-state
    // periods here, shifting this thread's continuation with them.
    done += batcher_.boundary(*this, tid, done);

    if (--ctx.iters_left > 0) {
        eq_.wake(done, tid);
        return;
    }
    ctx.done = true;
    ctx.end_tick = done;
    batcher_.retire(tid);
}

template <class Self, class V>
void
CpuMachine::visitState(Self &self, V &v)
{
    for (const ThreadCtx &t : self.threads_) {
        v.word(static_cast<std::uint64_t>(t.pc) << 5 |
               static_cast<std::uint64_t>(t.aligning) << 4 |
               static_cast<std::uint64_t>(t.timed) << 3 |
               static_cast<std::uint64_t>(t.done) << 2 |
               static_cast<std::uint64_t>(t.resume) << 1 |
               static_cast<std::uint64_t>(t.has_pending_store));
        v.word(static_cast<std::uint64_t>(
            (t.has_pending_store ? t.pending_store_line : -1) + 1));
    }
    v.words(self.warm_left_);
    v.maxRegs(self.core_free_);
    v.maxReg(self.coherence_point_free_);
    for (auto &l : self.lines_) {
        v.word(static_cast<std::uint64_t>(l.owner_core + 1) << 1 |
               static_cast<std::uint64_t>(l.exclusive));
        v.word(l.copies);
        v.maxReg(l.free_at);
    }
    for (auto &l : self.locks_) {
        v.word(static_cast<std::uint64_t>(l.held) << 32 |
               static_cast<std::uint64_t>(l.waiters.size()));
        for (auto &w : l.waiters) {
            v.word(static_cast<std::uint64_t>(w.tid));
            v.stamp(w.since); // feeds lock_wait_ticks later
        }
    }
    sim::Rendezvous::visit(self.barrier_, v);
    // The alignment join is empty once the team is timed (and a
    // trigger exists only then); start/end ticks are frozen outputs
    // shared with the unbatched run; the rng did not advance.
    sim::Rendezvous::visit(self.align_, v);
}

void
CpuMachine::step(int tid)
{
    ThreadCtx &ctx = threads_[tid];
    SYNCPERF_ASSERT(!ctx.done);
    const Tick now = eq_.now();
    if (ctx.resume) {
        // Barrier release or lock grant: the blocked op completes now.
        ctx.resume = false;
        finishOp(tid, now);
        return;
    }
    if (ctx.aligning) {
        // Alignment go: the timed region starts here.
        ctx.aligning = false;
        ctx.timed = true;
        ctx.start_tick = now;
    }
    const DecodedOp &op = (*ctx.code)[ctx.pc];

    // Issue through the core pipeline (shared by SMT siblings).
    Tick start = std::max(now, core_free_[ctx.place.core]);
    core_free_[ctx.place.core] = start + cfg_.issue_cycles;
    start += cfg_.issue_cycles;

    (this->*op.handler)(tid, op, start);
}

void
CpuMachine::execLoad(int tid, const DecodedOp &op, Tick start)
{
    // x86-style: an atomic read is an ordinary aligned load.
    ThreadCtx &ctx = threads_[tid];
    Line &line = lines_[op.line];
    const std::uint64_t bit = 1ULL << ctx.place.core;
    Tick done;
    if (line.copies & bit) {
        done = start + cfg_.l1_hit_latency;
        stats_.inc(sim::Probe::CpuL1Hit);
    } else {
        done = start + transferLatency(line, ctx.place);
        line.copies |= bit;
        line.exclusive = false;
    }
    finishOp(tid, done);
}

Tick
CpuMachine::acquireExclusive(Line &line, const HwPlace &place, Tick start,
                             Tick alu_cost, bool ordering_point)
{
    // Exclusive acquisitions of a line serialize: wait for the next
    // service slot at the coherence point. Atomic stores additionally
    // pass the machine-wide ordering point: they carry release
    // ordering, so ownership changes cannot overlap across lines
    // (this keeps Fig 4's second write additive instead of hiding in
    // the other line's queue). The RMW's ALU cost extends the
    // occupancy while the line is held (the int-vs-float gap of
    // Fig 2).
    Tick svc = std::max(start, line.free_at);
    if (ordering_point)
        svc = coherencePointSlot(svc);
    line.free_at = svc + cfg_.line_occupancy + alu_cost;
    const Tick done = svc + transferLatency(line, place) + alu_cost;
    stats_.record(sim::HistProbe::CpuAcqWaitTicks, svc - start);
    if (line.owner_core >= 0 && line.owner_core != place.core)
        stats_.inc(sim::Probe::CpuLinePingPong);
    line.owner_core = place.core;
    line.exclusive = true;
    line.copies = 1ULL << place.core;
    return done;
}

void
CpuMachine::execStore(int tid, const DecodedOp &op, Tick start)
{
    ThreadCtx &ctx = threads_[tid];
    Line &line = lines_[op.line];
    Tick done;
    if (line.exclusive && line.owner_core == ctx.place.core) {
        done = start + cfg_.l1_hit_latency;
        stats_.inc(sim::Probe::CpuL1Hit);
    } else {
        done = acquireExclusive(line, ctx.place, start, 0, false);
    }
    ctx.has_pending_store = true;
    ctx.pending_store_line = op.line;
    finishOp(tid, done);
}

void
CpuMachine::execAtomicStore(int tid, const DecodedOp &op, Tick start)
{
    ThreadCtx &ctx = threads_[tid];
    Line &line = lines_[op.line];
    Tick done;
    if (line.exclusive && line.owner_core == ctx.place.core) {
        done = start + cfg_.l1_hit_latency;
        stats_.inc(sim::Probe::CpuL1Hit);
    } else {
        done = acquireExclusive(line, ctx.place, start, 0, true);
    }
    // x86 locked operations drain the store buffer.
    ctx.has_pending_store = false;
    finishOp(tid, done);
}

void
CpuMachine::execAtomicRmw(int tid, const DecodedOp &op, Tick start)
{
    ThreadCtx &ctx = threads_[tid];
    Line &line = lines_[op.line];
    Tick done;
    if (line.exclusive && line.owner_core == ctx.place.core) {
        done = start + cfg_.l1_hit_latency + op.alu_cost;
        stats_.inc(sim::Probe::CpuL1Hit);
    } else {
        done = acquireExclusive(line, ctx.place, start, op.alu_cost,
                                false);
    }
    ctx.has_pending_store = false;
    finishOp(tid, done);
}

void
CpuMachine::execFence(int tid, const DecodedOp &, Tick start)
{
    ThreadCtx &ctx = threads_[tid];
    Tick done = start + cfg_.fence_drain;
    if (ctx.has_pending_store) {
        Line &line = lines_[ctx.pending_store_line];
        if (!(line.exclusive && line.owner_core == ctx.place.core)) {
            // The pending store's line was stolen (false sharing):
            // the drain must re-acquire it like a store would.
            // (No machine-wide ordering slot here: the drain's
            // re-acquisition is a replay of the store's own
            // ownership change, not a new one.)
            const Tick svc = std::max(start, line.free_at);
            line.free_at = svc + cfg_.line_occupancy;
            done = svc + transferLatency(line, ctx.place) +
                   cfg_.fence_drain;
            if (line.owner_core >= 0 &&
                line.owner_core != ctx.place.core) {
                stats_.inc(sim::Probe::CpuLinePingPong);
            }
            line.owner_core = ctx.place.core;
            line.exclusive = true;
            line.copies = 1ULL << ctx.place.core;
            stats_.inc(sim::Probe::CpuFenceContended);
            // Drain stall: what the steal added over a clean drain.
            stats_.record(sim::HistProbe::CpuFenceStallTicks,
                          done - start - cfg_.fence_drain);
        } else {
            stats_.inc(sim::Probe::CpuFenceClean);
        }
        ctx.has_pending_store = false;
    } else {
        stats_.inc(sim::Probe::CpuFenceClean);
    }
    finishOp(tid, done);
}

void
CpuMachine::execBarrier(int tid, const DecodedOp &, Tick start)
{
    arriveBarrier(tid, start);
}

void
CpuMachine::execLockAcquire(int tid, const DecodedOp &op, Tick start)
{
    ThreadCtx &ctx = threads_[tid];
    LockState &lock = locks_[op.lock];
    if (lock.held) {
        stats_.inc(sim::Probe::CpuLockContended);
        lock.waiters.push_back(LockWaiter{tid, start});
        return;  // blocked; granted on release
    }
    lock.held = true;
    // Acquire performs a CAS on the lock line.
    Line &line = lines_[op.line];
    Tick done;
    if (line.exclusive && line.owner_core == ctx.place.core) {
        done = start + cfg_.l1_hit_latency + cfg_.alu_int_rmw;
    } else {
        const Tick svc = std::max(start, line.free_at);
        line.free_at = svc + cfg_.line_occupancy;
        done = svc + transferLatency(line, ctx.place) +
               cfg_.alu_int_rmw;
        stats_.record(sim::HistProbe::CpuAcqWaitTicks, svc - start);
        if (line.owner_core >= 0 && line.owner_core != ctx.place.core)
            stats_.inc(sim::Probe::CpuLinePingPong);
        line.owner_core = ctx.place.core;
        line.exclusive = true;
        line.copies = 1ULL << ctx.place.core;
    }
    finishOp(tid, done);
}

void
CpuMachine::execLockRelease(int tid, const DecodedOp &op, Tick start)
{
    LockState &lock = locks_[op.lock];
    SYNCPERF_ASSERT(lock.held, "release of unheld lock");
    const Tick done = start + cfg_.l1_hit_latency;
    if (!lock.waiters.empty()) {
        const LockWaiter waiter = lock.waiters.front();
        const int next = waiter.tid;
        lock.waiters.pop_front();
        const auto waiters = static_cast<Tick>(lock.waiters.size());
        // Handoff cost depends on the locking algorithm: MCS
        // touches one remote line; spinning algorithms add
        // traffic proportional to the waiter crowd.
        Tick extra = 0;
        switch (cfg_.lock_algorithm) {
          case LockAlgorithm::QueueHandoff:
            break;
          case LockAlgorithm::TasSpin:
            // Every waiter's failed exchange steals the line.
            extra = waiters * cfg_.lock_tas_retry;
            break;
          case LockAlgorithm::TtasSpin:
            // One invalidation broadcast, then one winner's RMW.
            extra = waiters * cfg_.lock_broadcast;
            break;
          case LockAlgorithm::Ticket:
            // All waiters re-read the serving counter.
            extra = waiters * cfg_.lock_broadcast + cfg_.lock_broadcast;
            break;
        }
        const Tick grant = done + cfg_.lock_handoff + extra;
        stats_.inc(sim::Probe::CpuLockHandoff);
        stats_.record(sim::HistProbe::CpuLockWaitTicks,
                      grant - waiter.since);
        threads_[next].resume = true;
        eq_.wake(grant, next);
    } else {
        lock.held = false;
    }
    finishOp(tid, done);
}

void
CpuMachine::execAlu(int tid, const DecodedOp &op, Tick start)
{
    finishOp(tid, start + op.alu_cost);
}

struct CpuMachine::Interner
{
    std::uint64_t line_bytes;
    std::unordered_map<std::uint64_t, int> lines;
    std::unordered_map<int, int> locks;

    /** Dense index for the cache line containing @p addr. */
    int
    line(std::uint64_t addr)
    {
        return lines
            .try_emplace(addr / line_bytes, static_cast<int>(lines.size()))
            .first->second;
    }

    int
    lock(int lock_id)
    {
        return locks.try_emplace(lock_id, static_cast<int>(locks.size()))
            .first->second;
    }
};

CpuMachine::DecodedOp
CpuMachine::decodeOp(const CpuOp &op, Interner &in) const
{
    DecodedOp d;
    d.alu_cost = aluCost(op.kind, op.dtype);
    switch (op.kind) {
      case CpuOpKind::Load:
      case CpuOpKind::AtomicLoad:
        d.handler = &CpuMachine::execLoad;
        d.line = in.line(op.addr);
        return d;
      case CpuOpKind::Store:
        d.handler = &CpuMachine::execStore;
        d.line = in.line(op.addr);
        return d;
      case CpuOpKind::AtomicStore:
        d.handler = &CpuMachine::execAtomicStore;
        d.line = in.line(op.addr);
        return d;
      case CpuOpKind::AtomicRmw:
        d.handler = &CpuMachine::execAtomicRmw;
        d.line = in.line(op.addr);
        return d;
      case CpuOpKind::Fence:
        d.handler = &CpuMachine::execFence;
        return d;
      case CpuOpKind::Barrier:
        d.handler = &CpuMachine::execBarrier;
        return d;
      case CpuOpKind::LockAcquire:
        d.handler = &CpuMachine::execLockAcquire;
        d.line = in.line(op.addr);
        d.lock = in.lock(op.lock_id);
        return d;
      case CpuOpKind::LockRelease:
        d.handler = &CpuMachine::execLockRelease;
        d.lock = in.lock(op.lock_id);
        return d;
      case CpuOpKind::Alu:
        d.handler = &CpuMachine::execAlu;
        return d;
    }
    panic("unhandled op kind");
}

CpuMachine::DecodedImage
CpuMachine::decode(const std::vector<CpuProgram> &programs) const
{
    SYNCPERF_ASSERT(!programs.empty());
    // Dense handler+operand arrays with all config-dependent costs
    // and container lookups hoisted out of the execution loop.
    Interner in{static_cast<std::uint64_t>(cfg_.cache_line_bytes), {}, {}};
    DecodedImage img;
    img.code.resize(programs.size());
    for (std::size_t t = 0; t < programs.size(); ++t) {
        const CpuProgram &p = programs[t];
        SYNCPERF_ASSERT(!p.body.empty(), "empty program body");
        SYNCPERF_ASSERT(p.iterations >= 1);
        auto &code = img.code[t];
        code.reserve(p.body.size());
        for (const CpuOp &op : p.body)
            code.push_back(decodeOp(op, in));
        img.iterations.push_back(p.iterations);
    }
    img.n_lines = static_cast<int>(in.lines.size());
    img.n_locks = static_cast<int>(in.locks.size());
    img.fingerprint = fingerprintOf(img);
    // The condition transferLatency() draws under.
    img.draws_jitter = cfg_.jitter_frac > 0.0;
    return img;
}

CpuRunResult
CpuMachine::run(const std::vector<CpuProgram> &programs,
                int warmup_iterations)
{
    return run(decode(programs), warmup_iterations);
}

CpuRunResult
CpuMachine::run(const std::vector<CpuProgram> &programs,
                int warmup_iterations, std::uint64_t seed)
{
    reseed(seed);
    return run(programs, warmup_iterations);
}

CpuRunResult
CpuMachine::run(const DecodedImage &image, int warmup_iterations)
{
    const int n = static_cast<int>(image.code.size());
    SYNCPERF_ASSERT(n >= 1);
    SYNCPERF_ASSERT(warmup_iterations >= 1,
                    "at least one warmup iteration required");

    places_ = mapThreads(cfg_, affinity_, n);
    core_free_.assign(cfg_.totalCores(), 0);
    lines_.assign(static_cast<std::size_t>(image.n_lines), Line{});
    locks_.assign(static_cast<std::size_t>(image.n_locks), LockState{});
    coherence_point_free_ = 0;
    eq_.reset(static_cast<std::size_t>(n));
    stats_.clear();
    threads_.assign(n, ThreadCtx{});
    warm_left_.assign(n, warmup_iterations);
    align_ = sim::Rendezvous{};
    barrier_ = sim::Rendezvous{};
    std::uint64_t total_iters = 0;
    for (const long iters : image.iterations)
        total_iters += static_cast<std::uint64_t>(iters);
    batcher_.beginRun(eq_, stats_, total_iters);

    for (int t = 0; t < n; ++t) {
        threads_[t].code = &image.code[t];
        threads_[t].place = places_[t];
        threads_[t].iters_left = image.iterations[t];
        eq_.wake(0, t);
    }

    for (int t; (t = eq_.next()) != sim::EventQueue::none;)
        step(t);
    const Tick end = eq_.now();

    CpuRunResult result;
    result.total_cycles = end;
    result.thread_cycles.reserve(n);
    for (const auto &ctx : threads_) {
        SYNCPERF_ASSERT(ctx.done, "thread did not finish (deadlock?)");
        result.thread_cycles.push_back(ctx.end_tick - ctx.start_tick);
    }

    // Counters and histograms were recorded in place through the
    // interned O(1) probes; only the queue's high-water mark is
    // stamped once per run.
    stats_.inc(sim::Probe::EqMaxDepth,
               static_cast<std::uint64_t>(eq_.maxPending()));
    return result;
}

const CpuMachine::OpHandler *
CpuMachine::handlerTable(std::size_t &count)
{
    static constexpr OpHandler table[] = {
        &CpuMachine::execLoad,        // 0
        &CpuMachine::execStore,       // 1
        &CpuMachine::execAtomicStore, // 2
        &CpuMachine::execAtomicRmw,   // 3
        &CpuMachine::execFence,       // 4
        &CpuMachine::execBarrier,     // 5
        &CpuMachine::execLockAcquire, // 6
        &CpuMachine::execLockRelease, // 7
        &CpuMachine::execAlu,         // 8
    };
    count = std::size(table);
    return table;
}

std::uint64_t
CpuMachine::fingerprintOf(const DecodedImage &img)
{
    // FNV-1a over every decoded word: two program sets share a
    // fingerprint iff their decoded forms -- what run() actually
    // executes -- are identical.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto fold = [&h](std::uint64_t w) {
        h = (h ^ w) * 0x100000001b3ULL;
    };
    std::size_t n_handlers = 0;
    const OpHandler *table = handlerTable(n_handlers);
    fold(img.code.size());
    fold(static_cast<std::uint64_t>(img.n_lines));
    fold(static_cast<std::uint64_t>(img.n_locks));
    for (const auto &code : img.code) {
        fold(code.size());
        for (const DecodedOp &op : code) {
            std::size_t id = 0;
            while (id < n_handlers && table[id] != op.handler)
                ++id;
            SYNCPERF_ASSERT(id < n_handlers,
                            "decoded handler missing from the handler "
                            "table");
            fold(id);
            fold(static_cast<std::uint64_t>(op.line + 1));
            fold(static_cast<std::uint64_t>(op.lock + 1));
            fold(static_cast<std::uint64_t>(op.alu_cost));
        }
    }
    return h;
}

} // namespace syncperf::cpusim
