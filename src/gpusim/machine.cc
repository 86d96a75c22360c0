/**
 * @file
 * Implementation of the SIMT GPU timing machine.
 */

#include "machine.hh"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "common/logging.hh"

namespace syncperf::gpusim
{
namespace
{

/** Pcg32 stream selector for the GPU jitter model. */
constexpr std::uint64_t rng_stream = 0xb5ad4eceda1ce2a9ULL;

/** Composite key for per-SM per-line gating. */
std::uint64_t
smLineKey(int sm, std::uint64_t line)
{
    return (static_cast<std::uint64_t>(sm) << 44) ^ line;
}

/** 32-byte sector granularity used by the L2 atomic path. */
constexpr std::uint64_t sector_shift = 5;
constexpr std::uint64_t sector_bytes = std::uint64_t{1} << sector_shift;

} // namespace

GpuMachine::GpuMachine(GpuConfig cfg, std::uint64_t seed)
    : cfg_(std::move(cfg)), rng_(seed, rng_stream)
{
    if (cfg_.l2_atomic_units < 1) {
        fatal("GPU config '{}': l2_atomic_units must be at least 1 "
              "(got {})", cfg_.name, cfg_.l2_atomic_units);
    }
}

void
GpuMachine::reseed(std::uint64_t seed)
{
    rng_ = Pcg32(seed, rng_stream);
}

Tick
GpuMachine::issueThrough(WarpCtx &warp, Tick ready, int uops)
{
    Tick &slot = sched_free_[warp.sm * cfg_.schedulers_per_sm + warp.sched];
    const Tick start = std::max(ready, slot);
    slot = start + static_cast<Tick>(uops) * cfg_.issue_ii;
    return slot;
}

Tick
GpuMachine::gateDelay(DataType t) const
{
    switch (t) {
      case DataType::Int32: return cfg_.sm_gate_int;
      case DataType::UInt64: return cfg_.sm_gate_ull;
      default: return cfg_.sm_gate_fp;
    }
}

int
GpuMachine::activeLanes(const WarpCtx &warp, const DecodedGpuOp &op) const
{
    switch (op.pred) {
      case Predicate::All:
        return warp.lanes;
      case Predicate::Lane0:
        return 1;
      case Predicate::Thread0:
        return warp.warp_in_block == 0 ? 1 : 0;
    }
    return warp.lanes;
}

std::uint64_t
GpuMachine::resolveAddr(const WarpCtx &warp, const DecodedGpuOp &op,
                        int lane) const
{
    switch (op.amode) {
      case AddressMode::SingleShared:
        return op.base_addr;
      case AddressMode::PerThread:
        return op.base_addr +
               static_cast<std::uint64_t>(warp.first_tid + lane) *
                   op.stride * op.esize;
      case AddressMode::PerBlock:
        // One variable per block, padded to separate sectors.
        return op.base_addr +
               static_cast<std::uint64_t>(warp.block) * 128;
    }
    return op.base_addr;
}

void
GpuMachine::execAlu(int warp_id, const DecodedGpuOp &op, Tick now)
{
    finishOp(warp_id, issueThrough(warps_[warp_id], now) + op.lat);
}

void
GpuMachine::execDivergentAlu(int warp_id, const DecodedGpuOp &op,
                             Tick now)
{
    // SIMT divergence: the warp executes every taken path serially
    // (Bialas & Strzelecki: the cost per extra path is constant).
    // Each path issues and completes in turn; op.lat carries the
    // precomputed paths * alu_latency total.
    stats_.inc(sim::Probe::GpuDivergentPaths,
               static_cast<std::uint64_t>(op.uops));
    finishOp(warp_id,
             issueThrough(warps_[warp_id], now, op.uops) + op.lat);
}

void
GpuMachine::execSyncWarp(int warp_id, const DecodedGpuOp &op, Tick now)
{
    finishOp(warp_id, issueThrough(warps_[warp_id], now) + op.lat);
}

void
GpuMachine::execShfl(int warp_id, const DecodedGpuOp &op, Tick now)
{
    // Micro-ops pipeline: latency of the first plus one issue slot
    // per extra micro-op, but they occupy the scheduler for all
    // slots (this halves the 64-bit knee, Fig 15).
    stats_.inc(sim::Probe::GpuShflUops,
               static_cast<std::uint64_t>(op.uops));
    finishOp(warp_id,
             issueThrough(warps_[warp_id], now, op.uops) + op.lat);
}

void
GpuMachine::execVote(int warp_id, const DecodedGpuOp &op, Tick now)
{
    finishOp(warp_id, issueThrough(warps_[warp_id], now) + op.lat);
}

void
GpuMachine::execReduceSync(int warp_id, const DecodedGpuOp &, Tick now)
{
    WarpCtx &warp = warps_[warp_id];
    const Tick issued = issueThrough(warp, now);
    Tick &unit = reduce_free_[warp.sm];
    const Tick start = std::max(issued, unit);
    unit = start + cfg_.reduce_occupancy;
    stats_.inc(sim::Probe::GpuReduceSync);
    finishOp(warp_id, start + cfg_.reduce_latency);
}

void
GpuMachine::execFenceBlock(int warp_id, const DecodedGpuOp &op, Tick now)
{
    // Block scope only orders within the SM; pending stores are
    // already visible there, so the cost is tiny.
    stats_.inc(sim::Probe::GpuFence);
    finishOp(warp_id, issueThrough(warps_[warp_id], now) + op.lat);
}

void
GpuMachine::execFenceDevice(int warp_id, const DecodedGpuOp &op,
                            Tick now)
{
    // Draining the store path occupies the SM's LSU, so the cost is
    // not hidden behind other warps' traffic.
    WarpCtx &warp = warps_[warp_id];
    const Tick issued = issueThrough(warp, now);
    Tick &lsu = lsu_free_[warp.sm];
    lsu = std::max(lsu, issued) + cfg_.fence_lsu_drain;
    stats_.inc(sim::Probe::GpuFence);
    const Tick drained = std::max({issued, warp.last_store_commit, lsu});
    stats_.record(sim::HistProbe::GpuFenceStallTicks, drained - issued);
    finishOp(warp_id, drained + op.lat);
}

void
GpuMachine::execFenceSystem(int warp_id, const DecodedGpuOp &op,
                            Tick now)
{
    WarpCtx &warp = warps_[warp_id];
    const Tick issued = issueThrough(warp, now);
    Tick &lsu = lsu_free_[warp.sm];
    lsu = std::max(lsu, issued) + cfg_.fence_lsu_drain;
    stats_.inc(sim::Probe::GpuFence);
    const Tick drained = std::max({issued, warp.last_store_commit, lsu});
    stats_.record(sim::HistProbe::GpuFenceStallTicks, drained - issued);
    finishOp(warp_id,
             drained + op.lat +
                 rng_.below(static_cast<std::uint32_t>(
                     cfg_.fence_system_jitter + 1)));
}

void
GpuMachine::execGlobalLoad(int warp_id, const DecodedGpuOp &op, Tick now)
{
    WarpCtx &warp = warps_[warp_id];
    const Tick issued = issueThrough(warp, now);
    const int active = activeLanes(warp, op);
    if (active == 0) {
        finishOp(warp_id, issued);
        return;
    }
    const auto bytes =
        static_cast<std::uint64_t>(active) * op.esize * op.stride;
    const auto sectors = (bytes + 31) / 32;

    Tick &lsu = lsu_free_[warp.sm];
    const Tick post_start = std::max(issued, lsu);
    const Tick post_done = post_start + sectors * cfg_.lsu_ii;
    lsu = post_done;

    const Tick bw_start = std::max(post_done, mem_bw_free_);
    mem_bw_free_ = bw_start + static_cast<Tick>(
        static_cast<double>(bytes) / cfg_.mem_bytes_per_cycle + 1.0);
    stats_.inc(sim::Probe::GpuLoadSectors, sectors);
    finishOp(warp_id, bw_start + cfg_.mem_rt);
}

void
GpuMachine::execGlobalStore(int warp_id, const DecodedGpuOp &op,
                            Tick now)
{
    // Stores retire into the LSU/store path; the warp does not wait
    // for memory (no data dependency).
    WarpCtx &warp = warps_[warp_id];
    const Tick issued = issueThrough(warp, now);
    const int active = activeLanes(warp, op);
    if (active == 0) {
        finishOp(warp_id, issued);
        return;
    }
    const auto bytes =
        static_cast<std::uint64_t>(active) * op.esize * op.stride;
    const auto sectors = (bytes + 31) / 32;
    Tick &lsu = lsu_free_[warp.sm];
    const Tick post_start = std::max(issued, lsu);
    lsu = post_start + sectors * cfg_.lsu_ii;
    const Tick bw_start = std::max(lsu, mem_bw_free_);
    mem_bw_free_ = bw_start + static_cast<Tick>(
        static_cast<double>(bytes) / cfg_.mem_bytes_per_cycle + 1.0);
    // Commit (device-wide visibility at the L2) happens a fixed half
    // round trip after posting; a device fence must wait for it
    // (Fig 14). Deliberately decoupled from the DRAM bandwidth queue
    // so fence overhead stays flat under load, matching the paper's
    // measurements.
    warp.last_store_commit = lsu + cfg_.mem_rt / 2;
    stats_.inc(sim::Probe::GpuStoreSectors, sectors);
    finishOp(warp_id, lsu);
}

void
GpuMachine::execAtomicSameAddr(int warp_id, const DecodedGpuOp &op,
                               Tick now)
{
    WarpCtx &warp = warps_[warp_id];
    const Tick issued = issueThrough(warp, now);
    const int active = activeLanes(warp, op);
    if (active == 0) {
        finishOp(warp_id, issued);
        return;
    }

    Tick &lsu = lsu_free_[warp.sm];
    const std::uint64_t line = resolveAddr(warp, op, 0) >> sector_shift;
    GateSlots &gate = sm_line_gate_[smLineKey(warp.sm, line)];

    // Reduction-style op on one address: the JIT aggregates the
    // warp's lanes into a single request (Fig 9). The SM keeps
    // sm_atomic_depth such requests in flight; the next one stalls
    // the LSU until a slot frees up, which is the per-SM knee of
    // Fig 9.
    const int requests = op.aggregated ? 1 : active;
    if (op.aggregated)
        stats_.inc(sim::Probe::GpuAtomicAggregated);
    else
        stats_.inc(sim::Probe::GpuAtomicUnaggregated);
    // One in flight per warp, sm_atomic_depth in flight per SM:
    // per-warp throughput is flat until the SM window fills (Fig 9:
    // constant up to two warps per SM).
    const Tick slot_free =
        cfg_.sm_atomic_depth >= 2 ? gate.oldest : gate.newest;
    const Tick post_start =
        std::max({issued, lsu, slot_free, warp.own_atomic_gate});
    const Tick post_done =
        post_start + static_cast<Tick>(requests) * cfg_.lsu_ii;
    lsu = post_done;
    Tick &lf = line_free_[line];
    const Tick svc_start = std::max(post_done, lf);
    const Tick svc_done =
        svc_start + static_cast<Tick>(requests) * op.addr_ii;
    lf = svc_done;
    stats_.record(sim::HistProbe::GpuAtomicWaitTicks,
                  svc_start - post_done);
    gate.oldest = gate.newest;
    // The gate paces on the posting time plus a fixed round trip,
    // NOT on the (possibly queued) service time -- pacing on service
    // would compound queue delays into a positive feedback across
    // SMs.
    gate.newest = post_done + op.gate_delay;
    warp.own_atomic_gate = gate.newest;
    // Fire-and-forget with a bounded in-flight window.
    const Tick window_ok =
        svc_done > cfg_.ff_window ? svc_done - cfg_.ff_window : 0;
    finishOp(warp_id, std::max(post_done, window_ok));
}

void
GpuMachine::execAtomicCasLike(int warp_id, const DecodedGpuOp &op,
                              Tick now)
{
    // CAS / exchange: never aggregated, one outstanding per SM;
    // lanes pipeline in small groups and the warp waits for its last
    // lane's round trip (Fig 11, 13).
    WarpCtx &warp = warps_[warp_id];
    const Tick issued = issueThrough(warp, now);
    const int active = activeLanes(warp, op);
    if (active == 0) {
        finishOp(warp_id, issued);
        return;
    }

    Tick &lsu = lsu_free_[warp.sm];
    const std::uint64_t line = resolveAddr(warp, op, 0) >> sector_shift;
    GateSlots &gate = sm_line_gate_[smLineKey(warp.sm, line)];

    stats_.inc(sim::Probe::GpuAtomicCasLike);
    // Every lane past the winner re-queues through the serialized
    // CAS pipeline: the conflict cohort behind one op.
    if (active > 1) {
        stats_.inc(sim::Probe::GpuCasConflicts,
                   static_cast<std::uint64_t>(active - 1));
    }
    const int groups =
        (active + cfg_.cas_pipeline_lanes - 1) / cfg_.cas_pipeline_lanes;
    const Tick post_start = std::max({issued, lsu, gate.newest});
    const Tick post_done =
        post_start + static_cast<Tick>(active) * cfg_.lsu_ii;
    lsu = post_done;
    Tick &lf = line_free_[line];
    const Tick svc_start = std::max(post_done, lf);
    const Tick svc_done =
        svc_start + static_cast<Tick>(groups) * cfg_.cas_group_ii;
    lf = svc_done;
    stats_.record(sim::HistProbe::GpuAtomicWaitTicks,
                  svc_start - post_done);
    gate.oldest = gate.newest;
    gate.newest = svc_done;
    finishOp(warp_id, svc_done + cfg_.atomic_rt);
}

void
GpuMachine::execAtomicPerThread(int warp_id, const DecodedGpuOp &op,
                                Tick now)
{
    // Per-thread addresses: one request per lane, hashed across the
    // L2 atomic units (Fig 10, 12).
    WarpCtx &warp = warps_[warp_id];
    const Tick issued = issueThrough(warp, now);
    const int active = activeLanes(warp, op);
    if (active == 0) {
        finishOp(warp_id, issued);
        return;
    }

    stats_.inc(sim::Probe::GpuAtomicPerThread,
               static_cast<std::uint64_t>(active));
    Tick &lsu = lsu_free_[warp.sm];
    const Tick post_start = std::max(issued, lsu);
    const Tick post_done =
        post_start + static_cast<Tick>(active) * cfg_.lsu_ii;
    lsu = post_done;

    // A unit's final time telescopes to max(post_done, start) +
    // sum(counts) whatever order its lanes come in, so each unit may
    // be reserved once per warp with its lane count.
    const auto units = static_cast<std::uint64_t>(cfg_.l2_atomic_units);
    const std::uint64_t step = op.stride * op.esize;
    std::uint64_t addr = resolveAddr(warp, op, 0);
    std::uint64_t line = addr >> sector_shift;
    std::uint64_t unit_idx = line % units;
    Tick last_svc = post_done;
    const auto reserve = [&](int count) {
        Tick &u = unit_free_[unit_idx];
        u = std::max(post_done, u) + static_cast<Tick>(count) * op.unit_ii;
        last_svc = std::max(last_svc, u);
    };
    if (op.stride >= 0 && step % sector_bytes == 0) {
        // Lane i sits i * s sectors past lane 0, so the lanes' units
        // cycle with period P = U / gcd(s mod U, U), and lane i < P
        // stands for every P-th lane from it.
        const std::uint64_t s = (step >> sector_shift) % units;
        const int period = static_cast<int>(units / std::gcd(s, units));
        for (int i = 0; i < std::min(period, active); ++i) {
            reserve((active - i + period - 1) / period);
            unit_idx += s;
            if (unit_idx >= units)
                unit_idx -= units;
        }
    } else {
        // Sub-sector strides: equal sectors form adjacent runs of
        // lanes, and the unit index follows the sector delta.
        int run = 1;
        for (int lane = 1; lane < active; ++lane) {
            addr += step;
            const std::uint64_t next = addr >> sector_shift;
            if (next != line) {
                reserve(run);
                run = 0;
                // Divide only when the sector jumps a unit count or
                // wraps.
                unit_idx = next > line && next - line < units
                               ? unit_idx + (next - line)
                               : next % units;
                if (unit_idx >= units)
                    unit_idx -= units;
                line = next;
            }
            ++run;
        }
        reserve(run);
    }

    if (op.value_returning) {
        finishOp(warp_id, last_svc + cfg_.atomic_rt);
        return;
    }
    const Tick window_ok =
        last_svc > cfg_.ff_window ? last_svc - cfg_.ff_window : 0;
    finishOp(warp_id, std::max(post_done, window_ok));
}

void
GpuMachine::execSharedAtomic(int warp_id, const DecodedGpuOp &op,
                             Tick now)
{
    WarpCtx &warp = warps_[warp_id];
    const Tick issued = issueThrough(warp, now);
    const int active = activeLanes(warp, op);
    if (active == 0) {
        finishOp(warp_id, issued);
        return;
    }

    Tick &unit = smem_free_[warp.sm];
    const Tick svc_start = std::max(issued, unit);
    const Tick svc_done =
        svc_start + static_cast<Tick>(active) * cfg_.smem_addr_ii;
    unit = svc_done;
    stats_.inc(sim::Probe::GpuSmemAtomic,
               static_cast<std::uint64_t>(active));

    if (op.value_returning) {
        finishOp(warp_id, svc_done + cfg_.smem_rt);
        return;
    }
    const Tick window_ok =
        svc_done > cfg_.smem_ff_window ? svc_done - cfg_.smem_ff_window
                                       : 0;
    finishOp(warp_id, std::max(issued + cfg_.issue_ii, window_ok));
}

void
GpuMachine::execSyncThreads(int warp_id, const DecodedGpuOp &, Tick now)
{
    arriveSyncThreads(warp_id, issueThrough(warps_[warp_id], now));
}

void
GpuMachine::execGridSync(int warp_id, const DecodedGpuOp &, Tick now)
{
    arriveGridSync(warp_id, issueThrough(warps_[warp_id], now));
}

void
GpuMachine::arriveSyncThreads(int warp_id, Tick when)
{
    WarpCtx &warp = warps_[warp_id];
    BlockState &block = blocks_[warp.block];
    if (block.arrived == 0)
        block.first_arrival = when;
    else
        block.first_arrival = std::min(block.first_arrival, when);
    ++block.arrived;
    block.last_arrival = std::max(block.last_arrival, when);
    block.waiters.push_back(warp_id);
    if (block.arrived < block.warps)
        return;

    // Hardware barrier: arrival/release processing is per warp.
    const Tick release =
        block.last_arrival + cfg_.syncthreads_base +
        static_cast<Tick>(block.warps) * cfg_.syncthreads_per_warp;
    stats_.inc(sim::Probe::GpuSyncthreads);
    stats_.record(sim::HistProbe::GpuBarrierSpreadTicks,
                  block.last_arrival - block.first_arrival);

    std::vector<int> waiters = std::move(block.waiters);
    block.waiters.clear();
    block.arrived = 0;
    block.first_arrival = 0;
    block.last_arrival = 0;

    for (int w : waiters) {
        warps_[w].resume = true;
        eq_.wake(release, w);
    }
}

void
GpuMachine::arriveGridSync(int warp_id, Tick when)
{
    WarpCtx &warp = warps_[warp_id];
    if (!pending_blocks_.empty()) {
        fatal("grid-wide sync in block {} would deadlock: {} blocks are "
              "not resident (use a cooperative launch that fits the "
              "device)", warp.block, pending_blocks_.size());
    }
    if (grid_arrivals_ == 0)
        grid_first_arrival_ = when;
    else
        grid_first_arrival_ = std::min(grid_first_arrival_, when);
    ++grid_arrivals_;
    grid_last_arrival_ = std::max(grid_last_arrival_, when);
    grid_waiters_.push_back(warp_id);

    int total_warps = 0;
    for (const auto &block : blocks_)
        total_warps += block.warps;
    if (grid_arrivals_ < total_warps)
        return;

    // Arrival counting happens through L2 atomics, serialized per
    // block; release is a device-wide broadcast.
    const Tick release =
        grid_last_arrival_ + cfg_.grid_sync_base +
        static_cast<Tick>(blocks_.size()) * cfg_.grid_sync_per_block;
    stats_.inc(sim::Probe::GpuGridSync);
    stats_.record(sim::HistProbe::GpuBarrierSpreadTicks,
                  grid_last_arrival_ - grid_first_arrival_);

    std::vector<int> waiters = std::move(grid_waiters_);
    grid_waiters_.clear();
    grid_arrivals_ = 0;
    grid_first_arrival_ = 0;
    grid_last_arrival_ = 0;
    for (int w : waiters) {
        warps_[w].resume = true;
        eq_.wake(release, w);
    }
}

template <class Self, class V>
void
GpuMachine::visitState(Self &self, V &v)
{
    for (std::size_t i = 0; i < self.warps_.size(); ++i) {
        auto &w = self.warps_[i];
        v.word(static_cast<std::uint64_t>(w.pc) << 32 |
               static_cast<std::uint64_t>(w.phase) << 4 |
               static_cast<std::uint64_t>(w.done) << 1 |
               static_cast<std::uint64_t>(w.resume));
        v.word(static_cast<std::uint64_t>(w.rep_left));
        v.word(static_cast<std::uint64_t>(w.sm + 1) << 8 |
               static_cast<std::uint64_t>(w.sched));
        // Warp-local stamps are only ever read by the owning warp's
        // later ops, whose issue times are at least the warp's own
        // next scheduled event: that tick is a far tighter liveness
        // floor than the global one, and without it a store-heavy
        // warp's commit stamp flickers between dead and live across
        // boundaries, spoiling every fingerprint.
        v.actorMaxReg(static_cast<int>(i), w.last_store_commit);
        v.actorMaxReg(static_cast<int>(i), w.own_atomic_gate);
    }
    for (auto &b : self.blocks_) {
        v.word(static_cast<std::uint64_t>(b.sm + 1) << 32 |
               static_cast<std::uint64_t>(b.done_warps) << 16 |
               static_cast<std::uint64_t>(b.arrived));
        // Rendezvous stamps of a partially arrived barrier are live in
        // both directions: first feeds a min, and last can still win
        // its max when issue contention reorders arrival ticks.
        v.stampIf(b.arrived > 0, b.first_arrival);
        v.stampIf(b.arrived > 0, b.last_arrival);
        v.word(b.waiters.size());
        v.words(b.waiters);
    }
    v.word(self.pending_blocks_.size());
    v.words(self.pending_blocks_);
    v.words(self.sm_free_threads_);
    v.words(self.sm_blocks_);
    v.words(self.sm_next_sched_);
    v.maxRegs(self.sched_free_);
    v.maxRegs(self.lsu_free_);
    v.maxRegs(self.smem_free_);
    v.maxRegs(self.reduce_free_);
    v.maxRegs(self.unit_free_);
    // The DRAM queue tail is fire-and-forget: stores push it forward
    // without waiting, so under a store-heavy body it runs ahead of
    // the clock without bound and would spoil every boundary
    // fingerprint. Its value only ever reaches a run result through
    // a global load (the one reader); when the launched program
    // contains none, the register is outcome-dead for the rest of
    // the run.
    v.gatedMaxReg(self.lb_mem_bw_live_, self.mem_bw_free_);
    v.map(self.line_free_, [&v](auto &when) { v.maxReg(when); });
    v.map(self.sm_line_gate_, [&v](auto &gate) {
        v.maxReg(gate.newest);
        v.maxReg(gate.oldest);
    });
    v.word(static_cast<std::uint64_t>(self.grid_arrivals_));
    v.stampIf(self.grid_arrivals_ > 0, self.grid_first_arrival_);
    v.stampIf(self.grid_arrivals_ > 0, self.grid_last_arrival_);
    v.words(self.grid_waiters_);
    // warp.start/warp.end are frozen clock64() outputs shared with
    // the unbatched run; the rng did not advance. warp.aligning is
    // left out with them: it only makes a wake stamp warp.start, and
    // no boundary jumps with an alignment wake pending (see
    // advancePhase), so an anchor taken while one was pending and a
    // later boundary that differs from it only there prove the same
    // period. Encoding the flag would split such matches and
    // single-step iterations a jump covers.
}

void
GpuMachine::step(int warp_id)
{
    WarpCtx &warp = warps_[warp_id];
    SYNCPERF_ASSERT(!warp.done);
    const Tick now = eq_.now();
    if (warp.resume) {
        // Barrier release: the blocked op completes now.
        warp.resume = false;
        finishOp(warp_id, now);
        return;
    }
    if (warp.aligning) {
        // Alignment release: stamp clock64() (Listing 3 line 11).
        warp.aligning = false;
        warp.start = now;
    }

    const std::vector<DecodedGpuOp> &code = *warp.code;
    if (code.empty() || warp.pc >= code.size()) {
        advancePhase(warp_id, now);
        return;
    }

    const DecodedGpuOp &op = code[warp.pc];
    if (warp.rep_left == 0)
        warp.rep_left = op.repeat;

    (this->*op.handler)(warp_id, op, now);
}

void
GpuMachine::finishOp(int warp_id, Tick done)
{
    WarpCtx &warp = warps_[warp_id];
    if (--warp.rep_left > 0) {
        eq_.wake(done, warp_id);
        return;
    }
    ++warp.pc;

    if (warp.pc < warp.code->size()) {
        eq_.wake(done, warp_id);
        return;
    }
    warp.pc = 0;
    // Timed boundary: the batcher may jump whole steady-state
    // periods here, shifting this warp's continuation with them.
    if (warp.phase == Phase::Timed)
        done += batcher_.boundary(*this, warp_id, done);
    if ((warp.phase == Phase::Warmup || warp.phase == Phase::Timed) &&
        --warp.iters_left > 0) {
        eq_.wake(done, warp_id);
        return;
    }
    batcher_.retire(warp_id);
    advancePhase(warp_id, done);
}

void
GpuMachine::advancePhase(int warp_id, Tick done)
{
    WarpCtx &warp = warps_[warp_id];
    switch (warp.phase) {
      case Phase::Prologue:
        if (warmup_iterations_ > 0 && !image_->body.empty()) {
            warp.phase = Phase::Warmup;
            warp.code = &image_->body;
            warp.iters_left = warmup_iterations_;
            eq_.wake(done, warp_id);
            return;
        }
        warp.phase = Phase::Timed;
        warp.code = &image_->body;
        warp.start = done;
        warp.iters_left = image_->body.empty() ? 0 : image_->body_iters;
        if (warp.iters_left == 0) {
            advancePhase(warp_id, done);
            return;
        }
        eq_.wake(done, warp_id);
        return;

      case Phase::Warmup: {
        // Align the block, then stamp clock64() (Listing 3 line 11).
        warp.phase = Phase::Timed;
        warp.iters_left = image_->body_iters;
        // The alignment __syncthreads() reuses the block barrier; the
        // start stamp is taken at its release.
        BlockState &block = blocks_[warp.block];
        ++block.arrived;
        block.last_arrival = std::max(block.last_arrival, done);
        block.waiters.push_back(warp_id);
        if (block.arrived < block.warps)
            return;
        const Tick release =
            block.last_arrival + cfg_.syncthreads_base +
            static_cast<Tick>(block.warps) * cfg_.syncthreads_per_warp;
        std::vector<int> waiters = std::move(block.waiters);
        block.waiters.clear();
        block.arrived = 0;
        block.last_arrival = 0;
        // The start stamp is the wake's tick, which is `release`:
        // this one-shot wake's boundary-relative offset shrinks
        // between any two trigger boundaries, so it can never be
        // part of equal fingerprints and is never shifted.
        for (int w : waiters) {
            warps_[w].aligning = true;
            eq_.wake(release, w);
        }
        return;
      }

      case Phase::Timed:
        warp.end = done;
        warp.phase = Phase::Epilogue;
        warp.code = &image_->epilogue;
        if (image_->epilogue.empty()) {
            warpDone(warp_id, done);
            return;
        }
        eq_.wake(done, warp_id);
        return;

      case Phase::Epilogue:
        warpDone(warp_id, done);
        return;
    }
}

void
GpuMachine::warpDone(int warp_id, Tick done)
{
    WarpCtx &warp = warps_[warp_id];
    warp.done = true;
    if (warp.end == 0)
        warp.end = done;

    BlockState &block = blocks_[warp.block];
    if (++block.done_warps < block.warps)
        return;

    // Block retired: release its SM slot and launch a pending block.
    sm_free_threads_[block.sm] += block.threads;
    --sm_blocks_[block.sm];
    stats_.inc(sim::Probe::GpuBlocksRetired);
    tryLaunchBlocks(done);
}

void
GpuMachine::tryLaunchBlocks(Tick when)
{
    while (!pending_blocks_.empty()) {
        const int block_id = pending_blocks_.front();
        const BlockState &pending = blocks_[block_id];
        int best_sm = -1;
        for (int sm = 0; sm < cfg_.sm_count; ++sm) {
            if (sm_free_threads_[sm] >= pending.threads &&
                sm_blocks_[sm] < cfg_.max_blocks_per_sm) {
                if (best_sm < 0 ||
                    sm_free_threads_[sm] > sm_free_threads_[best_sm]) {
                    best_sm = sm;
                }
            }
        }
        if (best_sm < 0)
            return;
        pending_blocks_.pop_front();
        launchBlock(block_id, best_sm, when);
    }
}

void
GpuMachine::launchBlock(int block_id, int sm, Tick when)
{
    BlockState &block = blocks_[block_id];
    block.sm = sm;
    sm_free_threads_[sm] -= block.threads;
    ++sm_blocks_[sm];

    const Tick start = when + cfg_.block_launch_overhead;
    for (int w = 0; w < block.warps; ++w) {
        const int warp_id = block.first_warp + w;
        WarpCtx &warp = warps_[warp_id];
        warp.sm = sm;
        warp.sched = sm_next_sched_[sm];
        sm_next_sched_[sm] =
            (sm_next_sched_[sm] + 1) % cfg_.schedulers_per_sm;
        eq_.wake(start, warp_id);
    }
    stats_.inc(sim::Probe::GpuBlocksLaunched);
}

GpuMachine::DecodedGpuOp
GpuMachine::decodeOp(const GpuOp &op) const
{
    DecodedGpuOp d;
    d.repeat = op.repeat;
    d.stride = op.stride;
    d.pred = op.pred;
    d.amode = op.amode;
    d.base_addr = op.base_addr;
    d.esize = dataTypeSize(op.dtype);
    d.value_returning =
        op.aop == AtomicOp::Cas || op.aop == AtomicOp::Exch;
    switch (op.kind) {
      case GpuOpKind::Alu:
        d.handler = &GpuMachine::execAlu;
        d.lat = cfg_.alu_latency;
        return d;
      case GpuOpKind::DivergentAlu:
        d.handler = &GpuMachine::execDivergentAlu;
        d.uops = std::max(1, op.diverge_paths);
        d.lat = static_cast<Tick>(d.uops) * cfg_.alu_latency;
        return d;
      case GpuOpKind::SyncWarp:
        d.handler = &GpuMachine::execSyncWarp;
        d.lat = cfg_.syncwarp_latency;
        return d;
      case GpuOpKind::Shfl:
        d.handler = &GpuMachine::execShfl;
        d.uops = dataTypeSize(op.dtype) > 4 ? 2 : 1;
        d.lat = cfg_.shfl_latency;
        return d;
      case GpuOpKind::Vote:
        d.handler = &GpuMachine::execVote;
        d.lat = cfg_.vote_latency;
        return d;
      case GpuOpKind::ReduceSync:
        if (cfg_.reduce_latency == 0) {
            fatal("__reduce_*_sync requires compute capability >= 8.0 "
                  "({} is cc {})", cfg_.name, cfg_.compute_capability);
        }
        d.handler = &GpuMachine::execReduceSync;
        return d;
      case GpuOpKind::Fence:
        switch (op.scope) {
          case FenceScope::Block:
            d.handler = &GpuMachine::execFenceBlock;
            d.lat = cfg_.fence_block;
            return d;
          case FenceScope::System:
            d.handler = &GpuMachine::execFenceSystem;
            d.lat = cfg_.fence_system;
            return d;
          case FenceScope::Device:
            break;
        }
        d.handler = &GpuMachine::execFenceDevice;
        d.lat = cfg_.fence_device;
        return d;
      case GpuOpKind::GlobalLoad:
        d.handler = &GpuMachine::execGlobalLoad;
        return d;
      case GpuOpKind::GlobalStore:
        d.handler = &GpuMachine::execGlobalStore;
        return d;
      case GpuOpKind::GlobalAtomic:
        if (op.amode != AddressMode::PerThread) {
            if (d.value_returning) {
                d.handler = &GpuMachine::execAtomicCasLike;
            } else {
                d.handler = &GpuMachine::execAtomicSameAddr;
                d.aggregated = cfg_.enable_warp_aggregation;
                d.addr_ii = cfg_.addrIi(op.dtype);
                d.gate_delay = gateDelay(op.dtype);
            }
            return d;
        }
        d.handler = &GpuMachine::execAtomicPerThread;
        d.unit_ii = cfg_.unitIi(op.dtype);
        return d;
      case GpuOpKind::SharedAtomic:
        d.handler = &GpuMachine::execSharedAtomic;
        return d;
      case GpuOpKind::SyncThreads:
        d.handler = &GpuMachine::execSyncThreads;
        return d;
      case GpuOpKind::GridSync:
        d.handler = &GpuMachine::execGridSync;
        return d;
    }
    panic("unhandled GPU op kind");
}

std::vector<GpuMachine::DecodedGpuOp>
GpuMachine::decodeSequence(const std::vector<GpuOp> &ops) const
{
    std::vector<DecodedGpuOp> out;
    out.reserve(ops.size());
    for (const GpuOp &op : ops)
        out.push_back(decodeOp(op));
    return out;
}

GpuMachine::DecodedImage
GpuMachine::decode(const GpuKernel &kernel) const
{
    SYNCPERF_ASSERT(kernel.body_iters >= 1 || kernel.body.empty());
    DecodedImage img;
    img.prologue = decodeSequence(kernel.prologue);
    img.body = decodeSequence(kernel.body);
    img.epilogue = decodeSequence(kernel.epilogue);
    img.body_iters = kernel.body_iters;
    img.fingerprint = fingerprintOf(img);
    const auto fences_system = [](const DecodedGpuOp &op) {
        return op.handler == &GpuMachine::execFenceSystem;
    };
    img.draws_jitter = std::ranges::any_of(img.prologue, fences_system) ||
                       std::ranges::any_of(img.body, fences_system) ||
                       std::ranges::any_of(img.epilogue, fences_system);
    return img;
}

GpuRunResult
GpuMachine::run(const GpuKernel &kernel, LaunchConfig launch,
                int warmup_iterations)
{
    return run(decode(kernel), launch, warmup_iterations);
}

GpuRunResult
GpuMachine::run(const GpuKernel &kernel, LaunchConfig launch,
                int warmup_iterations, std::uint64_t seed)
{
    reseed(seed);
    return run(kernel, launch, warmup_iterations);
}

GpuRunResult
GpuMachine::run(const DecodedImage &image, LaunchConfig launch,
                int warmup_iterations)
{
    SYNCPERF_ASSERT(launch.blocks >= 1);
    SYNCPERF_ASSERT(launch.threads_per_block >= 1 &&
                    launch.threads_per_block <= cfg_.max_threads_per_block);

    image_ = &image;
    warmup_iterations_ = warmup_iterations;

    stats_.clear();
    const auto has_load = [](const std::vector<DecodedGpuOp> &code) {
        for (const DecodedGpuOp &op : code)
            if (op.handler == &GpuMachine::execGlobalLoad)
                return true;
        return false;
    };
    lb_mem_bw_live_ = has_load(image.prologue) || has_load(image.body) ||
                      has_load(image.epilogue);
    warps_.clear();
    blocks_.assign(launch.blocks, BlockState{});
    pending_blocks_.clear();
    sm_free_threads_.assign(cfg_.sm_count, cfg_.max_threads_per_sm);
    sm_blocks_.assign(cfg_.sm_count, 0);
    sm_next_sched_.assign(cfg_.sm_count, 0);
    sched_free_.assign(
        static_cast<std::size_t>(cfg_.sm_count) * cfg_.schedulers_per_sm,
        0);
    lsu_free_.assign(cfg_.sm_count, 0);
    smem_free_.assign(cfg_.sm_count, 0);
    reduce_free_.assign(cfg_.sm_count, 0);
    unit_free_.assign(cfg_.l2_atomic_units, 0);
    line_free_.clear();
    sm_line_gate_.clear();
    mem_bw_free_ = 0;
    grid_arrivals_ = 0;
    grid_first_arrival_ = 0;
    grid_last_arrival_ = 0;
    grid_waiters_.clear();

    const int warps_per_block = cfg_.warpsPerBlock(launch.threads_per_block);
    for (int b = 0; b < launch.blocks; ++b) {
        BlockState &block = blocks_[b];
        block.warps = warps_per_block;
        block.threads = launch.threads_per_block;
        block.first_warp = static_cast<int>(warps_.size());
        for (int w = 0; w < warps_per_block; ++w) {
            WarpCtx warp;
            warp.block = b;
            warp.warp_in_block = w;
            warp.code = &image.prologue;
            warp.first_tid = b * launch.threads_per_block +
                             w * cfg_.warp_size;
            warp.lanes = std::min(
                cfg_.warp_size,
                launch.threads_per_block - w * cfg_.warp_size);
            warps_.push_back(warp);
        }
        pending_blocks_.push_back(b);
    }
    eq_.reset(warps_.size());
    batcher_.beginRun(eq_, stats_,
                      image.body.empty()
                          ? 0
                          : static_cast<std::uint64_t>(image.body_iters) *
                                warps_.size());
    tryLaunchBlocks(0);

    for (int w; (w = eq_.next()) != sim::EventQueue::none;)
        step(w);
    const Tick end = eq_.now();

    GpuRunResult result;
    result.total_cycles = end;
    result.warp_cycles.reserve(warps_.size());
    for (const auto &warp : warps_) {
        SYNCPERF_ASSERT(warp.done, "warp did not finish (deadlock?)");
        result.warp_cycles.push_back(
            warp.end >= warp.start ? warp.end - warp.start : 0);
    }

    // Counters and histograms were recorded in place through the
    // interned O(1) probes; only the queue's high-water mark is
    // stamped once per run.
    stats_.inc(sim::Probe::EqMaxDepth,
               static_cast<std::uint64_t>(eq_.maxPending()));
    return result;
}

const GpuMachine::OpHandler *
GpuMachine::handlerTable(std::size_t &count)
{
    static constexpr OpHandler table[] = {
        &GpuMachine::execAlu,           // 0
        &GpuMachine::execDivergentAlu,  // 1
        &GpuMachine::execSyncWarp,      // 2
        &GpuMachine::execShfl,          // 3
        &GpuMachine::execVote,          // 4
        &GpuMachine::execReduceSync,    // 5
        &GpuMachine::execFenceBlock,    // 6
        &GpuMachine::execFenceDevice,   // 7
        &GpuMachine::execFenceSystem,   // 8
        &GpuMachine::execGlobalLoad,    // 9
        &GpuMachine::execGlobalStore,   // 10
        &GpuMachine::execAtomicSameAddr,  // 11
        &GpuMachine::execAtomicCasLike,   // 12
        &GpuMachine::execAtomicPerThread, // 13
        &GpuMachine::execSharedAtomic,  // 14
        &GpuMachine::execSyncThreads,   // 15
        &GpuMachine::execGridSync,      // 16
    };
    count = std::size(table);
    return table;
}

std::uint64_t
GpuMachine::fingerprintOf(const DecodedImage &img)
{
    // FNV-1a over every decoded word: two kernels share a
    // fingerprint iff their decoded forms -- what run() actually
    // executes -- are identical.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto fold = [&h](std::uint64_t w) {
        h = (h ^ w) * 0x100000001b3ULL;
    };
    std::size_t n_handlers = 0;
    const OpHandler *table = handlerTable(n_handlers);
    const auto fold_seq = [&](const std::vector<DecodedGpuOp> &code) {
        fold(code.size());
        for (const DecodedGpuOp &op : code) {
            std::size_t id = 0;
            while (id < n_handlers && table[id] != op.handler)
                ++id;
            SYNCPERF_ASSERT(id < n_handlers,
                            "decoded handler missing from the handler "
                            "table");
            fold(id);
            fold(static_cast<std::uint64_t>(op.repeat));
            fold(static_cast<std::uint64_t>(op.uops));
            fold(static_cast<std::uint64_t>(op.stride));
            fold(static_cast<std::uint64_t>(op.pred));
            fold(static_cast<std::uint64_t>(op.amode));
            fold(op.aggregated ? 1 : 0);
            fold(op.value_returning ? 1 : 0);
            fold(op.base_addr);
            fold(op.esize);
            fold(op.lat);
            fold(op.addr_ii);
            fold(op.unit_ii);
            fold(op.gate_delay);
        }
    };
    fold_seq(img.prologue);
    fold_seq(img.body);
    fold_seq(img.epilogue);
    return h;
}

} // namespace syncperf::gpusim
