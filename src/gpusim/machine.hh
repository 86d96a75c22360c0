/**
 * @file
 * SIMT GPU timing machine.
 *
 * Executes a GpuKernel over a grid, warp-synchronously, against the
 * mechanisms the paper uses to explain its CUDA results:
 *
 * - warp-granular execution with per-scheduler issue bandwidth (the
 *   __syncwarp/__shfl_sync full-speed warp-count knees);
 * - a hardware block barrier whose cost grows with resident warps
 *   (__syncthreads), independent of block count;
 * - L2 atomic units with per-address service intervals, an
 *   address-hashed unit pool, and JIT warp aggregation for
 *   reduction-style atomics on a single address (atomicAdd/Max);
 * - one outstanding same-address atomic per SM (same-SM warps
 *   serialize; different SMs pipeline in the L2);
 * - value-returning atomics (CAS/exchange) that never aggregate and
 *   pipeline same-address lanes in small groups;
 * - constant-cost fences per scope, with deterministic PCIe jitter
 *   for the system scope;
 * - shared-memory (block-scoped) atomics served by a per-SM unit;
 * - block residency limits and wave-by-wave block scheduling.
 *
 * Execution uses precompiled dispatch: decode() turns the kernel's
 * three op sequences into a DecodedImage, dense handler+operand
 * arrays (fixed latencies, micro-op counts, and per-type service
 * intervals all hoisted), and run() executes an image, its event loop
 * jumping straight into per-op handlers with no switch. Event
 * ordering is identical to the historical switch interpreter, so
 * results stay bit-for-bit reproducible.
 */

#ifndef SYNCPERF_GPUSIM_MACHINE_HH
#define SYNCPERF_GPUSIM_MACHINE_HH

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "gpusim/gpu_config.hh"
#include "gpusim/kernel.hh"
#include "sim/event_queue.hh"
#include "sim/loop_batch.hh"
#include "sim/stat.hh"

namespace syncperf::gpusim
{

/** Outcome of one GpuMachine::run() invocation. */
struct GpuRunResult
{
    /**
     * clock64() delta of the timed region for every warp of the
     * grid, in warp order (block-major), in GPU cycles. All lanes of
     * a warp share this one value, so a thread's runtime is its
     * warp's entry.
     */
    std::vector<sim::Tick> warp_cycles;

    /** Tick at which the last block finished (kernel runtime). */
    sim::Tick total_cycles = 0;
};

/**
 * The machine. One instance simulates one kernel launch at a time;
 * run() fully re-initializes, so an instance may be reused for
 * independent launches (reseed() between launches restores the
 * fresh-machine jitter stream while keeping warm buffers).
 */
class GpuMachine
{
  public:
    using Config = GpuConfig;

    /**
     * @param cfg Device parameters (see the Table I presets).
     * @param seed Seed for the deterministic jitter stream.
     */
    explicit GpuMachine(GpuConfig cfg, std::uint64_t seed = 1);

    /** One decoded op: handler plus hoisted operands. */
    struct DecodedGpuOp
    {
        /** Receives the queue's now tick; finishes or blocks. */
        void (GpuMachine::*handler)(int warp_id, const DecodedGpuOp &op,
                                    Tick now) = nullptr;
        int repeat = 1;
        int uops = 1;        ///< scheduler slots (paths, shfl uops)
        int stride = 1;      ///< elements, for PerThread addressing
        Predicate pred = Predicate::All;
        AddressMode amode = AddressMode::SingleShared;
        bool aggregated = false;      ///< warp aggregation applies
        bool value_returning = false; ///< CAS/exchange result needed
        std::uint64_t base_addr = 0;
        std::uint64_t esize = 4;  ///< dataTypeSize(dtype), hoisted
        Tick lat = 0;             ///< fixed latency term, hoisted
        Tick addr_ii = 0;         ///< cfg.addrIi(dtype), hoisted
        Tick unit_ii = 0;         ///< cfg.unitIi(dtype), hoisted
        Tick gate_delay = 0;      ///< gateDelay(dtype), hoisted
    };

    /**
     * An immutable decoded kernel: the three dense op sequences and
     * the timed iteration count. It holds no machine state and no
     * launch geometry, so any machine of the same config runs it on
     * any grid.
     */
    struct DecodedImage
    {
        std::vector<DecodedGpuOp> prologue;
        std::vector<DecodedGpuOp> body;
        std::vector<DecodedGpuOp> epilogue;
        long body_iters = 1;

        /**
         * Content digest of the decoded sequences (handler ids,
         * operands, hoisted costs -- everything run() executes except
         * body_iters, and nothing it does not, so kernels whose raw
         * data types decode to the same costs share a fingerprint).
         * Equal fingerprints mean equal walks for equal (seed,
         * geometry, body_iters, warmup): the launch memo keys on it.
         */
        std::uint64_t fingerprint = 0;

        /**
         * True iff an op decodes to a system-scope fence, the one op
         * that draws seeded PCIe jitter (on every fence it executes):
         * only then does a launch's outcome depend on its seed.
         */
        bool draws_jitter = false;
    };

    /** Decode @p kernel into an image. */
    DecodedImage decode(const GpuKernel &kernel) const;

    /**
     * Launch a decoded kernel with geometry @p launch.
     *
     * Mirrors the paper's Listing 3: each thread executes the
     * prologue, @p warmup_iterations untimed body repetitions, a
     * block-wide __syncthreads(), reads clock64(), executes
     * body_iters timed body repetitions, reads clock64() again, and
     * finally runs the epilogue. The warps run the image's sequences
     * in place, so @p image must outlive the call.
     *
     * @param warmup_iterations May be zero for application kernels
     *        (reductions); the timed region then starts right after
     *        the prologue without an extra sync.
     */
    GpuRunResult run(const DecodedImage &image, LaunchConfig launch,
                     int warmup_iterations = 2);

    /** Decode @p kernel and launch it. */
    GpuRunResult run(const GpuKernel &kernel, LaunchConfig launch,
                     int warmup_iterations = 2);

    /**
     * reseed(@p seed), then decode and launch @p kernel: exactly what
     * a fresh GpuMachine(cfg, seed) returns. The sim target simulates
     * its launches through this entry point, which perfbench's layer
     * probe times by its symbol name.
     */
    GpuRunResult run(const GpuKernel &kernel, LaunchConfig launch,
                     int warmup_iterations, std::uint64_t seed);

    /**
     * Restart the jitter stream as if the machine had been freshly
     * constructed with @p seed: a reused machine produces the exact
     * cycle counts a new GpuMachine(cfg, seed) would.
     */
    void reseed(std::uint64_t seed);

    /** Activity counters from the most recent run. */
    const sim::StatSet &stats() const { return stats_; }

    const GpuConfig &config() const { return cfg_; }

    /**
     * Enable/disable steady-state loop batching (default on). The
     * run's results are bit-identical either way -- batching only
     * skips re-deriving state the detector has proven periodic
     * (docs/performance.md, "Loop batching").
     */
    void setLoopBatch(bool on) { batcher_.setEnabled(on); }

    /** Loop-batching activity of the most recent run. */
    const sim::LoopBatchCounters &
    loopBatch() const { return batcher_.counters(); }

    /**
     * Pin the loop-batching horizon at @p when for every subsequent
     * run(): no batch window jumps across the pin, and boundaries at
     * or past it single-step (the fault-injection / test hook;
     * sim::EventQueue::no_tick, the default, unpins). Results stay
     * bit-identical -- the pin only shrinks what may be batched.
     */
    void setBatchHorizonPin(Tick when) { batcher_.setPin(when); }

    /** The machine's event queue (test hook for horizon pinning). */
    sim::EventQueue &eventQueue() { return eq_; }

  private:
    friend class sim::LoopBatcher;

    enum class Phase
    {
        Prologue,
        Warmup,
        Timed,
        Epilogue,
    };

    struct WarpCtx
    {
        int block = 0;          ///< global block id
        int warp_in_block = 0;
        int sm = -1;
        int sched = 0;          ///< scheduler partition on the SM
        int lanes = 32;         ///< active thread lanes
        int first_tid = 0;      ///< global id of lane 0

        Phase phase = Phase::Prologue;
        const std::vector<DecodedGpuOp> *code = nullptr;
        std::size_t pc = 0;
        int rep_left = 0;
        long iters_left = 0;

        Tick start = 0;
        Tick end = 0;
        bool done = false;

        /** The pending wake is a barrier release: the next step()
         * finishes the blocked op instead of issuing. */
        bool resume = false;

        /** The pending wake is the alignment release: the next
         * step() stamps start before issuing. */
        bool aligning = false;

        /** Commit time of this warp's most recent global store (the
         * point a device-scope fence must wait for). */
        Tick last_store_commit = 0;

        /** A warp keeps one aggregated same-address atomic in
         * flight; the next waits for this round-trip point. */
        Tick own_atomic_gate = 0;
    };

    /** Pipelined outstanding-request window for per-SM atomic gating. */
    struct GateSlots
    {
        Tick newest = 0;
        Tick oldest = 0;
    };

    struct BlockState
    {
        int sm = -1;
        int warps = 0;
        int threads = 0;
        int first_warp = 0;     ///< index into warps_
        int done_warps = 0;
        // __syncthreads rendezvous
        int arrived = 0;
        Tick first_arrival = 0;
        Tick last_arrival = 0;
        std::vector<int> waiters;
    };

    /** Issue an instruction through the warp's scheduler. */
    Tick issueThrough(WarpCtx &warp, Tick ready, int uops = 1);

    Tick gateDelay(DataType t) const;

    DecodedGpuOp decodeOp(const GpuOp &op) const;
    std::vector<DecodedGpuOp>
    decodeSequence(const std::vector<GpuOp> &ops) const;

    /** Digest over the decoded sequences (handler ids and operands). */
    static std::uint64_t fingerprintOf(const DecodedImage &img);

    /** Every op handler: fingerprints fold a handler's index in
     * this table, since member pointers have no integer value. */
    using OpHandler = void (GpuMachine::*)(int, const DecodedGpuOp &,
                                           Tick);
    static const OpHandler *handlerTable(std::size_t &count);

    void step(int warp_id);
    void finishOp(int warp_id, Tick done);
    void advancePhase(int warp_id, Tick done);
    void arriveSyncThreads(int warp_id, Tick when);
    void arriveGridSync(int warp_id, Tick when);
    void tryLaunchBlocks(Tick when);
    void launchBlock(int block_id, int sm, Tick when);
    void warpDone(int warp_id, Tick done);

    // --- Decoded-op handlers (one per timing path) ---
    void execAlu(int warp_id, const DecodedGpuOp &op, Tick now);
    void execDivergentAlu(int warp_id, const DecodedGpuOp &op, Tick now);
    void execSyncWarp(int warp_id, const DecodedGpuOp &op, Tick now);
    void execShfl(int warp_id, const DecodedGpuOp &op, Tick now);
    void execVote(int warp_id, const DecodedGpuOp &op, Tick now);
    void execReduceSync(int warp_id, const DecodedGpuOp &op, Tick now);
    void execFenceBlock(int warp_id, const DecodedGpuOp &op, Tick now);
    void execFenceDevice(int warp_id, const DecodedGpuOp &op, Tick now);
    void execFenceSystem(int warp_id, const DecodedGpuOp &op, Tick now);
    void execGlobalLoad(int warp_id, const DecodedGpuOp &op, Tick now);
    void execGlobalStore(int warp_id, const DecodedGpuOp &op, Tick now);
    void execAtomicSameAddr(int warp_id, const DecodedGpuOp &op,
                            Tick now);
    void execAtomicCasLike(int warp_id, const DecodedGpuOp &op,
                           Tick now);
    void execAtomicPerThread(int warp_id, const DecodedGpuOp &op,
                             Tick now);
    void execSharedAtomic(int warp_id, const DecodedGpuOp &op, Tick now);
    void execSyncThreads(int warp_id, const DecodedGpuOp &op, Tick now);
    void execGridSync(int warp_id, const DecodedGpuOp &op, Tick now);

    int activeLanes(const WarpCtx &warp, const DecodedGpuOp &op) const;
    std::uint64_t resolveAddr(const WarpCtx &warp,
                              const DecodedGpuOp &op, int lane) const;

    // --- Loop-batching hooks (sim::LoopBatcher; the actors are the
    // warps) ---

    /** The fingerprinted state, each field once with its liveness
     * class (sim::StateEncoder). */
    template <class Self, class V> static void visitState(Self &self, V &v);

    int actorCount() const { return static_cast<int>(warps_.size()); }
    long &itersLeft(int warp_id) { return warps_[warp_id].iters_left; }
    std::uint64_t rngState() const { return rng_.state(); }

    GpuConfig cfg_;
    Pcg32 rng_;
    sim::EventQueue eq_;
    sim::StatSet stats_;

    /** The image of the current run. */
    const DecodedImage *image_ = nullptr;
    int warmup_iterations_ = 0;

    std::vector<WarpCtx> warps_;
    std::vector<BlockState> blocks_;
    std::deque<int> pending_blocks_;
    std::vector<int> sm_free_threads_;
    std::vector<int> sm_blocks_;
    std::vector<int> sm_next_sched_;

    // Resource reservations.
    std::vector<Tick> sched_free_;       ///< sm * schedulers + sched
    std::vector<Tick> lsu_free_;         ///< per SM
    std::vector<Tick> smem_free_;        ///< per SM
    std::vector<Tick> reduce_free_;      ///< per SM (__reduce_*_sync)
    std::vector<Tick> unit_free_;        ///< L2 atomic units
    std::unordered_map<std::uint64_t, Tick> line_free_;
    std::unordered_map<std::uint64_t, GateSlots> sm_line_gate_;
    Tick mem_bw_free_ = 0;

    // Grid-wide barrier rendezvous (cooperative launch).
    int grid_arrivals_ = 0;
    Tick grid_first_arrival_ = 0;
    Tick grid_last_arrival_ = 0;
    std::vector<int> grid_waiters_;

    /** Steady-state loop batching; the first warp to complete a
     * timed body iteration becomes its trigger. */
    sim::LoopBatcher batcher_;
    /** Whether the launched program can read mem_bw_free_ (it holds
     * a global load): if not, the register is outcome-dead and the
     * boundary fingerprint canonicalizes it (see visitState). */
    bool lb_mem_bw_live_ = true;
};

} // namespace syncperf::gpusim

#endif // SYNCPERF_GPUSIM_MACHINE_HH
