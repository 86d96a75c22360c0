/**
 * @file
 * Cycle-approximate multicore CPU machine.
 *
 * Executes one CpuProgram per software thread against a line-granular
 * coherence model. The mechanisms implemented here are the ones the
 * paper uses to explain its OpenMP results:
 *
 * - exclusive cache-line ownership with a serialized per-line
 *   occupancy quantum (contended atomics collapse as 1/T);
 * - 64-byte line granularity (false sharing at small strides);
 * - SMT siblings sharing an L1 (no false sharing within a core, mild
 *   issue-slot contention);
 * - local vs remote (cross-complex/socket) transfer latencies;
 * - per-type atomic RMW costs (integer fast, floating point slow);
 * - store-buffer drain for fences, expensive only when the pending
 *   store's line has been stolen (false sharing);
 * - a spin-then-futex barrier whose OS wake constant dominates at
 *   high thread counts (the paper's plateau);
 * - FIFO lock handoff for critical sections.
 *
 * Execution uses precompiled dispatch: decode() turns the programs
 * into a DecodedImage, dense handler+operand arrays (config costs
 * hoisted, cache lines and locks interned to dense indices), and
 * run() executes an image, its event loop jumping straight into
 * per-op handlers with no switch and no hash lookups. Event ordering
 * is identical to the historical switch interpreter, so results stay
 * bit-for-bit reproducible.
 */

#ifndef SYNCPERF_CPUSIM_MACHINE_HH
#define SYNCPERF_CPUSIM_MACHINE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/dtype.hh"
#include "common/rng.hh"
#include "cpusim/affinity.hh"
#include "cpusim/cpu_config.hh"
#include "cpusim/program.hh"
#include "sim/event_queue.hh"
#include "sim/loop_batch.hh"
#include "sim/stat.hh"

namespace syncperf::cpusim
{

/** Outcome of one CpuMachine::run() invocation. */
struct CpuRunResult
{
    /** Timed-region duration of each software thread, in cycles. */
    std::vector<sim::Tick> thread_cycles;

    /** Tick at which the last thread finished. */
    sim::Tick total_cycles = 0;
};

/**
 * The machine. One instance simulates one program launch at a time;
 * run() fully re-initializes, so an instance may be reused for
 * independent launches (reseed() between launches restores the
 * fresh-machine jitter stream while keeping warm buffers).
 */
class CpuMachine
{
  public:
    using Config = CpuConfig;

    /**
     * @param cfg Topology and timing parameters.
     * @param affinity Software-to-hardware thread placement policy.
     * @param seed Seed for the deterministic jitter stream.
     */
    CpuMachine(CpuConfig cfg, Affinity affinity, std::uint64_t seed = 1);

    /** One decoded op: handler plus hoisted operands. */
    struct DecodedOp
    {
        /** Receives the post-issue start tick; finishes or blocks. */
        void (CpuMachine::*handler)(int tid, const DecodedOp &op,
                                    Tick start) = nullptr;
        int line = -1;      ///< interned cache-line index
        int lock = -1;      ///< interned lock index
        Tick alu_cost = 0;  ///< aluCost(kind, dtype), hoisted
    };

    /**
     * Immutable decoded form of one program set: the dense
     * handler+operand arrays, the interned line/lock universe they
     * index, and each thread's timed iteration count. It holds no
     * machine state, so any machine of the same config runs it.
     */
    struct DecodedImage
    {
        int n_lines = 0;    ///< interned cache-line universe size
        int n_locks = 0;    ///< interned lock universe size
        std::vector<std::vector<DecodedOp>> code; ///< one per thread
        std::vector<long> iterations; ///< one per thread

        /**
         * Content digest of the decoded code (handler ids, interned
         * operands, hoisted costs -- everything run() executes except
         * the iteration counts, and nothing it does not, so raw
         * addresses or data types that decode to the same code share
         * a fingerprint). Equal fingerprints mean equal walks for
         * equal (seed, iterations, warmup): the launch memo keys on
         * it.
         */
        std::uint64_t fingerprint = 0;

        /**
         * True iff the config has transfer jitter (jitter_frac > 0,
         * the paper's Threadripper): only then does a launch's
         * outcome depend on its seed.
         */
        bool draws_jitter = false;
    };

    /** Decode one program per software thread into an image. */
    DecodedImage decode(const std::vector<CpuProgram> &programs) const;

    /**
     * Execute a decoded program set, one program per software thread
     * (team size = image.code.size()).
     *
     * Mirrors the paper's Listing 2: every thread performs
     * @p warmup_iterations of its body, joins an alignment barrier,
     * then executes its timed body repetitions. The threads run the
     * image's arrays in place, so @p image must outlive the call.
     *
     * @param warmup_iterations Untimed body repetitions before the
     *                          alignment barrier.
     */
    CpuRunResult run(const DecodedImage &image, int warmup_iterations = 2);

    /** Decode @p programs and run them. */
    CpuRunResult run(const std::vector<CpuProgram> &programs,
                     int warmup_iterations = 2);

    /**
     * reseed(@p seed), then decode and run @p programs: exactly what
     * a fresh CpuMachine(cfg, affinity, seed) returns. The sim target
     * simulates its launches through this entry point, which
     * perfbench's layer probe times by its symbol name.
     */
    CpuRunResult run(const std::vector<CpuProgram> &programs,
                     int warmup_iterations, std::uint64_t seed);

    /**
     * Restart the jitter stream as if the machine had been freshly
     * constructed with @p seed: a reused machine produces the exact
     * cycle counts a new CpuMachine(cfg, affinity, seed) would.
     */
    void reseed(std::uint64_t seed);

    /** Activity counters from the most recent run. */
    const sim::StatSet &stats() const { return stats_; }

    const CpuConfig &config() const { return cfg_; }

    /** The placement computed for the last run's team. */
    const std::vector<HwPlace> &places() const { return places_; }

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

    /** Coherence state of one cache line. */
    struct Line
    {
        int owner_core = -1;       ///< exclusive owner, or -1
        bool exclusive = false;
        std::uint64_t copies = 0;  ///< bitmask of cores with a copy
        Tick free_at = 0;          ///< next exclusive-service slot
    };

    /** One blocked lock acquirer, with the tick it blocked at. */
    struct LockWaiter
    {
        int tid;
        Tick since;
    };

    /** FIFO lock used for critical sections. */
    struct LockState
    {
        bool held = false;
        std::deque<LockWaiter> waiters;
    };

    /** Per-thread execution cursor. */
    struct ThreadCtx
    {
        const std::vector<DecodedOp> *code = nullptr;
        HwPlace place;
        long iters_left = 0;
        std::size_t pc = 0;
        bool timed = false;
        bool done = false;
        /** The pending wake is a barrier release or lock grant: the
         * next step() finishes the blocked op instead of issuing. */
        bool resume = false;
        /** The pending wake is the alignment go: the next step()
         * enters the timed region before issuing. */
        bool aligning = false;
        Tick start_tick = 0;
        Tick end_tick = 0;
        int pending_store_line = -1;  ///< interned index
        bool has_pending_store = false;
    };

    /** Dense indices for the cache lines and locks of one decode. */
    struct Interner;
    DecodedOp decodeOp(const CpuOp &op, Interner &in) const;

    /** Digest over the decoded arrays (handler ids and operands). */
    static std::uint64_t fingerprintOf(const DecodedImage &img);

    /** Every op handler: fingerprints fold a handler's index in
     * this table, since member pointers have no integer value. */
    using OpHandler = void (CpuMachine::*)(int, const DecodedOp &,
                                           Tick);
    static const OpHandler *handlerTable(std::size_t &count);

    Tick transferLatency(const Line &line, const HwPlace &to);

    /** Reserve a slot at the machine-wide ordering point. */
    Tick coherencePointSlot(Tick ready);
    Tick aluCost(CpuOpKind kind, DataType dtype) const;
    Tick barrierLatency(int team_size);

    /** Resume thread @p tid at the queue's now(): finish a blocked
     * op on a resume wake, enter the timed region on the alignment
     * go, and otherwise issue the thread's next op. */
    void step(int tid);

    /** Advance past the current op and wake the thread at @p done. */
    void finishOp(int tid, Tick done);

    /** Handle team-wide barrier arrival; returns true if blocked. */
    void arriveBarrier(int tid, Tick when);

    // --- Decoded-op handlers (one per CpuOpKind family) ---
    void execLoad(int tid, const DecodedOp &op, Tick start);
    void execStore(int tid, const DecodedOp &op, Tick start);
    void execAtomicStore(int tid, const DecodedOp &op, Tick start);
    void execAtomicRmw(int tid, const DecodedOp &op, Tick start);
    void execFence(int tid, const DecodedOp &op, Tick start);
    void execBarrier(int tid, const DecodedOp &op, Tick start);
    void execLockAcquire(int tid, const DecodedOp &op, Tick start);
    void execLockRelease(int tid, const DecodedOp &op, Tick start);
    void execAlu(int tid, const DecodedOp &op, Tick start);

    /** Acquire exclusive ownership for a store-family op. */
    Tick acquireExclusive(Line &line, const HwPlace &place, Tick start,
                          Tick alu_cost, bool ordering_point);

    // --- Loop-batching hooks (sim::LoopBatcher; the actors are the
    // software threads) ---

    /** The fingerprinted state, each field once with its liveness
     * class (sim::StateEncoder). */
    template <class Self, class V> static void visitState(Self &self, V &v);

    int actorCount() const { return static_cast<int>(threads_.size()); }
    long &itersLeft(int tid) { return threads_[tid].iters_left; }
    std::uint64_t rngState() const { return rng_.state(); }

    CpuConfig cfg_;
    Affinity affinity_;
    Pcg32 rng_;
    sim::EventQueue eq_;
    sim::StatSet stats_;

    std::vector<ThreadCtx> threads_;
    std::vector<HwPlace> places_;
    std::vector<Tick> core_free_;
    std::vector<Line> lines_;
    std::vector<LockState> locks_;
    Tick coherence_point_free_ = 0;

    std::vector<int> warm_left_;

    // Team-wide barrier (CpuOpKind::Barrier) rendezvous state.
    int barrier_arrivals_ = 0;
    Tick barrier_first_arrival_ = 0;
    Tick barrier_last_arrival_ = 0;
    std::vector<int> barrier_waiters_;

    // Alignment join between warmup and the timed region.
    int align_arrivals_ = 0;
    Tick align_last_ = 0;
    std::vector<int> align_waiters_;

    /** Steady-state loop batching; the first thread to complete a
     * timed body iteration becomes its trigger. */
    sim::LoopBatcher batcher_;
};

} // namespace syncperf::cpusim

#endif // SYNCPERF_CPUSIM_MACHINE_HH
