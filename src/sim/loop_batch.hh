/**
 * @file
 * Steady-state loop batching, shared by the CPU and GPU machines.
 *
 * Both machines detect when a measured loop has settled into a
 * periodic steady state and then advance whole periods algebraically
 * (docs/performance.md, "Loop batching"). LoopBatcher is that
 * detector and jump; a machine supplies only what it alone knows.
 * The counters describe how much of a run's timed work was covered
 * that way; the targets aggregate them into the campaign's
 * deterministic metrics and the --explain batch-ratio annotations.
 * They never feed the simulated results: batching changes wall-clock
 * only.
 */

#ifndef SYNCPERF_SIM_LOOP_BATCH_HH
#define SYNCPERF_SIM_LOOP_BATCH_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "sim/event_queue.hh"
#include "sim/stat.hh"

namespace syncperf::sim
{

/** Per-run loop-batching activity of one machine. */
struct LoopBatchCounters
{
    /** Timed iterations advanced algebraically (summed over actors). */
    std::uint64_t batched_iters = 0;

    /** Batch windows applied (each covers >= 1 period). */
    std::uint64_t windows = 0;

    /**
     * Trigger-boundary checks that did not batch: fingerprint
     * mismatch (contention pattern shifted, randomness consumed, a
     * phase boundary inside the horizon) or a window too short to be
     * worth jumping. Any run with at least two timed iterations
     * records at least one -- the boundaries nearest the loop end
     * can never batch past it.
     */
    std::uint64_t fallbacks = 0;

    /** Timed iterations the run's programs asked for in total. */
    std::uint64_t total_iters = 0;

    void
    merge(const LoopBatchCounters &o)
    {
        batched_iters += o.batched_iters;
        windows += o.windows;
        fallbacks += o.fallbacks;
        total_iters += o.total_iters;
    }
};

/**
 * The fingerprint half of a host's visitState(): encodes the visited
 * state relative to the boundary tick @p base, so that two boundaries
 * encode equal exactly when the machine's dynamics from each are the
 * same up to a time shift. Each visit names a liveness class:
 *
 * - word(w): discrete state, verbatim;
 * - maxReg(t): a register only ever read through max() against a
 *   future time. At or below the liveness floor -- the boundary or
 *   the earliest pending event, whichever is earlier -- it can never
 *   win again and encodes as the one `dead` word; above it, as its
 *   offset from the boundary;
 * - actorMaxReg(actor, t): a max-register only @p actor's later ops
 *   read, whose floor is raised to that actor's pending wake (the
 *   queue holds at most one per actor);
 * - gatedMaxReg(live, t): a max-register that is outcome-dead, and
 *   encodes as `dead`, while @p live is false;
 * - stamp(t): a time that is always live (it feeds a min() or a
 *   wait-time stat): its offset;
 * - stampIf(live, t): a rendezvous stamp, its offset while @p live
 *   and the word 0 otherwise;
 * - words(r), maxRegs(r): word() or maxReg() of each element of r;
 * - map(m, fn): a hash map in key order (iteration order is not
 *   state): its size, then per key the key and fn(value).
 *
 * The encode starts with the rng word and ends with the pending
 * event set in execution order.
 */
class StateEncoder
{
  public:
    /** The canonical word of a dead max-register. */
    static constexpr std::uint64_t dead = std::uint64_t{1} << 63;

    /** Start encoding the boundary at @p base, with @p actors actors
     * and rng word @p rng, into @p out (cleared). */
    void
    begin(const EventQueue &eq, Tick base, std::uint64_t rng, int actors,
          std::vector<std::uint64_t> &out)
    {
        eq_ = &eq;
        base_ = base;
        floor_ = std::min(base, eq.earliestPending());
        actors_ = actors;
        actor_floor_.clear();
        out_ = &out;
        out.clear();
        out.push_back(rng);
    }

    /** Append the pending event set; the encode is complete. */
    void finish() { eq_->encodePending(base_, *out_); }

    void word(std::uint64_t w) { out_->push_back(w); }
    void maxReg(Tick t) { word(t > floor_ ? off(t) : dead); }
    void maxRegs(const std::vector<Tick> &r) { for (Tick t : r) maxReg(t); }
    void stamp(Tick t) { word(off(t)); }
    void stampIf(bool live, Tick t) { word(live ? off(t) : 0); }
    void
    gatedMaxReg(bool live, Tick t)
    {
        word(live && t > floor_ ? off(t) : dead);
    }

    void
    actorMaxReg(int actor, Tick t)
    {
        if (actor_floor_.empty()) {
            // Per-actor floors cost a pass over the pending set: take
            // them once per encode, and only for hosts that ask.
            actor_floor_.resize(static_cast<std::size_t>(actors_));
            eq_->earliestPendingPerPriority(actor_floor_);
            for (Tick &f : actor_floor_)
                f = f == EventQueue::no_tick ? floor_ : std::max(floor_, f);
        }
        word(t > actor_floor_[actor] ? off(t) : dead);
    }

    template <class R>
    void
    words(const R &r)
    {
        for (auto w : r)
            word(static_cast<std::uint64_t>(w));
    }

    template <class Map, class Fn>
    void
    map(const Map &m, Fn &&fn)
    {
        keys_.clear();
        for (const auto &kv : m)
            keys_.push_back(kv.first);
        std::sort(keys_.begin(), keys_.end());
        word(keys_.size());
        for (std::uint64_t key : keys_) {
            word(key);
            fn(m.find(key)->second);
        }
    }

  private:
    std::uint64_t off(Tick t) const { return t - base_; }

    const EventQueue *eq_ = nullptr;
    Tick base_ = 0;
    Tick floor_ = 0;
    int actors_ = 0;
    std::vector<Tick> actor_floor_;   ///< per-actor floors (lazy)
    std::vector<std::uint64_t> keys_; ///< map-key sort scratch
    std::vector<std::uint64_t> *out_ = nullptr;
};

/**
 * The jump half of a host's visitState(): adds the period shift to
 * every time the host visits, and leaves discrete words alone. A
 * rendezvous stamp moves only while its rendezvous is live; every
 * register moves whether or not the encoder judged it dead, so a dead
 * register stays dead.
 */
class StateShifter
{
  public:
    explicit StateShifter(Tick delta) : delta_(delta) {}

    void word(std::uint64_t) {}
    template <class R> void words(const R &) {}
    void maxReg(Tick &t) { t += delta_; }
    void maxRegs(std::vector<Tick> &r) { for (Tick &t : r) t += delta_; }
    void actorMaxReg(int, Tick &t) { t += delta_; }
    void gatedMaxReg(bool, Tick &t) { t += delta_; }
    void stamp(Tick &t) { t += delta_; }
    void stampIf(bool live, Tick &t) { t += live ? delta_ : 0; }

    template <class Map, class Fn>
    void
    map(Map &m, Fn &&fn)
    {
        for (auto &kv : m)
            fn(kv.second);
    }

  private:
    Tick delta_;
};

/**
 * The steady-state detector and period jump of one machine.
 *
 * The machine calls boundary() at every timed body-iteration
 * boundary of an actor (a CPU thread or a GPU warp) and retire()
 * when an actor leaves its timed loop. The first actor with room to
 * batch becomes the trigger; only its boundaries are checked. A
 * check fingerprints the whole machine and looks the fingerprint up
 * in a ring of recent anchors; a match proves the dynamics periodic
 * with the anchor's tick distance as the period, and the batcher
 * jumps whole periods at once.
 *
 * The host is a template parameter, found by name (the machines
 * befriend this class), and supplies:
 *
 * - `template <class Self, class V> static void visitState(Self &self,
 *   V &v)` -- names every piece of the host's dynamic state once,
 *   each with its liveness class (see StateEncoder). Self is the host,
 *   const when @p v is the StateEncoder that fingerprints a boundary
 *   and mutable when it is the StateShifter that applies a jump, so
 *   one list drives both;
 * - `int actorCount() const` and `long &itersLeft(int actor)` -- the
 *   actors' remaining timed iterations;
 * - `std::uint64_t rngState() const` -- the jitter stream's word.
 */
class LoopBatcher
{
  public:
    /**
     * Anchors kept per run. One degenerates to adjacent-boundary
     * matching; several let contended regimes that rotate through P
     * contenders -- and so only recur every P boundaries -- still
     * close their cycle.
     */
    static constexpr int ring_size = 8;

    /** Enable/disable batching for later runs (default on). */
    void setEnabled(bool on) { enabled_ = on; }

    /**
     * Pin the horizon at @p when for every later run (no_tick
     * unpins): beginRun() re-applies it to the freshly reset queue.
     */
    void setPin(Tick when) { pin_ = when; }

    /** Activity of the current (or most recent) run. */
    const LoopBatchCounters &counters() const { return counters_; }

    /**
     * Start a run whose programs ask for @p total_iters timed
     * iterations, on a queue and stat set the machine has just
     * reset. They stay bound until the next beginRun().
     */
    void beginRun(EventQueue &eq, StatSet &stats,
                  std::uint64_t total_iters);

    /**
     * Timed boundary of @p actor at tick @p done, before its
     * iteration counter is decremented. Returns the tick shift of a
     * jump (0 when the boundary single-steps); the caller shifts the
     * actor's continuation by it.
     */
    template <class Host>
    Tick
    boundary(Host &host, int actor, Tick done)
    {
        if (!enabled_)
            return 0;
        // An actor this close to its loop exit can never complete the
        // anchor-then-match sequence with k >= 1 (margin 2), so
        // encoding at its boundaries is pure overhead: its tail
        // single-steps, and the trigger role stays -- or becomes --
        // vacant for an actor with room to batch (e.g. the next wave
        // of a multi-wave launch).
        if (host.itersLeft(actor) < 4) {
            retire(actor);
            return 0;
        }
        if (trigger_ < 0)
            trigger_ = actor;
        if (actor != trigger_)
            return 0;
        // Backoff: a boundary whose last attempt fell back rarely
        // matches the very next one, and every attempt costs a whole-
        // machine encode. Exponentially spaced retries keep hopeless
        // (contended) regimes near single-step speed; a skipped
        // boundary only forgoes a jump, so results are unchanged.
        if (skip_ > 0) {
            --skip_;
            return 0;
        }
        return attempt(host, done);
    }

    /**
     * @p actor left its timed loop. If it was the trigger, a
     * remaining actor drives any tail batching; the anchors go with
     * it, but the backoff state deliberately survives the handoff:
     * the machine's regime did not change with the trigger.
     */
    void
    retire(int actor)
    {
        if (actor == trigger_) {
            trigger_ = -1;
            ring_n_ = 0;
        }
    }

  private:
    /**
     * One fully-encoded trigger boundary the matcher can prove a
     * period against: a later boundary whose fingerprint equals an
     * anchor's closed a cycle, however many boundaries apart they are
     * (distances are measured in ticks and per-actor iterations, not
     * anchor slots, so backoff gaps between anchors cost nothing).
     */
    struct Anchor
    {
        std::uint64_t hash = 0;   ///< fast reject before comparing fp
        std::vector<std::uint64_t> fp;
        Tick boundary = 0;
        std::uint64_t rng = 0;
        std::vector<long> iters;  ///< per-actor iters_left
        StatSnapshot stats;
    };

    /** Encode, match and, on a match, jump. */
    template <class Host> Tick attempt(Host &host, Tick done);

    /** Record the boundary at @p done, whose fingerprint is in fp_
     * (recycled), as the newest anchor, evicting the oldest. */
    template <class Host> void anchor(Host &host, Tick done);

    /** Newest anchor equal to fp_ (hashing it into fp_hash_), or
     * nullptr. */
    const Anchor *findMatch();

    /** Count a fallback and back off exponentially. */
    void
    fallBack()
    {
        ++counters_.fallbacks;
        skip_ = penalty_;
        penalty_ = std::min<long>(penalty_ * 2, 256);
    }

    EventQueue *eq_ = nullptr;
    StatSet *stats_ = nullptr;
    bool enabled_ = true;
    Tick pin_ = EventQueue::no_tick;
    int trigger_ = -1;
    long skip_ = 0;       ///< boundaries left before retrying
    long penalty_ = 1;    ///< next backoff length (doubles)
    std::array<Anchor, ring_size> ring_;
    int ring_head_ = 0;   ///< slot of the newest anchor
    int ring_n_ = 0;      ///< valid anchors (0 = disarmed)
    StateEncoder encoder_;
    std::vector<std::uint64_t> fp_;  ///< the current boundary's fp
    std::uint64_t fp_hash_ = 0;
    LoopBatchCounters counters_;
};

template <class Host>
Tick
LoopBatcher::attempt(Host &host, Tick done)
{
    // Randomness consumed since the newest anchor makes every stored
    // anchor unmatchable: the rng word is part of the fingerprint and
    // the stream only ever advances. Drop them and back off without
    // paying for an encode.
    if (ring_n_ > 0 && host.rngState() != ring_[ring_head_].rng) {
        ring_n_ = 0;
        fallBack();
        return 0;
    }

    encoder_.begin(*eq_, done, host.rngState(), host.actorCount(), fp_);
    Host::visitState(std::as_const(host), encoder_);
    encoder_.finish();
    const Anchor *match = findMatch();
    if (match == nullptr) {
        if (ring_n_ > 0)
            fallBack();
        anchor(host, done);
        return 0;
    }

    // Equal fingerprints: the machine's dynamics are periodic with
    // period delta. Every actor must keep at least one whole
    // post-jump iteration to execute for real: iters_left still
    // counts the just-finished iteration, so a margin of 2 leaves
    // phase transitions -- and the run's final event times -- to
    // ordinary single-stepping.
    const Tick delta = done - match->boundary;
    const int n = host.actorCount();
    long k = std::numeric_limits<long>::max();
    std::uint64_t per_period = 0;
    for (int i = 0; i < n; ++i) {
        const long d = match->iters[i] - host.itersLeft(i);
        if (d <= 0)
            continue;
        per_period += static_cast<std::uint64_t>(d);
        k = std::min(k, (host.itersLeft(i) - 2) / d);
    }
    SYNCPERF_ASSERT(delta > 0, "duplicate trigger boundary tick");
    if (k == std::numeric_limits<long>::max())
        k = 0;
    // A horizon pin is an opaque foreign event: never jump past it.
    if (const Tick pin = eq_->horizonPin(); pin != EventQueue::no_tick)
        k = pin > done ? std::min(k, static_cast<long>((pin - done) / delta))
                       : 0;
    if (k < 1) {
        fallBack();
        // Anchor afresh so a later boundary measures a short period.
        anchor(host, done);
        return 0;
    }

    const Tick shift = delta * static_cast<Tick>(k);
    eq_->shiftPending(shift);
    StateShifter shifter(shift);
    Host::visitState(host, shifter);
    for (int i = 0; i < n; ++i) {
        const long d = match->iters[i] - host.itersLeft(i);
        host.itersLeft(i) -= k * d;
    }
    stats_->applyPeriods(match->stats, static_cast<std::uint64_t>(k));
    counters_.batched_iters += static_cast<std::uint64_t>(k) * per_period;
    ++counters_.windows;
    penalty_ = 1; // a jump proves the steady state: retry eagerly

    // The post-jump boundary has the matched fingerprint by
    // construction (fp_ still holds it); anchor it so the next
    // boundary can batch again without re-proving periodicity from
    // scratch. Older anchors stay valid -- they are other phases of
    // the same cycle, described by their own historical tick and
    // iteration counts.
    anchor(host, done + shift);
    return shift;
}

template <class Host>
void
LoopBatcher::anchor(Host &host, Tick done)
{
    ring_head_ = (ring_head_ + 1) % ring_size;
    ring_n_ = std::min(ring_n_ + 1, ring_size);
    Anchor &a = ring_[ring_head_];
    a.fp.swap(fp_); // recycle the evicted anchor's buffer
    a.hash = fp_hash_;
    a.boundary = done;
    a.rng = host.rngState();
    a.iters.resize(static_cast<std::size_t>(host.actorCount()));
    for (int i = 0; i < host.actorCount(); ++i)
        a.iters[i] = host.itersLeft(i);
    stats_->snapshot(a.stats);
}

} // namespace syncperf::sim

#endif // SYNCPERF_SIM_LOOP_BATCH_HH
