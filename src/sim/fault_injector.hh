/**
 * @file
 * Deterministic fault injection for robustness testing.
 *
 * The simulators are deterministic by design, which makes them ideal
 * for proving that the campaign layer degrades gracefully: a test
 * installs a FaultInjector, dials in exactly the failure it wants --
 * skewed clocks, spurious runtime jitter, poisoned (non-finite)
 * measurements, or transient CSV write failures on the Nth write
 * operation -- and asserts the pipeline's response. All perturbations
 * are seeded, so a failing test reproduces bit-for-bit.
 *
 * Hook points:
 *  - CpuSimTarget/GpuSimTarget::runOnce() consult active() to skew,
 *    jitter, or poison the one runtime each launch reports (its
 *    slowest thread's), so jitter draws once per launch;
 *  - AtomicFile::open()/commit() consult the installed fault hook,
 *    which Scope wires to failWrites().
 */

#ifndef SYNCPERF_SIM_FAULT_INJECTOR_HH
#define SYNCPERF_SIM_FAULT_INJECTOR_HH

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string_view>

#include "common/atomic_file.hh"
#include "common/rng.hh"
#include "common/status.hh"

namespace syncperf::sim
{

/** One configurable fault source; see file comment for the modes. */
class FaultInjector
{
  public:
    FaultInjector() = default;

    // ------------------------------------------------ configuration

    /** Multiply every reported runtime by @p factor (clock skew). */
    void setClockSkew(double factor) { clock_skew_ = factor; }

    /**
     * Add uniform spurious latency in [0, fraction * runtime] to
     * every reported runtime, drawn from a stream seeded with
     * @p seed (deterministic across reruns).
     */
    void
    setJitter(double fraction, std::uint64_t seed = 1)
    {
        jitter_fraction_ = fraction;
        jitter_rng_ = Pcg32(seed);
    }

    /**
     * Poison measurements numbered [first, first+count): the timed
     * launch reports non-finite runtimes, modeling a pathological
     * sample the protocol must retry or surface. 1-based.
     */
    void
    poisonMeasurements(int first, int count = 1)
    {
        poison_first_ = first;
        poison_count_ = count;
    }

    /**
     * Fail write operations numbered [first, first+count): every
     * AtomicFile open/commit counts as one operation. 1-based.
     */
    void
    failWrites(int first, int count = 1)
    {
        fail_write_first_ = first;
        fail_write_count_ = count;
    }

    /**
     * Process-level fault: allow exactly @p n CSV commits, then
     * SIGKILL this process as its (n+1)-th CSV commit begins -- the
     * .tmp holds complete content but the rename has not happened,
     * and earlier commits may still be missing from manifest.json.
     * n = 0 dies on the very first commit. Used by the kill-resume
     * tests; negative disables (the default).
     */
    void killAfterCsvCommits(int n) { kill_after_csv_commits_ = n; }

    // ------------------------------------------------- hook queries
    //
    // The hook queries are thread-safe: a parallel campaign
    // (--jobs > 1) consults the active injector from every worker.
    // Counting is exact under concurrency, but which experiment
    // observes the Nth operation then depends on scheduling, so
    // ordinal-based faults (poisonMeasurements/failWrites) are only
    // deterministic at --jobs 1; rate-style perturbations (skew,
    // jitter) remain safe at any job count.

    /** Apply clock skew and jitter to one reported runtime. */
    double
    perturbSeconds(double seconds)
    {
        double out = seconds * clock_skew_;
        if (jitter_fraction_ > 0.0) {
            std::scoped_lock lock(jitter_mutex_);
            out += seconds * jitter_fraction_ * jitter_rng_.uniform();
        }
        return out;
    }

    /** Count one timed launch; true when it should be poisoned. */
    bool shouldPoisonMeasurement();

    /** Count one write operation; non-ok when it should fail. */
    Status onWriteOp(const std::filesystem::path &path,
                     std::string_view op);

    /** Timed launches observed so far. */
    int measurementCount() const { return measurement_count_.load(); }

    /** Write operations observed so far. */
    int writeOpCount() const { return write_op_count_.load(); }

    /** Faults actually delivered (poisons + failed writes). Also
     * mirrored into metrics::Counter::FaultsInjected. */
    int injectedCount() const { return injected_count_.load(); }

    // -------------------------------------------- process-level mode

    /**
     * Parse the SYNCPERF_FAULT_KILL_AFTER environment variable: the
     * number of CSV commits the campaign CLI allows before it
     * SIGKILLs itself (killAfterCsvCommits). Returns -1 when unset
     * or malformed, so exporting it is the only way to arm the
     * fault.
     */
    static int killAfterFromEnv();

    // ---------------------------------------------------- lifecycle

    /** The injector consulted by the hook points; nullptr when none
     * is installed (the common case -- production never pays for
     * fault injection beyond this null check). */
    static FaultInjector *active();

    /**
     * RAII installer: makes @p injector the active one and routes
     * the AtomicFile fault hook through it; restores both on
     * destruction. Scopes must nest LIFO.
     */
    class Scope
    {
      public:
        explicit Scope(FaultInjector &injector);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        FaultInjector *previous_;
        AtomicFile::FaultHook previous_hook_;
    };

  private:
    double clock_skew_ = 1.0;
    double jitter_fraction_ = 0.0;
    std::mutex jitter_mutex_; ///< the RNG stream is shared state
    Pcg32 jitter_rng_{1};

    int poison_first_ = 0; ///< 0 disables
    int poison_count_ = 0;
    std::atomic<int> measurement_count_{0};

    int fail_write_first_ = 0; ///< 0 disables
    int fail_write_count_ = 0;
    std::atomic<int> write_op_count_{0};
    std::atomic<int> injected_count_{0};

    int kill_after_csv_commits_ = -1; ///< negative disables
    std::atomic<int> csv_commit_count_{0};
};

} // namespace syncperf::sim

#endif // SYNCPERF_SIM_FAULT_INJECTOR_HH
