/**
 * @file
 * The measurement engine both simulated targets share: the paper's
 * protocol (Listings 2 and 3) over launches of one timing model, each
 * served by the launch memo.
 */

#ifndef SYNCPERF_CORE_SIM_TARGET_HH
#define SYNCPERF_CORE_SIM_TARGET_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/metrics.hh"
#include "core/launch_memo.hh"
#include "core/manifest.hh"
#include "core/measure_config.hh"
#include "core/protocol.hh"
#include "core/telemetry.hh"
#include "sim/fault_injector.hh"
#include "sim/loop_batch.hh"
#include "sim/types.hh"

namespace syncperf::core
{

/**
 * Measurement engine over @p Machine (cpusim::CpuMachine or
 * gpusim::GpuMachine).
 *
 * Holds the machine configuration, a seed counter that gives every
 * launch an independent deterministic jitter stream (so the
 * protocol's runs/attempts see run-to-run variation exactly where
 * the model has jitter), the machine (a warm event queue across the
 * thousands of launches a sweep performs), and the launch memo it
 * shares with the other targets of its campaign. A target built on it
 * supplies the programs of a point, the key fields their launches
 * depend on, the machine, and the call of its seeded run().
 *
 * A launch's memo key is everything its outcome depends on: the
 * target's key fields (the placement and every program's iteration
 * count on a CPU, the grid geometry and body_iters on a GPU), the
 * warmup, the fingerprint of the decoded image (which folds the team
 * size), and -- only when decode() marks the image as drawing jitter
 * (the paper's Threadripper, or a kernel with a system-scope fence) --
 * the seed. A served launch is therefore bit-identical to simulating
 * it. Seeds are consumed by every launch, so two targets that measure
 * points with equal images walk equal seed sequences and share even
 * their jittered launches.
 */
template <class Machine>
class SimTarget
{
  public:
    using Config = typename Machine::Config;

    const Config &config() const { return cfg_; }

    /**
     * Telemetry accumulated by every launch since the last take
     * (all runs/attempts/retries of the measure() calls in between),
     * and reset the accumulator. Empty unless mcfg.telemetry is set.
     * A served launch contributes the stored telemetry of its
     * simulation, so the sample does not depend on who simulated it.
     */
    TelemetrySample takeTelemetry();

    /**
     * Loop-batching activity summed over every launch this target
     * consumed, simulated or served, so it does not depend on the
     * schedule. Feeds the --explain batch-ratio annotation.
     */
    const sim::LoopBatchCounters &loopBatch() const { return lb_; }

  protected:
    /**
     * Simulate one launch on the machine with a warmup and a seed,
     * returning the timed cycles of each thread or warp.
     */
    using RunFn = std::function<std::vector<sim::Tick>(
        Machine &, int warmup, std::uint64_t seed)>;

    /** One launch the protocol repeats, keyed. */
    struct Launch
    {
        RunFn run;
        std::uint64_t key = 0;     ///< memo key, short of the seed
        bool draws_jitter = false; ///< the seed joins the key
    };

    /**
     * @param clock_ghz The clock that converts the machine's cycles to
     *        seconds.
     * @param memo The launch memo to consult; null gives the target a
     *        private one.
     */
    SimTarget(Config cfg, double clock_ghz, MeasurementConfig mcfg,
              std::uint64_t seed, std::shared_ptr<LaunchMemo> memo)
        : cfg_(std::move(cfg)), mcfg_(mcfg), clock_ghz_(clock_ghz),
          next_seed_(seed),
          memo_(memo ? std::move(memo) : std::make_shared<LaunchMemo>())
    {
    }

    /**
     * @p input decoded on the current machine (one decode, counted in
     * pool_cold_builds).
     */
    template <class Input>
    typename Machine::DecodedImage
    decode(const Input &input)
    {
        metrics::add(metrics::Counter::PoolColdBuilds);
        return machine_->decode(input);
    }

    /**
     * Key the launch of @p input that @p run simulates: @p fields,
     * then the warmup and the fingerprint of its image.
     */
    template <class Input>
    Launch
    keyLaunch(ConfigHasher fields, const Input &input, RunFn run)
    {
        const auto image = decode(input);
        fields.add(mcfg_.n_warmup).add(image.fingerprint);
        return {std::move(run), fields.digest(), image.draws_jitter};
    }

    /** The paper's protocol over a baseline/test launch pair. */
    Measurement
    measureLaunches(const Launch &baseline, const Launch &test)
    {
        return measurePrimitive([&] { return runOnce(baseline); },
                                [&] { return runOnce(test); }, mcfg_);
    }

    Config cfg_;
    MeasurementConfig mcfg_;

    /** Made by the target: per placement on a CPU, once on a GPU. */
    std::unique_ptr<Machine> machine_;

  private:
    /**
     * Serve one launch from the memo (simulating it on first
     * request) and return its slowest thread's or warp's runtime in
     * seconds, after any active fault injector has perturbed or
     * poisoned it.
     */
    double runOnce(const Launch &launch);

    /** Simulate @p launch on the machine with @p seed. */
    LaunchOutcome simulate(const Launch &launch, std::uint64_t seed);

    double clock_ghz_;
    std::uint64_t next_seed_;

    std::shared_ptr<LaunchMemo> memo_;

    /** Accumulates across launches until takeTelemetry(). */
    TelemetrySample telemetry_;

    /** Accumulates across every launch, simulated or served. */
    sim::LoopBatchCounters lb_;
};

template <class Machine>
TelemetrySample
SimTarget<Machine>::takeTelemetry()
{
    TelemetrySample taken = std::move(telemetry_);
    telemetry_ = TelemetrySample{};
    return taken;
}

template <class Machine>
double
SimTarget<Machine>::runOnce(const Launch &launch)
{
    // Every launch consumes a seed, served or not, so two targets
    // measuring points with equal images walk equal seed sequences.
    const std::uint64_t seed = next_seed_++;
    // Only an image that draws jitter depends on the seed.
    std::uint64_t key = launch.key;
    if (launch.draws_jitter)
        key = ConfigHasher().add(key).add(seed).digest();
    const LaunchOutcome &outcome =
        memo_->serve(key, [&] { return simulate(launch, seed); });
    if (mcfg_.telemetry)
        telemetry_.merge(outcome.telemetry);
    lb_.merge(outcome.loop_batch);
    return sim::FaultInjector::reportLaunch(outcome.seconds);
}

template <class Machine>
LaunchOutcome
SimTarget<Machine>::simulate(const Launch &launch, std::uint64_t seed)
{
    Machine &machine = *machine_;
    metrics::add(metrics::Counter::PoolClones);
    machine.setLoopBatch(mcfg_.loop_batch);
    const std::uint64_t events = machine.eventQueue().executed();
    const std::vector<sim::Tick> cycles =
        launch.run(machine, mcfg_.n_warmup, seed);
    LaunchOutcome outcome;
    // Max in ticks, then one conversion: the cast and the division by
    // a positive clock are monotone, so this is bit-identical to
    // converting every entry and taking the max.
    const sim::Tick slowest = std::ranges::max(cycles);
    outcome.seconds = static_cast<double>(slowest) / (clock_ghz_ * 1e9);
    outcome.loop_batch = machine.loopBatch();
    outcome.events = machine.eventQueue().executed() - events;
    if (mcfg_.telemetry)
        outcome.telemetry.addStats(machine.stats());
    return outcome;
}

} // namespace syncperf::core

#endif // SYNCPERF_CORE_SIM_TARGET_HH
