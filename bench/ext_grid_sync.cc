/**
 * @file
 * Extension: cooperative-groups grid-wide synchronization.
 *
 * The paper measures block-scope (__syncthreads) and warp-scope
 * (__syncwarp) barriers; grid.sync() completes the hierarchy. This
 * bench compares all three scopes on the RTX 4090 model.
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

double
gridSyncThroughput(const gpusim::GpuConfig &cfg, int blocks, int threads)
{
    gpusim::GpuKernel kernel;
    kernel.body = {gpusim::GpuOp::gridSync()};
    kernel.body_iters = 50;
    gpusim::GpuMachine machine(cfg);
    const auto r = machine.run(kernel, {blocks, threads}, 2);
    const sim::Tick max = std::ranges::max(r.warp_cycles);
    const double per_op = static_cast<double>(max) /
                          static_cast<double>(kernel.body_iters) /
                          (cfg.clock_ghz * 1e9);
    return 1.0 / per_op;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = Options::parse(argc, argv);
    const auto gpu = gpusim::GpuConfig::rtx4090();

    printHeader(
        "Extension: grid.sync() vs the paper's barrier scopes", gpu.name,
        "grid-wide sync costs grow with the block count and sit far "
        "below __syncthreads(), which sits below __syncwarp() -- the "
        "scope hierarchy the paper's recommendations imply");

    // Grid sync throughput vs block count at 128 threads per block.
    {
        std::vector<int> blocks{2, 8, 32, 64, 128};
        std::vector<double> xs(blocks.begin(), blocks.end());
        std::vector<double> thr;
        for (int b : blocks)
            thr.push_back(gridSyncThroughput(gpu, b, 128));
        core::Figure fig("Ext. G1",
                         "grid.sync() throughput vs resident blocks",
                         "blocks", xs);
        fig.setLogX(true);
        fig.addSeries("grid.sync()", thr);
        emitFigure(fig, opt);
    }

    // Scope comparison at one configuration.
    {
        core::GpuSimTarget target(gpu, gpuProtocol(opt));
        core::CudaExperiment st;
        st.primitive = core::CudaPrimitive::SyncThreads;
        core::CudaExperiment sw;
        sw.primitive = core::CudaPrimitive::SyncWarp;
        const double thr_block =
            target.measure(st, {16, 256}).opsPerSecondPerThread();
        const double thr_warp =
            target.measure(sw, {16, 256}).opsPerSecondPerThread();
        const double thr_grid = gridSyncThroughput(gpu, 16, 256);

        std::printf("barrier scope comparison at 16 blocks x 256 "
                    "threads:\n");
        std::printf("  __syncwarp():    %s\n",
                    formatThroughput(thr_warp).c_str());
        std::printf("  __syncthreads(): %s\n",
                    formatThroughput(thr_block).c_str());
        std::printf("  grid.sync():     %s\n",
                    formatThroughput(thr_grid).c_str());
        std::printf("\nwider scope, lower throughput: prefer the "
                    "narrowest barrier that is correct.\n\n");
    }
    return 0;
}
