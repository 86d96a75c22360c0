/**
 * @file
 * The chart benches of the paper's figures: one table row per figure
 * and one runner that measures and renders any row. Every chart binary
 * is this file built with SYNCPERF_FIGURE set to its row's binary name.
 *
 * Each panel measures on one target per primitive: the series of one
 * primitive share its seed counter and launch memo, and the targets of
 * two primitives share nothing, so a panel's series can be measured one
 * after another in any order.
 */

#include <algorithm>
#include <array>
#include <map>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "bench_common.hh"
#include "common/logging.hh"

using namespace syncperf;
using namespace syncperf::bench;

namespace
{

/** One curve: its label and the experiment point it sweeps. */
struct Series
{
    std::string label;
    std::variant<core::OmpExperiment, core::CudaExperiment> exp;
    int blocks = 0;  ///< blocks per launch (CUDA series only)
};

/** One chart of a figure. */
struct Panel
{
    std::string suffix;   ///< appended to the row's id: "a", "b", ...
    std::string caption;
    std::vector<Series> series;
    std::size_t system = 0;  ///< index into the row's systems
};

/**
 * One figure bench. The x axis follows from the systems: OpenMP
 * threads on a CPU, CUDA threads per block on a GPU.
 */
struct FigureRow
{
    std::string binary;
    std::string id;
    std::string title;
    std::string machine;
    std::string expectation;
    std::vector<std::variant<cpusim::CpuConfig, gpusim::GpuConfig>> systems;
    std::vector<Panel> panels;
    std::string note{};  ///< printed under every panel (empty: none)
    /// Runs x attempts on a jittered CPU unless --full, so the chart
    /// shows the run-to-run variation (0: the default protocol).
    int jitter_runs = 0;
    int jitter_attempts = 0;
};

/** @p prim on private array elements @p stride apart. */
core::OmpExperiment
array(core::OmpPrimitive prim, int stride,
      Affinity affinity = Affinity::System)
{
    return {.primitive = prim, .location = core::Location::PrivateArray,
            .stride = stride, .affinity = affinity};
}

core::CudaExperiment
array(core::CudaPrimitive prim, int stride)
{
    return {.primitive = prim, .location = core::Location::PrivateArray,
            .stride = stride};
}

/**
 * One series per data type of @p types, labeled with its name, at
 * @p blocks blocks on a GPU.
 */
template <class Experiment>
std::vector<Series>
perType(Experiment exp, int blocks = 0,
        std::span<const DataType> types = all_data_types)
{
    std::vector<Series> out;
    for (DataType t : types) {
        exp.dtype = t;
        out.push_back({std::string(dataTypeName(t)), exp, blocks});
    }
    return out;
}

std::vector<FigureRow>
figureTable()
{
    using enum core::OmpPrimitive;
    using enum core::CudaPrimitive;
    using Omp = core::OmpExperiment;
    using Cuda = core::CudaExperiment;
    constexpr std::array<DataType, 2> ints{DataType::Int32,
                                           DataType::UInt64};
    const auto system2 = cpusim::CpuConfig::system2();
    const auto system3 = cpusim::CpuConfig::system3();
    const auto rtx4090 = gpusim::GpuConfig::rtx4090();
    const auto rtx2070 = gpusim::GpuConfig::rtx2070Super();
    const int sms = rtx4090.sm_count;
    const std::string half_sms = std::to_string(sms / 2);

    return {
        {.binary = "fig01_omp_barrier",
         .id = "Fig. 1",
         .title = "Fig. 1: OpenMP barrier throughput",
         .machine = system3.name,
         .expectation =
             "per-thread throughput decreases up to ~8 threads, then "
             "remains largely stable; hyperthreading (right of the "
             "marker) costs little",
         .systems = {system3},
         .panels = {{"", "OpenMP barrier (spread affinity)",
                     {{"barrier", Omp{.primitive = Barrier,
                                      .affinity = Affinity::Spread}}}}},
         .note = "dashed marker = physical core count; plateau beyond "
                 "~8 threads matches the paper"},

        {.binary = "fig02_omp_atomic_update",
         .id = "Fig. 2",
         .title = "Fig. 2: OpenMP atomic update, single shared variable",
         .machine = system3.name,
         .expectation = "same decay trend as the barrier; int/ull faster "
                        "than float/double; word size irrelevant on "
                        "64-bit CPUs",
         .systems = {system3},
         .panels = {{"", "atomic update on one shared variable",
                     perType(Omp{.primitive = AtomicUpdate})}},
         .note = "integer types above floating-point types at every "
                 "thread count, as in the paper"},

        {.binary = "fig03_omp_atomic_array",
         .id = "Fig. 3",
         .title = "Fig. 3: OpenMP atomic update on private array elements",
         .machine = system3.name,
         .expectation =
             "stride 1: maximum false sharing, 4-byte types slightly "
             "worse; stride 8: 64-bit types jump (own line); stride 16: "
             "all types free of false sharing, integers fastest",
         .systems = {system3},
         .panels = {{"a", "stride = 1", perType(array(AtomicUpdate, 1))},
                    {"b", "stride = 4", perType(array(AtomicUpdate, 4))},
                    {"c", "stride = 8", perType(array(AtomicUpdate, 8))},
                    {"d", "stride = 16",
                     perType(array(AtomicUpdate, 16))}}},

        {.binary = "fig04_omp_atomic_write",
         .id = "Fig. 4",
         .title = "Fig. 4: OpenMP atomic write on two systems",
         .machine = "System 3 (AMD) and System 2 (Intel)",
         .expectation =
             "same exponential decay as the update but with no data "
             "type effect (no arithmetic, 64-bit stores); System 3 "
             "shows fabric jitter, System 2 is clean",
         .systems = {system3, system2},
         .panels = {{"a",
                     "atomic write on one shared variable, " + system3.name,
                     perType(Omp{.primitive = AtomicWrite}), 0},
                    {"b",
                     "atomic write on one shared variable, " + system2.name,
                     perType(Omp{.primitive = AtomicWrite}), 1}},
         .jitter_runs = 3,
         .jitter_attempts = 2},

        {.binary = "fig05_omp_critical",
         .id = "Fig. 5",
         .title = "Fig. 5: OpenMP critical section",
         .machine = system3.name,
         .expectation =
             "similar trend to the atomic update (Fig. 2) but the "
             "throughput drops more quickly and is lower -- use critical "
             "sections only when no alternative exists",
         .systems = {system3},
         .panels = {{"", "critical-section add vs the equivalent atomic",
                     {{"critical", Omp{.primitive = Critical,
                                       .affinity = Affinity::Spread}},
                      {"atomic (Fig. 2)",
                       Omp{.primitive = AtomicUpdate,
                           .affinity = Affinity::Spread}}}}},
         .note = "the critical section is below the atomic at every "
                 "thread count"},

        {.binary = "fig06_omp_flush",
         .id = "Fig. 6",
         .title = "Fig. 6: OpenMP flush at several strides",
         .machine = system2.name,
         .expectation =
             "with false sharing (small strides) the flush is expensive "
             "and decays; once every element has its own line (stride 8 "
             "for 64-bit, 16 for 32-bit types) the flush is cheap and "
             "flat",
         .systems = {system2},
         .panels = {{"a", "flush, stride = 1 (close affinity)",
                     perType(array(Flush, 1, Affinity::Close))},
                    {"b", "flush, stride = 4 (close affinity)",
                     perType(array(Flush, 4, Affinity::Close))},
                    {"c", "flush, stride = 8 (close affinity)",
                     perType(array(Flush, 8, Affinity::Close))},
                    {"d", "flush, stride = 16 (close affinity)",
                     perType(array(Flush, 16, Affinity::Close))}}},

        {.binary = "fig07_cuda_syncthreads",
         .id = "Fig. 7",
         .title = "Fig. 7: __syncthreads() throughput",
         .machine = rtx4090.name,
         .expectation =
             "constant up to the warp size (32), dropping as warps must "
             "wait for each other; identical at every block count "
             "(block-local hardware barrier)",
         .systems = {rtx4090},
         .panels = {{"", "__syncthreads() (any block count)",
                     {{"1 block(s)", Cuda{.primitive = SyncThreads}, 1},
                      {"2 block(s)", Cuda{.primitive = SyncThreads}, 2},
                      {half_sms + " block(s)",
                       Cuda{.primitive = SyncThreads}, sms / 2}}}},
         .note = "the series coincide: block count does not matter"},

        {.binary = "fig08_cuda_syncwarp",
         .id = "Fig. 8",
         .title = "Fig. 8: __syncwarp() on two systems",
         .machine = "RTX 4090 vs RTX 2070 SUPER",
         .expectation =
             "constant until the per-SM warp load saturates the issue "
             "bandwidth: up to 256 threads/SM on the 4090, 512 on the "
             "2070 SUPER; the double-block series drops one step earlier",
         .systems = {rtx4090, rtx2070},
         .panels = {{"a", "__syncwarp() on " + rtx4090.name,
                     {{"full blocks", Cuda{.primitive = SyncWarp}, sms},
                      {"double blocks", Cuda{.primitive = SyncWarp},
                       2 * sms}},
                     0},
                    {"b", "__syncwarp() on " + rtx2070.name,
                     {{"full blocks", Cuda{.primitive = SyncWarp},
                       rtx2070.sm_count},
                      {"double blocks", Cuda{.primitive = SyncWarp},
                       2 * rtx2070.sm_count}},
                     1}}},

        {.binary = "fig09_cuda_atomicadd",
         .id = "Fig. 9",
         .title = "Fig. 9: atomicAdd() on one shared variable",
         .machine = rtx4090.name,
         .expectation =
             "warp aggregation keeps int constant up to 64 threads (2 "
             "warps); int above ull above float/double everywhere; the "
             "half-SM configuration is lower (shared atomic units)",
         .systems = {rtx4090},
         .panels = {{"a", "2 blocks",
                     perType(Cuda{.primitive = AtomicAdd}, 2)},
                    {"b", half_sms + " blocks",
                     perType(Cuda{.primitive = AtomicAdd}, sms / 2)}}},

        {.binary = "fig10_cuda_atomicadd_array",
         .id = "Fig. 10",
         .title = "Fig. 10: atomicAdd() on private array elements",
         .machine = rtx4090.name,
         .expectation =
             "no warp aggregation (distinct addresses); at 1 block the "
             "trend is independent of stride; at 128 blocks throughput "
             "is lower -- the L2 atomic units bound the total rate",
         .systems = {rtx4090},
         .panels = {{"a", "1 block(s), stride = 1",
                     perType(array(AtomicAdd, 1), 1)},
                    {"b", "1 block(s), stride = 32",
                     perType(array(AtomicAdd, 32), 1)},
                    {"c", "128 block(s), stride = 1",
                     perType(array(AtomicAdd, 1), 128)},
                    {"d", "128 block(s), stride = 32",
                     perType(array(AtomicAdd, 32), 128)}}},

        {.binary = "fig11_cuda_atomiccas",
         .id = "Fig. 11",
         .title = "Fig. 11: atomicCAS() on one shared variable",
         .machine = rtx4090.name,
         .expectation =
             "no warp aggregation possible: constant only up to 4 "
             "threads at one block, then the same decay as atomicAdd",
         .systems = {rtx4090},
         .panels = {{"a", "1 block(s)",
                     perType(Cuda{.primitive = AtomicCas}, 1, ints)},
                    {"b", "128 block(s)",
                     perType(Cuda{.primitive = AtomicCas}, 128, ints)}}},

        {.binary = "fig12_cuda_atomiccas_array",
         .id = "Fig. 12",
         .title = "Fig. 12: atomicCAS() on private array elements",
         .machine = rtx4090.name,
         .expectation =
             "resembles the atomicAdd() trends of Fig. 10 with a "
             "different drop-off point at one block; a fixed number of "
             "CAS operations per unit time binds the high block counts",
         .systems = {rtx4090},
         .panels = {{"a", "1 block(s), stride = 1",
                     perType(array(AtomicCas, 1), 1, ints)},
                    {"b", "1 block(s), stride = 32",
                     perType(array(AtomicCas, 32), 1, ints)},
                    {"c", "128 block(s), stride = 1",
                     perType(array(AtomicCas, 1), 128, ints)},
                    {"d", "128 block(s), stride = 32",
                     perType(array(AtomicCas, 32), 128, ints)}}},

        {.binary = "fig13_cuda_atomicexch",
         .id = "Fig. 13",
         .title = "Fig. 13: atomicExch() on one shared variable",
         .machine = rtx4090.name,
         .expectation =
             "similar to atomicCAS (Fig. 11): no arithmetic, so "
             "performance is purely memory-bound; more active threads "
             "means longer waits on the single location",
         .systems = {rtx4090},
         .panels = {{"a", "1 block(s)",
                     perType(Cuda{.primitive = AtomicExch}, 1, ints)},
                    {"b", "128 block(s)",
                     perType(Cuda{.primitive = AtomicExch}, 128, ints)}}},

        {.binary = "fig14_cuda_threadfence",
         .id = "Fig. 14",
         .title = "Fig. 14: __threadfence()",
         .machine = rtx4090.name,
         .expectation =
             "throughput fairly constant regardless of thread count, "
             "block count, or stride: the cost is draining the store "
             "path, not coherence (unlike the OpenMP flush of Fig. 6)",
         .systems = {rtx4090},
         .panels = {{"a", "1 block(s), stride = 1",
                     {{"__threadfence()", array(ThreadFence, 1), 1}}},
                    {"b", "1 block(s), stride = 32",
                     {{"__threadfence()", array(ThreadFence, 32), 1}}},
                    {"c", "128 block(s), stride = 1",
                     {{"__threadfence()", array(ThreadFence, 1), 128}}},
                    {"d", "128 block(s), stride = 32",
                     {{"__threadfence()", array(ThreadFence, 32), 128}}}}},

        {.binary = "fig15_cuda_shfl",
         .id = "Fig. 15",
         .title = "Fig. 15: __shfl_sync()",
         .machine = rtx4090.name,
         .expectation =
             "same behavior as __syncwarp(); the hardware shuffles 32 "
             "bits per instruction, so 64-bit types issue two micro-ops "
             "and drop at half the thread count of 32-bit types",
         .systems = {rtx4090},
         .panels = {{"a", "full blocks",
                     perType(Cuda{.primitive = ShflSync}, sms)},
                    {"b", "double blocks",
                     perType(Cuda{.primitive = ShflSync}, 2 * sms)}}},

        {.binary = "fig15b_cuda_vote",
         .id = "Fig. 15 companion",
         .title = "Warp votes (text result in Section V-B4)",
         .machine = rtx4090.name,
         .expectation = "__any/__all_sync behave identically to "
                        "__syncwarp() with a slightly lower absolute "
                        "throughput",
         .systems = {rtx4090},
         .panels = {{"", "__any_sync() vs __syncwarp() (full blocks)",
                     {{"__syncwarp()", Cuda{.primitive = SyncWarp}, sms},
                      {"__any_sync()", Cuda{.primitive = VoteSync},
                       sms}}}},
         .note = "vote tracks the syncwarp curve slightly below it"},
    };
}

/** Measure and draw @p panel of @p row on a CPU. */
core::Figure
chart(const FigureRow &row, const Panel &panel,
      const cpusim::CpuConfig &cpu, const Options &opt)
{
    auto protocol = ompProtocol(opt);
    if (row.jitter_runs > 0 && cpu.jitter_frac > 0.0 && !opt.full) {
        protocol.runs = row.jitter_runs;
        protocol.attempts = row.jitter_attempts;
    }
    const auto threads = ompSweep(cpu, opt);
    core::Figure fig(row.id + panel.suffix, panel.caption, "threads",
                     toXs(threads));
    fig.setCoreBoundary(cpu.totalCores());
    std::map<core::OmpPrimitive, core::CpuSimTarget> targets;
    for (const Series &s : panel.series) {
        const auto &exp = std::get<core::OmpExperiment>(s.exp);
        auto &target =
            targets.try_emplace(exp.primitive, cpu, protocol).first->second;
        std::vector<double> thr;
        for (int n : threads)
            thr.push_back(target.measure(exp, n).opsPerSecondPerThread());
        fig.addSeries(s.label, std::move(thr));
    }
    return fig;
}

/** Measure and draw @p panel of @p row on a GPU. */
core::Figure
chart(const FigureRow &row, const Panel &panel,
      const gpusim::GpuConfig &gpu, const Options &opt)
{
    const auto threads = cudaSweep(opt);
    core::Figure fig(row.id + panel.suffix, panel.caption,
                     "threads per block", toXs(threads));
    fig.setLogX(true);
    std::map<core::CudaPrimitive, core::GpuSimTarget> targets;
    for (const Series &s : panel.series) {
        const auto &exp = std::get<core::CudaExperiment>(s.exp);
        auto &target = targets.try_emplace(exp.primitive, gpu,
                                           gpuProtocol(opt))
                           .first->second;
        std::vector<double> thr;
        for (int n : threads) {
            thr.push_back(target.measure(exp, {s.blocks, n})
                              .opsPerSecondPerThread());
        }
        fig.addSeries(s.label, std::move(thr));
    }
    return fig;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = Options::parse(argc, argv);
    const auto table = figureTable();
    const auto row = std::find_if(
        table.begin(), table.end(),
        [](const FigureRow &r) { return r.binary == SYNCPERF_FIGURE; });
    SYNCPERF_ASSERT(row != table.end(), "no figure row " SYNCPERF_FIGURE);

    printHeader(row->title, row->machine, row->expectation);
    for (const Panel &panel : row->panels) {
        core::Figure fig = std::visit(
            [&](const auto &system) {
                return chart(*row, panel, system, opt);
            },
            row->systems.at(panel.system));
        fig.setNote(row->note);
        emitFigure(fig, opt);
    }
    return 0;
}
