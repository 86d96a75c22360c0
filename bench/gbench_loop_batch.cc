/**
 * @file
 * google-benchmark suite for steady-state loop batching
 * (docs/performance.md, "Loop batching").
 *
 * Each machine gets a batched and a single-stepped variant of the
 * same uncontended steady-state workload, so the reported ratio IS
 * the batching speedup. The batched variants double as correctness
 * gates: before timing anything they re-run the workload both ways
 * and SkipWithError (printed as "ERROR OCCURRED") if the cycle
 * counts differ anywhere or the batcher never engaged -- so a quick
 * pass (--benchmark_min_time=0.01) from CI or a sanitizer build is
 * a regression test for both the identity contract and the
 * detector's ability to find the steady state at all.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "cpusim/machine.hh"
#include "gpusim/machine.hh"

namespace
{

using namespace syncperf;

// Long uncontended loops: the regime the batcher exists for. Private
// per-thread targets keep the coherence traffic self-similar so the
// periodic fingerprint locks on after warm-up.
constexpr long cpu_iters = 2000;
constexpr long gpu_iters = 500;
constexpr int warmup = 2;

cpusim::CpuProgram
cpuProgram(int tid)
{
    // One cache line per thread: read-modify-write a private slot,
    // the paper's uncontended private-array regime.
    const std::uint64_t slot = 0x1000 + static_cast<std::uint64_t>(tid) * 64;
    auto op = [](cpusim::CpuOpKind kind, std::uint64_t addr) {
        cpusim::CpuOp o;
        o.kind = kind;
        o.addr = addr;
        o.dtype = DataType::Int32;
        return o;
    };
    cpusim::CpuProgram p;
    p.body = {op(cpusim::CpuOpKind::Load, slot),
              op(cpusim::CpuOpKind::Alu, 0),
              op(cpusim::CpuOpKind::Store, slot)};
    p.iterations = cpu_iters;
    return p;
}

cpusim::CpuRunResult
runCpu(bool batch, sim::LoopBatchCounters *lb = nullptr)
{
    cpusim::CpuMachine m(cpusim::CpuConfig{}, Affinity::Close, 42);
    m.setLoopBatch(batch);
    std::vector<cpusim::CpuProgram> programs;
    for (int tid = 0; tid < 4; ++tid)
        programs.push_back(cpuProgram(tid));
    const auto r = m.run(programs, warmup);
    if (lb != nullptr)
        *lb = m.loopBatch();
    return r;
}

gpusim::GpuKernel
gpuKernel()
{
    gpusim::GpuKernel k;
    k.body = {gpusim::GpuOp::alu(4),
              gpusim::GpuOp::globalAtomic(
                  gpusim::AtomicOp::Add, gpusim::AddressMode::PerThread,
                  0x1000000, DataType::Int32, 1)};
    k.body_iters = gpu_iters;
    return k;
}

gpusim::GpuRunResult
runGpu(bool batch, sim::LoopBatchCounters *lb = nullptr)
{
    gpusim::GpuMachine m(gpusim::GpuConfig{}, 42);
    m.setLoopBatch(batch);
    const auto r = m.run(gpuKernel(), {8, 128}, warmup);
    if (lb != nullptr)
        *lb = m.loopBatch();
    return r;
}

/** True when the two runs produced byte-identical cycle counts. */
bool
identical(const cpusim::CpuRunResult &a, const cpusim::CpuRunResult &b)
{
    return a.total_cycles == b.total_cycles &&
           a.thread_cycles == b.thread_cycles;
}

bool
identical(const gpusim::GpuRunResult &a, const gpusim::GpuRunResult &b)
{
    return a.total_cycles == b.total_cycles &&
           a.warp_cycles == b.warp_cycles;
}

/** Fail the benchmark unless batching engaged AND changed nothing. */
template <typename RunFn>
bool
gate(benchmark::State &state, RunFn run)
{
    sim::LoopBatchCounters lb;
    const auto batched = run(true, &lb);
    const auto stepped = run(false, nullptr);
    if (!identical(batched, stepped)) {
        state.SkipWithError(
            "batched and single-stepped cycle counts differ");
        return false;
    }
    if (lb.windows == 0 || lb.batched_iters == 0) {
        state.SkipWithError(
            "batcher never engaged on a steady-state workload");
        return false;
    }
    state.counters["batch_ratio"] = benchmark::Counter(
        static_cast<double>(lb.batched_iters) /
        static_cast<double>(lb.total_iters));
    return true;
}

void
BM_CpuLoopBatch(benchmark::State &state)
{
    if (!gate(state, [](bool b, sim::LoopBatchCounters *lb) {
            return runCpu(b, lb);
        }))
        return;
    std::uint64_t iters = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(runCpu(true));
        iters += 4 * cpu_iters;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(iters));
}
BENCHMARK(BM_CpuLoopBatch);

void
BM_CpuSingleStep(benchmark::State &state)
{
    std::uint64_t iters = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(runCpu(false));
        iters += 4 * cpu_iters;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(iters));
}
BENCHMARK(BM_CpuSingleStep);

void
BM_GpuLoopBatch(benchmark::State &state)
{
    if (!gate(state, [](bool b, sim::LoopBatchCounters *lb) {
            return runGpu(b, lb);
        }))
        return;
    std::uint64_t iters = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(runGpu(true));
        iters += 8 * 128 / 32 * gpu_iters; // per-warp iterations
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(iters));
}
BENCHMARK(BM_GpuLoopBatch);

void
BM_GpuSingleStep(benchmark::State &state)
{
    std::uint64_t iters = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(runGpu(false));
        iters += 8 * 128 / 32 * gpu_iters;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(iters));
}
BENCHMARK(BM_GpuSingleStep);

} // namespace

BENCHMARK_MAIN();
