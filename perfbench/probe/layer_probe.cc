/**
 * @file
 * Layer probe for the campaign benchmark.
 *
 * Linked into a second build of the campaign driver (bench/campaign.cc)
 * with GNU ld's --wrap, so every call the driver makes into a layer's
 * public entry points lands here first:
 *
 *  - simulators: CpuMachine::run, GpuMachine::run (calls, host time,
 *    events executed, loop-batching counters);
 *  - targets: CpuSimTarget/GpuSimTarget::measure (calls, host time) and
 *    ::laneKey (the lane planner's decode);
 *  - result I/O: AtomicFile::open/commit of CSVs and Manifest::save.
 *
 * Nothing under src/ changes: the wrappers forward to the real
 * functions (the __real_ aliases the linker provides) and only add
 * relaxed atomic counters and two steady_clock reads per call. At exit
 * the totals are written as one JSON object to the file named by
 * $PERFBENCH_PROBE_OUT (nothing is written when it is unset).
 *
 * The wrappers are declared as free functions whose first parameter is
 * the object pointer, the Itanium C++ ABI's calling convention for
 * non-virtual member functions; the asm labels bind them to the mangled
 * symbol names listed in perfbench/CMakeLists.txt.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "common/atomic_file.hh"
#include "core/cpusim_target.hh"
#include "core/gpusim_target.hh"
#include "core/manifest.hh"
#include "cpusim/machine.hh"
#include "gpusim/machine.hh"

using namespace syncperf;

namespace
{

using Clock = std::chrono::steady_clock;

std::uint64_t
nanosSince(Clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
}

/** Calls into one entry point and the host time they took. */
struct CallStats
{
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> nanos{0};

    void
    add(std::uint64_t ns)
    {
        calls.fetch_add(1, std::memory_order_relaxed);
        nanos.fetch_add(ns, std::memory_order_relaxed);
    }
};

/** One simulator's runs: CallStats plus the work they did. */
struct SimStats
{
    CallStats runs;
    std::atomic<std::uint64_t> events{0};
    std::atomic<std::uint64_t> batched_iters{0};
    std::atomic<std::uint64_t> total_iters{0};
    std::atomic<std::uint64_t> windows{0};
    std::atomic<std::uint64_t> fallbacks{0};

    void
    add(std::uint64_t ns, std::uint64_t ev,
        const sim::LoopBatchCounters &lb)
    {
        runs.add(ns);
        events.fetch_add(ev, std::memory_order_relaxed);
        batched_iters.fetch_add(lb.batched_iters,
                                std::memory_order_relaxed);
        total_iters.fetch_add(lb.total_iters, std::memory_order_relaxed);
        windows.fetch_add(lb.windows, std::memory_order_relaxed);
        fallbacks.fetch_add(lb.fallbacks, std::memory_order_relaxed);
    }
};

struct Totals
{
    SimStats cpusim;
    SimStats gpusim;
    /** Fig. 10 kernels only (per-thread atomicAdd on a private
     * array); a subset of gpusim. */
    SimStats gpusim_atomic_array;
    CallStats cpu_measure;
    CallStats gpu_measure;
    /** Lane keys computed by the planner, before any experiment. */
    CallStats lane_key_plan;
    /** Lane keys re-checked inside a running experiment (OpenMP lane
     * groups re-key every team size). */
    CallStats lane_key_experiment;
    CallStats csv_open;
    CallStats csv_commit;
    CallStats manifest_save;
};

Totals g_totals;

/** Set while this thread is inside a Fig. 10 GpuSimTarget::measure. */
thread_local bool t_atomic_array = false;

/** Set between a CSV's open and its commit on this thread: the span of
 * one experiment's emit. */
thread_local bool t_in_experiment = false;

bool
isCsv(const std::filesystem::path &p)
{
    return p.extension() == ".csv";
}

unsigned long long
load(const std::atomic<std::uint64_t> &v)
{
    return static_cast<unsigned long long>(
        v.load(std::memory_order_relaxed));
}

void
writeSim(std::FILE *f, const char *name, const SimStats &s)
{
    std::fprintf(f,
                 "\"%s\": {\"runs\": %llu, \"run_ns\": %llu, "
                 "\"events\": %llu, \"batched_iters\": %llu, "
                 "\"total_iters\": %llu, \"windows\": %llu, "
                 "\"fallbacks\": %llu},\n",
                 name, load(s.runs.calls), load(s.runs.nanos),
                 load(s.events), load(s.batched_iters),
                 load(s.total_iters), load(s.windows), load(s.fallbacks));
}

void
writeCalls(std::FILE *f, const char *name, const CallStats &s,
           const char *sep = ",")
{
    std::fprintf(f, "\"%s\": {\"calls\": %llu, \"ns\": %llu}%s\n", name,
                 load(s.calls), load(s.nanos), sep);
}

/** Writes the totals when the process exits normally. */
struct ExitReport
{
    ~ExitReport()
    {
        const char *out = std::getenv("PERFBENCH_PROBE_OUT");
        if (out == nullptr || *out == '\0')
            return;
        std::FILE *f = std::fopen(out, "w");
        if (f == nullptr)
            return;
        std::fprintf(f, "{\n");
        writeSim(f, "cpusim", g_totals.cpusim);
        writeSim(f, "gpusim", g_totals.gpusim);
        writeSim(f, "gpusim_atomic_array", g_totals.gpusim_atomic_array);
        writeCalls(f, "cpu_measure", g_totals.cpu_measure);
        writeCalls(f, "gpu_measure", g_totals.gpu_measure);
        writeCalls(f, "lane_key_plan", g_totals.lane_key_plan);
        writeCalls(f, "lane_key_experiment", g_totals.lane_key_experiment);
        writeCalls(f, "csv_open", g_totals.csv_open);
        writeCalls(f, "csv_commit", g_totals.csv_commit);
        writeCalls(f, "manifest_save", g_totals.manifest_save, "");
        std::fprintf(f, "}\n");
        std::fclose(f);
    }
};

ExitReport g_exit_report;

CallStats &
laneKeyStats()
{
    return t_in_experiment ? g_totals.lane_key_experiment
                           : g_totals.lane_key_plan;
}

} // namespace

// The real entry points, as the linker's --wrap exposes them.
gpusim::GpuRunResult realGpuRun(gpusim::GpuMachine *self,
                                const gpusim::GpuKernel &kernel,
                                gpusim::LaunchConfig launch, int warmup,
                                std::uint64_t decode_key) asm(
    "__real__ZN8syncperf6gpusim10GpuMachine3runERKNS0_9GpuKernelENS0_"
    "12LaunchConfigEim");
cpusim::CpuRunResult realCpuRun(
    cpusim::CpuMachine *self,
    const std::vector<cpusim::CpuProgram> &programs, int warmup,
    std::uint64_t decode_key) asm("__real__ZN8syncperf6cpusim10CpuMachine3"
                                  "runERKSt6vectorINS0_10CpuProgramESaIS3_"
                                  "EEim");
core::Measurement realGpuMeasure(core::GpuSimTarget *self,
                                 const core::CudaExperiment &exp,
                                 gpusim::LaunchConfig launch) asm(
    "__real__ZN8syncperf4core12GpuSimTarget7measureERKNS0_"
    "14CudaExperimentENS_6gpusim12LaunchConfigE");
core::Measurement realCpuMeasure(core::CpuSimTarget *self,
                                 const core::OmpExperiment &exp,
                                 int n_threads) asm(
    "__real__ZN8syncperf4core12CpuSimTarget7measureERKNS0_"
    "13OmpExperimentEi");
std::uint64_t realGpuLaneKey(core::GpuSimTarget *self,
                             const core::CudaExperiment &exp) asm(
    "__real__ZN8syncperf4core12GpuSimTarget7laneKeyERKNS0_"
    "14CudaExperimentE");
std::uint64_t realCpuLaneKey(core::CpuSimTarget *self,
                             const core::OmpExperiment &exp,
                             int n_threads) asm(
    "__real__ZN8syncperf4core12CpuSimTarget7laneKeyERKNS0_"
    "13OmpExperimentEi");
Status realFileOpen(AtomicFile *self,
                    const std::filesystem::path &path) asm(
    "__real__ZN8syncperf10AtomicFile4openERKNSt10filesystem7__cxx114pathE");
Status realFileCommit(AtomicFile *self) asm(
    "__real__ZN8syncperf10AtomicFile6commitEv");
Status realManifestSave(const core::Manifest *self) asm(
    "__real__ZNK8syncperf4core8Manifest4saveEv");

gpusim::GpuRunResult wrapGpuRun(gpusim::GpuMachine *self,
                                const gpusim::GpuKernel &kernel,
                                gpusim::LaunchConfig launch, int warmup,
                                std::uint64_t decode_key) asm(
    "__wrap__ZN8syncperf6gpusim10GpuMachine3runERKNS0_9GpuKernelENS0_"
    "12LaunchConfigEim");
gpusim::GpuRunResult
wrapGpuRun(gpusim::GpuMachine *self, const gpusim::GpuKernel &kernel,
           gpusim::LaunchConfig launch, int warmup,
           std::uint64_t decode_key)
{
    const std::uint64_t ev0 = self->eventQueue().executed();
    const auto t0 = Clock::now();
    gpusim::GpuRunResult r =
        realGpuRun(self, kernel, launch, warmup, decode_key);
    const std::uint64_t ns = nanosSince(t0);
    const std::uint64_t ev = self->eventQueue().executed() - ev0;
    g_totals.gpusim.add(ns, ev, self->loopBatch());
    if (t_atomic_array)
        g_totals.gpusim_atomic_array.add(ns, ev, self->loopBatch());
    return r;
}

cpusim::CpuRunResult wrapCpuRun(
    cpusim::CpuMachine *self,
    const std::vector<cpusim::CpuProgram> &programs, int warmup,
    std::uint64_t decode_key) asm("__wrap__ZN8syncperf6cpusim10CpuMachine3"
                                  "runERKSt6vectorINS0_10CpuProgramESaIS3_"
                                  "EEim");
cpusim::CpuRunResult
wrapCpuRun(cpusim::CpuMachine *self,
           const std::vector<cpusim::CpuProgram> &programs, int warmup,
           std::uint64_t decode_key)
{
    const std::uint64_t ev0 = self->eventQueue().executed();
    const auto t0 = Clock::now();
    cpusim::CpuRunResult r = realCpuRun(self, programs, warmup, decode_key);
    const std::uint64_t ns = nanosSince(t0);
    g_totals.cpusim.add(ns, self->eventQueue().executed() - ev0,
                        self->loopBatch());
    return r;
}

core::Measurement wrapGpuMeasure(core::GpuSimTarget *self,
                                 const core::CudaExperiment &exp,
                                 gpusim::LaunchConfig launch) asm(
    "__wrap__ZN8syncperf4core12GpuSimTarget7measureERKNS0_"
    "14CudaExperimentENS_6gpusim12LaunchConfigE");
core::Measurement
wrapGpuMeasure(core::GpuSimTarget *self, const core::CudaExperiment &exp,
               gpusim::LaunchConfig launch)
{
    t_atomic_array = exp.primitive == core::CudaPrimitive::AtomicAdd &&
                     exp.location == core::Location::PrivateArray;
    const auto t0 = Clock::now();
    core::Measurement m = realGpuMeasure(self, exp, launch);
    g_totals.gpu_measure.add(nanosSince(t0));
    t_atomic_array = false;
    return m;
}

core::Measurement wrapCpuMeasure(core::CpuSimTarget *self,
                                 const core::OmpExperiment &exp,
                                 int n_threads) asm(
    "__wrap__ZN8syncperf4core12CpuSimTarget7measureERKNS0_"
    "13OmpExperimentEi");
core::Measurement
wrapCpuMeasure(core::CpuSimTarget *self, const core::OmpExperiment &exp,
               int n_threads)
{
    const auto t0 = Clock::now();
    core::Measurement m = realCpuMeasure(self, exp, n_threads);
    g_totals.cpu_measure.add(nanosSince(t0));
    return m;
}

std::uint64_t wrapGpuLaneKey(core::GpuSimTarget *self,
                             const core::CudaExperiment &exp) asm(
    "__wrap__ZN8syncperf4core12GpuSimTarget7laneKeyERKNS0_"
    "14CudaExperimentE");
std::uint64_t
wrapGpuLaneKey(core::GpuSimTarget *self, const core::CudaExperiment &exp)
{
    const auto t0 = Clock::now();
    const std::uint64_t key = realGpuLaneKey(self, exp);
    laneKeyStats().add(nanosSince(t0));
    return key;
}

std::uint64_t wrapCpuLaneKey(core::CpuSimTarget *self,
                             const core::OmpExperiment &exp,
                             int n_threads) asm(
    "__wrap__ZN8syncperf4core12CpuSimTarget7laneKeyERKNS0_"
    "13OmpExperimentEi");
std::uint64_t
wrapCpuLaneKey(core::CpuSimTarget *self, const core::OmpExperiment &exp,
               int n_threads)
{
    const auto t0 = Clock::now();
    const std::uint64_t key = realCpuLaneKey(self, exp, n_threads);
    laneKeyStats().add(nanosSince(t0));
    return key;
}

Status wrapFileOpen(AtomicFile *self,
                    const std::filesystem::path &path) asm(
    "__wrap__ZN8syncperf10AtomicFile4openERKNSt10filesystem7__cxx114pathE");
Status
wrapFileOpen(AtomicFile *self, const std::filesystem::path &path)
{
    if (!isCsv(path))
        return realFileOpen(self, path);
    t_in_experiment = true;
    const auto t0 = Clock::now();
    Status s = realFileOpen(self, path);
    g_totals.csv_open.add(nanosSince(t0));
    return s;
}

Status wrapFileCommit(AtomicFile *self) asm(
    "__wrap__ZN8syncperf10AtomicFile6commitEv");
Status
wrapFileCommit(AtomicFile *self)
{
    // Manifest commits are timed inside Manifest::save; trace and
    // metrics files are the benchmark's own artifacts.
    if (!isCsv(self->path()))
        return realFileCommit(self);
    const auto t0 = Clock::now();
    Status s = realFileCommit(self);
    g_totals.csv_commit.add(nanosSince(t0));
    t_in_experiment = false;
    return s;
}

Status wrapManifestSave(const core::Manifest *self) asm(
    "__wrap__ZNK8syncperf4core8Manifest4saveEv");
Status
wrapManifestSave(const core::Manifest *self)
{
    const auto t0 = Clock::now();
    Status s = realManifestSave(self);
    g_totals.manifest_save.add(nanosSince(t0));
    return s;
}
