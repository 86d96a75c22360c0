/**
 * @file
 * Shared scaffolding for the per-figure bench binaries.
 *
 * Every binary reproduces one table or figure of the paper: it
 * sweeps the same parameters, prints the measured series as CSV
 * rows, renders a terminal chart, and states the expected
 * qualitative shape from the paper next to the measurement.
 */

#ifndef SYNCPERF_BENCH_BENCH_COMMON_HH
#define SYNCPERF_BENCH_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "core/cpusim_target.hh"
#include "core/figure.hh"
#include "core/gpusim_target.hh"
#include "core/measure_config.hh"
#include "core/sweep.hh"

namespace syncperf::bench
{

/** Command-line options common to all figure binaries. */
struct Options
{
    bool full = false;    ///< --full: the paper's 9x7 protocol
    bool quick = false;   ///< --quick: coarser sweeps for smoke runs
    bool csv = false;     ///< --csv: emit CSV rows after each chart

    /**
     * Parse the command line. --help prints the usage and exits 0; any
     * other unknown argument prints it to stderr and exits 2.
     */
    static Options parse(int argc, char **argv);
};

/** Protocol configuration for CPU-model figures. */
core::MeasurementConfig ompProtocol(const Options &opt);

/** Protocol configuration for GPU-model figures. */
core::MeasurementConfig gpuProtocol(const Options &opt);

/** Thread counts for an OpenMP sweep on @p cfg. */
std::vector<int> ompSweep(const cpusim::CpuConfig &cfg,
                          const Options &opt);

/** Thread-per-block counts for a CUDA sweep. */
std::vector<int> cudaSweep(const Options &opt);

/** Print the figure header: id, paper expectation, machine. */
void printHeader(const std::string &figure_id,
                 const std::string &machine,
                 const std::string &paper_expectation);

/** Render the chart (and CSV when requested). */
void emitFigure(const core::Figure &figure, const Options &opt);

/** Convert a sweep of ints to chart x values. */
std::vector<double> toXs(const std::vector<int> &values);

} // namespace syncperf::bench

#endif // SYNCPERF_BENCH_BENCH_COMMON_HH
