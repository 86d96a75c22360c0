/**
 * @file
 * Implementation of the bench scaffolding.
 */

#include "bench_common.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

namespace syncperf::bench
{

Options
Options::parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--full") == 0) {
            opt.full = true;
        } else if (std::strcmp(argv[i], "--quick") == 0) {
            opt.quick = true;
        } else if (std::strcmp(argv[i], "--csv") == 0) {
            opt.csv = true;
        } else {
            const bool help = std::strcmp(argv[i], "--help") == 0;
            if (!help) {
                std::fprintf(stderr, "%s: unknown argument '%s'\n",
                             argv[0], argv[i]);
            }
            std::fprintf(
                help ? stdout : stderr,
                "usage: %s [--full] [--quick] [--csv]\n"
                "  --full   run the paper's full 9-run x 7-attempt "
                "protocol\n"
                "  --quick  coarser parameter sweep for smoke runs\n"
                "  --csv    print CSV rows after each chart\n",
                argv[0]);
            std::exit(help ? 0 : 2);
        }
    }
    return opt;
}

core::MeasurementConfig
ompProtocol(const Options &opt)
{
    if (opt.full)
        return core::MeasurementConfig::paperDefaults();
    auto cfg = core::MeasurementConfig::simDefaults();
    // The simulators are deterministic; one run suffices for the
    // default bench mode (jittered systems raise this themselves).
    cfg.runs = 1;
    cfg.attempts = 1;
    return cfg;
}

core::MeasurementConfig
gpuProtocol(const Options &opt)
{
    if (opt.full)
        return core::MeasurementConfig::paperDefaults();
    auto cfg = core::MeasurementConfig::simGpuDefaults();
    cfg.runs = 1;
    cfg.attempts = 1;
    return cfg;
}

std::vector<int>
ompSweep(const cpusim::CpuConfig &cfg, const Options &opt)
{
    return core::ompThreadCounts(cfg.totalHwThreads(), opt.quick ? 4 : 1);
}

std::vector<int>
cudaSweep(const Options &opt)
{
    return core::cudaThreadCounts(1024, opt.quick ? 2 : 1);
}

void
printHeader(const std::string &figure_id, const std::string &machine,
            const std::string &paper_expectation)
{
    std::printf("================================================"
                "====================\n");
    std::printf("%s  [%s]\n", figure_id.c_str(), machine.c_str());
    std::printf("paper expectation: %s\n", paper_expectation.c_str());
    std::printf("------------------------------------------------"
                "--------------------\n");
}

void
emitFigure(const core::Figure &figure, const Options &opt)
{
    std::fputs(figure.render().c_str(), stdout);
    if (opt.csv) {
        figure.writeCsv(std::cout);
    }
    std::printf("\n");
}

std::vector<double>
toXs(const std::vector<int> &values)
{
    std::vector<double> xs;
    xs.reserve(values.size());
    for (int v : values)
        xs.push_back(static_cast<double>(v));
    return xs;
}

} // namespace syncperf::bench
