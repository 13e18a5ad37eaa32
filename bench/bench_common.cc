/**
 * @file
 * Implementation of the bench scaffolding.
 */

#include "bench_common.hh"

#include <charconv>
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
        } else if (std::strcmp(argv[i], "--help") == 0) {
            std::printf(
                "usage: %s [--full] [--quick] [--csv]\n"
                "  --full   run the paper's full 9-run x 7-attempt "
                "protocol\n"
                "  --quick  coarser parameter sweep for smoke runs\n"
                "  --csv    print CSV rows after each chart\n",
                argv[0]);
            std::exit(0);
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
    auto counts = core::cudaThreadCounts();
    if (opt.quick) {
        std::vector<int> coarse;
        for (std::size_t i = 0; i < counts.size(); i += 2)
            coarse.push_back(counts[i]);
        if (coarse.back() != counts.back())
            coarse.push_back(counts.back());
        return coarse;
    }
    return counts;
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

template <typename T>
T
numericFlag(const char *prog, const char *flag, const char *text,
            const char *want, T lo, T hi)
{
    const char *end = text + std::strlen(text);
    T value{};
    const auto [ptr, ec] = std::from_chars(text, end, value);
    // NaN fails both comparisons, and infinities fall outside any
    // finite range, so only finite in-range values pass.
    if (ec != std::errc{} || ptr != end ||
        !(value >= lo && value <= hi)) {
        std::fprintf(stderr, "%s: %s wants %s, got '%s'\n", prog, flag,
                     want, text);
        std::exit(2);
    }
    return value;
}

template int numericFlag<int>(const char *, const char *, const char *,
                              const char *, int, int);
template double numericFlag<double>(const char *, const char *,
                                    const char *, const char *, double,
                                    double);

} // namespace syncperf::bench
