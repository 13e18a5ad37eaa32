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

#include <limits>
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

/**
 * Parse the value @p text of command-line flag @p flag strictly: the
 * whole token must be a number of type T (so "abc", "4x", "" and,
 * for an integer T, "2.5" are rejected) within [@p lo, @p hi]. On
 * any failure print "<prog>: <flag> wants <want>, got '<text>'" to
 * stderr and exit 2. Instantiated for int and double.
 */
template <typename T>
T numericFlag(const char *prog, const char *flag, const char *text,
              const char *want, T lo,
              T hi = std::numeric_limits<T>::max());

} // namespace syncperf::bench

#endif // SYNCPERF_BENCH_BENCH_COMMON_HH
