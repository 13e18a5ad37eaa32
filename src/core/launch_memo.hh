/**
 * @file
 * Measurement-local memo of simulated launches, shared by the cpusim
 * and gpusim targets (docs/performance.md, "Layer 3").
 *
 * The paper's protocol launches the same baseline and test programs
 * runs x attempts times per sweep point, so the only launches worth
 * replaying are the repeats inside one measure() call. A memo holds
 * one timed function's first launch for the rest of that call: it
 * lives on measure()'s stack, one slot per timed function, and is
 * freed when the point's measurement returns.
 */

#ifndef SYNCPERF_CORE_LAUNCH_MEMO_HH
#define SYNCPERF_CORE_LAUNCH_MEMO_HH

#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/metrics.hh"
#include "core/telemetry.hh"
#include "sim/fault_injector.hh"

namespace syncperf::core
{

/** Pure simulator output (pre fault injection) of one launch. */
struct LaunchResult
{
    std::vector<double> seconds;
    TelemetrySample telemetry;
};

/**
 * Fill @p out with one launch's per-thread seconds. A filled @p memo
 * is replayed, telemetry included, so the accumulated sample is
 * identical with and without memoization; otherwise @p simulate(out,
 * launch_telemetry) runs and, when @p memo is non-null, its pure
 * output is kept. A null memo marks a launch that is not a pure
 * function of its inputs (it draws jitter): it always re-simulates
 * and moves neither sim-cache counter. Faults perturb after the memo
 * stage, so the memo never holds injected values and the injector's
 * rng advances once per launch either way.
 */
template <typename Simulate>
void
runMemoized(std::optional<LaunchResult> *memo, bool telemetry,
            TelemetrySample &accumulated, std::vector<double> &out,
            Simulate &&simulate)
{
    if (memo && *memo) {
        out = (*memo)->seconds;
        if (telemetry)
            accumulated.merge((*memo)->telemetry);
        metrics::add(metrics::Counter::SimCacheHits);
    } else {
        TelemetrySample launch;
        simulate(out, launch);
        if (telemetry)
            accumulated.merge(launch);
        if (memo) {
            memo->emplace(LaunchResult{out, std::move(launch)});
            metrics::add(metrics::Counter::SimCacheMisses);
        }
    }
    if (auto *faults = sim::FaultInjector::active()) {
        if (faults->shouldPoisonMeasurement()) {
            out.assign(out.size(),
                       std::numeric_limits<double>::quiet_NaN());
        } else {
            for (double &s : out)
                s = faults->perturbSeconds(s);
        }
    }
}

} // namespace syncperf::core

#endif // SYNCPERF_CORE_LAUNCH_MEMO_HH
