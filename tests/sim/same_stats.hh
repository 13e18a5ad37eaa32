/**
 * @file
 * Test helper shared by the loop-batching identity tests and the
 * differential fuzz: two machines' telemetry must agree probe for
 * probe.
 */

#ifndef SYNCPERF_TESTS_SIM_SAME_STATS_HH
#define SYNCPERF_TESTS_SIM_SAME_STATS_HH

#include <gtest/gtest.h>

#include "sim/stat.hh"

namespace syncperf
{

/** Every counter and every histogram probe agree. */
inline void
expectSameStats(const sim::StatSet &a, const sim::StatSet &b)
{
    EXPECT_EQ(a.all(), b.all());
    for (int i = 0; i < static_cast<int>(sim::HistProbe::Count); ++i) {
        const auto p = static_cast<sim::HistProbe>(i);
        EXPECT_TRUE(a.hist(p) == b.hist(p)) << sim::histProbeName(p);
    }
}

} // namespace syncperf

#endif // SYNCPERF_TESTS_SIM_SAME_STATS_HH
