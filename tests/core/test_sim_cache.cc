/**
 * @file
 * Tests for the measurement-local launch memo in CpuSimTarget and
 * GpuSimTarget (core/launch_memo.hh): within one measure() call every
 * repeat launch is a hit, bit-identical to re-simulating; nothing
 * outlives the call, so a second measure() re-simulates; jittered
 * configurations bypass the memo entirely, disabling it never
 * changes results, and the hit/miss counters land in the
 * deterministic metrics class (identical across --jobs counts).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/metrics.hh"
#include "core/campaign.hh"
#include "core/cpusim_target.hh"
#include "core/gpusim_target.hh"
#include "core/launch_memo.hh"
#include "sim/fault_injector.hh"

namespace syncperf::core
{
namespace
{

namespace fs = std::filesystem;

long long
hits()
{
    return metrics::value(metrics::Counter::SimCacheHits);
}

long long
misses()
{
    return metrics::value(metrics::Counter::SimCacheMisses);
}

class SimCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override { metrics::Registry::global().reset(); }
    void TearDown() override { metrics::Registry::global().reset(); }

    static MeasurementConfig
    cpuProtocol()
    {
        auto cfg = MeasurementConfig::simDefaults();
        cfg.runs = 2;
        cfg.attempts = 2;
        cfg.n_iter = 10;
        cfg.n_unroll = 2;
        return cfg;
    }

    static MeasurementConfig
    gpuProtocol()
    {
        auto cfg = MeasurementConfig::simGpuDefaults();
        cfg.runs = 2;
        cfg.attempts = 2;
        cfg.n_iter = 5;
        cfg.n_unroll = 2;
        return cfg;
    }
};

/** Launches that repeat an earlier one inside a single measure()
 * call of @p cfg without protocol retries: each of the baseline and
 * test functions runs runs x attempts times, the first a miss. */
long long
repeatsPerMeasurement(const MeasurementConfig &cfg)
{
    return 2LL * (cfg.runs * cfg.attempts - 1);
}

/** Bit-identical measured values (not merely within 4 ULPs). */
void
expectSameMeasurement(const Measurement &a, const Measurement &b)
{
    EXPECT_EQ(a.per_op_seconds, b.per_op_seconds);
    EXPECT_EQ(a.stddev_seconds, b.stddev_seconds);
    EXPECT_EQ(a.run_values, b.run_values);
}

TEST_F(SimCacheTest, CpuRepeatLaunchesHitAndMatchFirstMeasurement)
{
    // system2 is jitter-free, so every launch after the first pair
    // (baseline, test) of a measure() call is a memo hit.
    CpuSimTarget target(cpusim::CpuConfig::system2(), cpuProtocol());
    OmpExperiment exp;
    exp.primitive = OmpPrimitive::Barrier;

    const auto first = target.measure(exp, 4);
    ASSERT_EQ(first.retries, 0);
    EXPECT_EQ(misses(), 2); // one baseline + one test program
    EXPECT_EQ(hits(), repeatsPerMeasurement(cpuProtocol()));

    // The memo dies with the call: measuring the same point again
    // re-simulates both programs and reproduces every value.
    const auto second = target.measure(exp, 4);
    EXPECT_EQ(misses(), 4) << "memo outlived its measure() call";
    EXPECT_EQ(hits(), 2 * repeatsPerMeasurement(cpuProtocol()));
    expectSameMeasurement(first, second);
}

TEST_F(SimCacheTest, CpuCacheDoesNotChangeResults)
{
    auto cached_cfg = cpuProtocol();
    auto uncached_cfg = cpuProtocol();
    uncached_cfg.sim_cache = false;

    CpuSimTarget cached(cpusim::CpuConfig::system2(), cached_cfg);
    CpuSimTarget uncached(cpusim::CpuConfig::system2(), uncached_cfg);
    OmpExperiment exp;
    exp.primitive = OmpPrimitive::AtomicUpdate;

    const auto a = cached.measure(exp, 4);
    const auto hits_cached = hits();
    const auto b = uncached.measure(exp, 4);

    EXPECT_GT(hits_cached, 0);
    EXPECT_EQ(hits(), hits_cached) << "disabled cache counted a hit";
    EXPECT_DOUBLE_EQ(a.per_op_seconds, b.per_op_seconds);
    EXPECT_DOUBLE_EQ(a.stddev_seconds, b.stddev_seconds);
    ASSERT_EQ(a.run_values.size(), b.run_values.size());
    for (std::size_t i = 0; i < a.run_values.size(); ++i)
        EXPECT_DOUBLE_EQ(a.run_values[i], b.run_values[i]);
}

TEST_F(SimCacheTest, CpuJitteredModelBypassesCache)
{
    // system3 has jitter_frac > 0: launches are never pure functions
    // of their inputs, so neither counter may move.
    CpuSimTarget target(cpusim::CpuConfig::system3(), cpuProtocol());
    OmpExperiment exp;
    exp.primitive = OmpPrimitive::Barrier;

    target.measure(exp, 4);
    target.measure(exp, 4);
    EXPECT_EQ(hits(), 0);
    EXPECT_EQ(misses(), 0);
}

TEST_F(SimCacheTest, GpuRepeatLaunchesHitAndMatchFirstMeasurement)
{
    GpuSimTarget target(gpusim::GpuConfig::rtx4090(), gpuProtocol());
    CudaExperiment exp;
    exp.primitive = CudaPrimitive::SyncThreads;
    const gpusim::LaunchConfig launch{2, 64};

    const auto first = target.measure(exp, launch);
    ASSERT_EQ(first.retries, 0);
    EXPECT_EQ(misses(), 2);
    EXPECT_EQ(hits(), repeatsPerMeasurement(gpuProtocol()));

    const auto second = target.measure(exp, launch);
    EXPECT_EQ(misses(), 4) << "memo outlived its measure() call";
    EXPECT_EQ(hits(), 2 * repeatsPerMeasurement(gpuProtocol()));
    expectSameMeasurement(first, second);
}

TEST_F(SimCacheTest, GpuDifferentLaunchGeometryMisses)
{
    GpuSimTarget target(gpusim::GpuConfig::rtx4090(), gpuProtocol());
    CudaExperiment exp;
    exp.primitive = CudaPrimitive::SyncThreads;

    target.measure(exp, {2, 64});
    EXPECT_EQ(misses(), 2);
    target.measure(exp, {2, 128});
    EXPECT_EQ(misses(), 4) << "geometry change must re-simulate";
}

TEST_F(SimCacheTest, GpuSystemFenceBypassesCache)
{
    // __threadfence_system draws per-launch PCIe jitter; its kernels
    // must never be served from (or stored into) the memo.
    GpuSimTarget target(gpusim::GpuConfig::rtx4090(), gpuProtocol());
    CudaExperiment exp;
    exp.primitive = CudaPrimitive::ThreadFenceSystem;
    exp.location = Location::PrivateArray;

    // The baseline kernel (two stores, no fence) is memoizable; only
    // the test kernel carries the system fence. Each call therefore
    // misses once (the baseline's first launch) and replays only the
    // baseline's repeats.
    const auto cfg = gpuProtocol();
    for (int call = 1; call <= 3; ++call) {
        const auto m = target.measure(exp, {2, 64});
        ASSERT_EQ(m.retries, 0);
        EXPECT_EQ(misses(), call);
        EXPECT_EQ(hits(), call * (cfg.runs * cfg.attempts - 1LL));
    }
}

/** Every regular file under @p dir, as relative path -> bytes. */
std::map<std::string, std::string>
snapshotTree(const fs::path &dir)
{
    std::map<std::string, std::string> out;
    if (!fs::exists(dir))
        return out;
    for (const auto &e : fs::recursive_directory_iterator(dir)) {
        if (!e.is_regular_file())
            continue;
        std::ifstream in(e.path(), std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        out[fs::relative(e.path(), dir).string()] = bytes.str();
    }
    return out;
}

TEST_F(SimCacheTest, CampaignOutputIsByteIdenticalWithCacheOff)
{
    const auto base =
        fs::temp_directory_path() /
        ("syncperf_sim_cache_" + std::to_string(::getpid()));
    fs::remove_all(base);

    auto cpu = cpusim::CpuConfig::system2(); // jitter-free: memo engages
    cpu.cores_per_socket = 2;                // keep the sweep cheap

    auto cached_cfg = cpuProtocol();
    auto uncached_cfg = cpuProtocol();
    uncached_cfg.sim_cache = false;

    CampaignOptions cached_opts;
    cached_opts.output_dir = (base / "cached").string();
    cached_opts.quick = true;
    auto uncached_opts = cached_opts;
    uncached_opts.output_dir = (base / "uncached").string();

    const auto cached = runOmpCampaign(cpu, cached_cfg, cached_opts);
    const auto cache_hits = hits();
    const auto uncached =
        runOmpCampaign(cpu, uncached_cfg, uncached_opts);

    ASSERT_TRUE(cached.ok());
    ASSERT_TRUE(uncached.ok());
    EXPECT_GT(cache_hits, 0);
    EXPECT_EQ(hits(), cache_hits);

    const auto cached_tree = snapshotTree(base / "cached");
    const auto uncached_tree = snapshotTree(base / "uncached");
    ASSERT_FALSE(cached_tree.empty());
    ASSERT_EQ(cached_tree.size(), uncached_tree.size());
    for (const auto &[file, bytes] : cached_tree) {
        const auto it = uncached_tree.find(file);
        ASSERT_NE(it, uncached_tree.end()) << file << " missing";
        EXPECT_EQ(bytes, it->second) << file << " differs";
    }
    fs::remove_all(base);
}

TEST_F(SimCacheTest, CpuCacheHitsReplayIdenticalTelemetry)
{
    // A memo hit must contribute the stored telemetry of the
    // original simulation: the accumulated sample is identical with
    // the memo on (mostly hits) and off (all re-simulated).
    auto cached_cfg = cpuProtocol();
    cached_cfg.telemetry = true;
    auto uncached_cfg = cached_cfg;
    uncached_cfg.sim_cache = false;

    CpuSimTarget cached(cpusim::CpuConfig::system2(), cached_cfg);
    CpuSimTarget uncached(cpusim::CpuConfig::system2(), uncached_cfg);
    OmpExperiment exp;
    exp.primitive = OmpPrimitive::AtomicUpdate;

    cached.measure(exp, 4);
    uncached.measure(exp, 4);
    EXPECT_GT(hits(), 0);

    const auto a = cached.takeTelemetry();
    const auto b = uncached.takeTelemetry();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "cache hits dropped or altered telemetry";
    ASSERT_EQ(a.histograms.count("cpu.acq_wait_ticks"), 1u);

    // takeTelemetry drains the accumulator.
    EXPECT_TRUE(cached.takeTelemetry().empty());
}

TEST_F(SimCacheTest, GpuCacheHitsReplayIdenticalTelemetry)
{
    auto cached_cfg = gpuProtocol();
    cached_cfg.telemetry = true;
    auto uncached_cfg = cached_cfg;
    uncached_cfg.sim_cache = false;

    GpuSimTarget cached(gpusim::GpuConfig::rtx4090(), cached_cfg);
    GpuSimTarget uncached(gpusim::GpuConfig::rtx4090(), uncached_cfg);
    CudaExperiment exp;
    exp.primitive = CudaPrimitive::AtomicAdd;

    cached.measure(exp, {2, 64});
    uncached.measure(exp, {2, 64});
    EXPECT_GT(hits(), 0);

    const auto a = cached.takeTelemetry();
    const auto b = uncached.takeTelemetry();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "cache hits dropped or altered telemetry";
    ASSERT_EQ(a.histograms.count("gpu.atomic_wait_ticks"), 1u);
}

TEST_F(SimCacheTest, TelemetryOffKeepsAccumulatorEmpty)
{
    CpuSimTarget target(cpusim::CpuConfig::system2(), cpuProtocol());
    OmpExperiment exp;
    exp.primitive = OmpPrimitive::Barrier;
    target.measure(exp, 4);
    EXPECT_TRUE(target.takeTelemetry().empty());
}

TEST_F(SimCacheTest, MemoSimulatesOnceAndFaultsPerturbEveryLaunch)
{
    // Faults apply after the memo stage: every launch, replayed or
    // not, reports the skewed value, and the memo keeps the pure one.
    sim::FaultInjector injector;
    injector.setClockSkew(2.0);
    sim::FaultInjector::Scope scope(injector);

    std::optional<LaunchResult> memo;
    TelemetrySample accumulated;
    int simulations = 0;
    const auto simulate = [&](std::vector<double> &out,
                              TelemetrySample &launch) {
        ++simulations;
        out = {1.0, 3.0};
        launch.counters["launch"] = 1;
    };
    for (int launch = 1; launch <= 3; ++launch) {
        std::vector<double> out;
        runMemoized(&memo, true, accumulated, out, simulate);
        EXPECT_EQ(out, (std::vector<double>{2.0, 6.0})) << launch;
    }
    EXPECT_EQ(simulations, 1);
    EXPECT_EQ(misses(), 1);
    EXPECT_EQ(hits(), 2);
    ASSERT_TRUE(memo.has_value());
    EXPECT_EQ(memo->seconds, (std::vector<double>{1.0, 3.0}));
    EXPECT_EQ(accumulated.counter("launch"), 3u)
        << "replays must merge the stored telemetry";
}

TEST_F(SimCacheTest, NullMemoAlwaysSimulatesAndCountsNothing)
{
    TelemetrySample accumulated;
    int simulations = 0;
    for (int launch = 0; launch < 3; ++launch) {
        std::vector<double> out;
        runMemoized(nullptr, true, accumulated, out,
                    [&](std::vector<double> &seconds,
                        TelemetrySample &sample) {
                        ++simulations;
                        seconds = {1.0};
                        sample.counters["launch"] = 1;
                    });
    }
    EXPECT_EQ(simulations, 3);
    EXPECT_EQ(hits(), 0);
    EXPECT_EQ(misses(), 0);
    EXPECT_EQ(accumulated.counter("launch"), 3u);
}

TEST_F(SimCacheTest, CacheCountersAreDeterministicClass)
{
    // The jobs-1 vs jobs-N equality itself is covered by the campaign
    // metrics tests; this pins the classification that puts the cache
    // counters inside that comparison.
    EXPECT_TRUE(metrics::counterIsDeterministic(
        metrics::Counter::SimCacheHits));
    EXPECT_TRUE(metrics::counterIsDeterministic(
        metrics::Counter::SimCacheMisses));
}

} // namespace
} // namespace syncperf::core
