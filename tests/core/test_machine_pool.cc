/**
 * @file
 * Tests for the warm-start machine pool: lease reuse, per-lease
 * image hygiene, image materialization, and the determinism
 * counters behind them.
 *
 * The pool under test is the process-wide singleton (exactly what
 * the targets use), so every test resets it -- and restores the
 * default configuration -- to leave no state behind for the other
 * suites in this binary.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "core/machine_pool.hh"

namespace syncperf::core
{
namespace
{

cpusim::CpuConfig
testCpu()
{
    cpusim::CpuConfig c;
    c.name = "pool test cpu";
    c.sockets = 1;
    c.cores_per_socket = 4;
    c.threads_per_core = 2;
    c.cores_per_complex = 4;
    return c;
}

gpusim::GpuConfig
testGpu()
{
    gpusim::GpuConfig c = gpusim::GpuConfig::rtx4090();
    c.name = "pool test gpu";
    return c;
}

std::vector<cpusim::CpuProgram>
testPrograms()
{
    std::vector<cpusim::CpuProgram> programs;
    for (int tid = 0; tid < 2; ++tid) {
        cpusim::CpuProgram p;
        cpusim::CpuOp rmw;
        rmw.kind = cpusim::CpuOpKind::AtomicRmw;
        rmw.addr = 0x1000;
        rmw.dtype = DataType::Int32;
        p.body = {rmw};
        p.iterations = 20;
        programs.push_back(std::move(p));
    }
    return programs;
}

class MachinePoolTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        MachinePool::global().configure({true, ""});
        MachinePool::global().reset();
        metrics::Registry::global().reset();
    }

    void
    TearDown() override
    {
        MachinePool::global().configure({true, ""});
        MachinePool::global().reset();
        metrics::Registry::global().reset();
    }

    static long long
    counter(metrics::Counter c)
    {
        return metrics::value(c);
    }
};

TEST_F(MachinePoolTest, ReleasedMachineIsLeasedAgain)
{
    auto &pool = MachinePool::global();
    // The first release seeds the template slot (kept, never leased
    // again); the second release lands on the idle stack and must be
    // handed back verbatim by the next acquire.
    {
        auto first = pool.acquireCpu(testCpu(), Affinity::System);
        ASSERT_TRUE(static_cast<bool>(first));
    }
    cpusim::CpuMachine *second_ptr = nullptr;
    {
        auto second = pool.acquireCpu(testCpu(), Affinity::System);
        second_ptr = &*second;
    }
    auto third = pool.acquireCpu(testCpu(), Affinity::System);
    EXPECT_EQ(&*third, second_ptr);
}

TEST_F(MachinePoolTest, DifferentPlacementsDoNotShareMachines)
{
    auto &pool = MachinePool::global();
    cpusim::CpuMachine *spread_ptr = nullptr;
    {
        auto a = pool.acquireCpu(testCpu(), Affinity::Spread);
        auto b = pool.acquireCpu(testCpu(), Affinity::Spread);
        spread_ptr = &*b;
    }
    // An idle Spread machine must not satisfy a Close lease.
    auto close = pool.acquireCpu(testCpu(), Affinity::Close);
    EXPECT_NE(&*close, spread_ptr);
}

TEST_F(MachinePoolTest, LeasesStartWithoutImages)
{
    auto &pool = MachinePool::global();
    { auto tmpl = pool.acquireCpu(testCpu(), Affinity::System); }
    {
        auto lease = pool.acquireCpu(testCpu(), Affinity::System);
        lease->buildImage(5, testPrograms());
        ASSERT_TRUE(lease->hasImage(5));
    }
    auto again = pool.acquireCpu(testCpu(), Affinity::System);
    EXPECT_FALSE(again->hasImage(5));
}

TEST_F(MachinePoolTest, BypassedLeaseIsNotPooled)
{
    auto &pool = MachinePool::global();
    cpusim::CpuMachine *cold_ptr = nullptr;
    {
        auto cold =
            pool.acquireCpu(testCpu(), Affinity::System, false);
        ASSERT_TRUE(static_cast<bool>(cold));
        cold_ptr = &*cold;
    }
    { auto tmpl = pool.acquireCpu(testCpu(), Affinity::System); }
    auto pooled = pool.acquireCpu(testCpu(), Affinity::System);
    EXPECT_NE(&*pooled, cold_ptr);
}

TEST_F(MachinePoolTest, MaterializeWithoutSnapshotDirIsAColdBuild)
{
    auto &pool = MachinePool::global();
    auto lease = pool.acquireCpu(testCpu(), Affinity::System);
    pool.materializeCpu(*lease, 11, testPrograms());
    EXPECT_TRUE(lease->hasImage(11));
    EXPECT_EQ(counter(metrics::Counter::PoolColdBuilds), 1);
}

TEST_F(MachinePoolTest, ConfigureRejectsASnapshotDir)
{
    // The pool keeps no on-disk images: a caller naming a directory
    // must fail loudly rather than silently run without one.
    ScopedLogCapture capture;
    EXPECT_THROW(MachinePool::global().configure({true, "images"}),
                 LogDeathException);
    EXPECT_TRUE(MachinePool::global().config().snapshot_dir.empty());
}

TEST_F(MachinePoolTest, ConfigHashesAreFieldSensitive)
{
    cpusim::CpuConfig cpu_a = testCpu();
    cpusim::CpuConfig cpu_b = cpu_a;
    cpu_b.cores_per_socket = 8;
    EXPECT_NE(MachinePool::hashCpuConfig(cpu_a),
              MachinePool::hashCpuConfig(cpu_b));
    cpusim::CpuConfig cpu_c = cpu_a;
    cpu_c.l1_hit_latency += 1;
    EXPECT_NE(MachinePool::hashCpuConfig(cpu_a),
              MachinePool::hashCpuConfig(cpu_c));

    gpusim::GpuConfig gpu_a = testGpu();
    gpusim::GpuConfig gpu_b = gpu_a;
    gpu_b.sm_count /= 2;
    EXPECT_NE(MachinePool::hashGpuConfig(gpu_a),
              MachinePool::hashGpuConfig(gpu_b));
}

TEST_F(MachinePoolTest, DisabledPoolStillLeasesWorkingMachines)
{
    MachinePool::global().configure({false, ""});
    MachinePool::global().reset();
    auto &pool = MachinePool::global();
    EXPECT_FALSE(pool.enabled());
    auto lease = pool.acquireCpu(testCpu(), Affinity::System);
    ASSERT_TRUE(static_cast<bool>(lease));
    EXPECT_FALSE(lease->run(testPrograms(), 2).thread_cycles.empty());
}

TEST_F(MachinePoolTest, ConcurrentLeaseAndMaterializeIsSafe)
{
    auto &pool = MachinePool::global();
    const auto programs = testPrograms();
    constexpr int n_threads = 4;
    constexpr int n_iters = 8;
    std::vector<std::vector<std::uint64_t>> results(n_threads);
    std::vector<std::thread> workers;
    workers.reserve(n_threads);
    for (int t = 0; t < n_threads; ++t) {
        workers.emplace_back([&, t] {
            for (int i = 0; i < n_iters; ++i) {
                // Same shared key (51) every iteration, plus a
                // per-thread key, so the pool sees both contended
                // and uncontended materializations.
                auto lease =
                    pool.acquireCpu(testCpu(), Affinity::System);
                pool.materializeCpu(*lease, 51, programs);
                pool.materializeCpu(*lease, 100 + t, programs);
                auto run =
                    lease->run(programs, 2, 51).thread_cycles;
                if (results[t].empty())
                    results[t] = run;
                else
                    ASSERT_EQ(results[t], run);
            }
        });
    }
    for (auto &w : workers)
        w.join();
    // Every thread simulated the same programs on the same config.
    for (int t = 1; t < n_threads; ++t)
        EXPECT_EQ(results[t], results[0]);
}

} // namespace
} // namespace syncperf::core
