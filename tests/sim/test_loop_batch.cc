/**
 * @file
 * Identity tests for steady-state loop batching: for every workload
 * class the simulators model, a batched run must produce cycle
 * counts and telemetry bit-identical to single-stepping, the batcher
 * must engage on uncontended steady states, fall back around
 * contention, and respect a pinned horizon (docs/performance.md,
 * "Loop batching").
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cpusim/machine.hh"
#include "gpusim/machine.hh"
#include "sim/loop_batch.hh"
#include "same_stats.hh"

namespace syncperf
{
namespace
{

// ------------------------------------------------------------- CPU

cpusim::CpuOp
op(cpusim::CpuOpKind kind, std::uint64_t addr = 0,
   DataType dtype = DataType::Int32, int lock_id = 0)
{
    cpusim::CpuOp o;
    o.kind = kind;
    o.addr = addr;
    o.dtype = dtype;
    o.lock_id = lock_id;
    return o;
}

cpusim::CpuProgram
program(std::vector<cpusim::CpuOp> body, long iterations)
{
    cpusim::CpuProgram p;
    p.body = std::move(body);
    p.iterations = iterations;
    return p;
}

cpusim::CpuRunResult
runCpu(const std::vector<cpusim::CpuProgram> &programs, bool batch,
       sim::LoopBatchCounters *lb = nullptr,
       sim::Tick pin = sim::EventQueue::no_tick,
       sim::StatSet *stats = nullptr)
{
    cpusim::CpuMachine m(cpusim::CpuConfig{}, Affinity::Close, 42);
    m.setLoopBatch(batch);
    m.setBatchHorizonPin(pin);
    const auto r = m.run(programs, /*warmup_iterations=*/2);
    if (lb != nullptr)
        *lb = m.loopBatch();
    if (stats != nullptr)
        *stats = m.stats();
    return r;
}

void
expectCpuIdentity(const std::vector<cpusim::CpuProgram> &programs,
                  sim::LoopBatchCounters &lb)
{
    sim::StatSet batched_stats;
    sim::StatSet stepped_stats;
    const auto batched = runCpu(programs, true, &lb,
                                sim::EventQueue::no_tick, &batched_stats);
    const auto stepped = runCpu(programs, false, nullptr,
                                sim::EventQueue::no_tick, &stepped_stats);
    EXPECT_EQ(batched.total_cycles, stepped.total_cycles);
    EXPECT_EQ(batched.thread_cycles, stepped.thread_cycles);
    expectSameStats(batched_stats, stepped_stats);
}

TEST(CpuLoopBatch, UncontendedAluBatchesAndMatchesSingleStep)
{
    const std::vector<cpusim::CpuProgram> programs(
        4, program({op(cpusim::CpuOpKind::Alu)}, 200));
    sim::LoopBatchCounters lb;
    expectCpuIdentity(programs, lb);
    EXPECT_GT(lb.windows, 0u);
    EXPECT_GT(lb.batched_iters, 0u);
    EXPECT_EQ(lb.total_iters, 4u * 200u);
}

TEST(CpuLoopBatch, PrivateLineRmwBatchesAndMatchesSingleStep)
{
    std::vector<cpusim::CpuProgram> programs;
    for (int tid = 0; tid < 4; ++tid) {
        const std::uint64_t slot =
            0x1000 + static_cast<std::uint64_t>(tid) * 64;
        programs.push_back(program({op(cpusim::CpuOpKind::Load, slot),
                                    op(cpusim::CpuOpKind::Alu),
                                    op(cpusim::CpuOpKind::Store, slot)},
                                   200));
    }
    sim::LoopBatchCounters lb;
    expectCpuIdentity(programs, lb);
    EXPECT_GT(lb.batched_iters, 0u);
}

TEST(CpuLoopBatch, ContendedAtomicsMatchSingleStepAndFallBack)
{
    // All four threads hammer one shared line: the coherence pattern
    // keeps shifting, so boundary checks must keep falling back --
    // and whatever does batch must still change nothing.
    const std::vector<cpusim::CpuProgram> programs(
        4, program({op(cpusim::CpuOpKind::AtomicRmw, 0x2000)}, 150));
    sim::LoopBatchCounters lb;
    expectCpuIdentity(programs, lb);
    EXPECT_GT(lb.fallbacks, 0u);
}

TEST(CpuLoopBatch, RotatingContendersCloseAgainstAnOlderAnchor)
{
    // Three threads pass one line from contender to contender, so the
    // machine state recurs only every few trigger boundaries, never at
    // adjacent ones. Only an anchor ring reaching back past the
    // rotation can close that cycle; one anchor batches a small
    // fraction of the run.
    const std::vector<cpusim::CpuProgram> programs(
        3, program({op(cpusim::CpuOpKind::AtomicRmw, 0x2000)}, 400));
    sim::LoopBatchCounters lb;
    expectCpuIdentity(programs, lb);
    EXPECT_GT(lb.batched_iters, lb.total_iters / 2);
}

TEST(CpuLoopBatch, BarrierTeamMatchesSingleStep)
{
    const std::vector<cpusim::CpuProgram> programs(
        8, program({op(cpusim::CpuOpKind::Alu),
                    op(cpusim::CpuOpKind::Barrier)},
                   150));
    sim::LoopBatchCounters lb;
    expectCpuIdentity(programs, lb);
}

TEST(CpuLoopBatch, LockLoopMatchesSingleStep)
{
    const std::vector<cpusim::CpuProgram> programs(
        4, program({op(cpusim::CpuOpKind::LockAcquire, 0x3000,
                       DataType::Int32, 1),
                    op(cpusim::CpuOpKind::Alu),
                    op(cpusim::CpuOpKind::LockRelease, 0x3000,
                       DataType::Int32, 1)},
                   150));
    sim::LoopBatchCounters lb;
    expectCpuIdentity(programs, lb);
    EXPECT_GT(lb.fallbacks, 0u);
}

TEST(CpuLoopBatch, MultiIterationRunRecordsAFallback)
{
    // The boundaries nearest the loop end can never batch past it,
    // so any run with >= 2 timed iterations records a fallback.
    const std::vector<cpusim::CpuProgram> programs(
        2, program({op(cpusim::CpuOpKind::Alu)}, 50));
    sim::LoopBatchCounters lb;
    expectCpuIdentity(programs, lb);
    EXPECT_GT(lb.fallbacks, 0u);
}

TEST(CpuLoopBatch, HorizonPinShrinksBatchingButNotResults)
{
    const std::vector<cpusim::CpuProgram> programs(
        4, program({op(cpusim::CpuOpKind::Alu)}, 200));

    sim::LoopBatchCounters unpinned;
    const auto reference = runCpu(programs, true, &unpinned);
    ASSERT_GT(unpinned.batched_iters, 0u);

    // Pin mid-run: windows may not jump across it, so strictly less
    // gets batched -- with identical cycle counts.
    sim::LoopBatchCounters pinned;
    const auto capped = runCpu(programs, true, &pinned,
                               reference.total_cycles / 2);
    EXPECT_EQ(capped.total_cycles, reference.total_cycles);
    EXPECT_EQ(capped.thread_cycles, reference.thread_cycles);
    EXPECT_LT(pinned.batched_iters, unpinned.batched_iters);

    // Pin at tick 0: every boundary is at or past it, nothing may
    // batch at all.
    sim::LoopBatchCounters frozen;
    const auto stepped = runCpu(programs, true, &frozen, 0);
    EXPECT_EQ(stepped.total_cycles, reference.total_cycles);
    EXPECT_EQ(stepped.thread_cycles, reference.thread_cycles);
    EXPECT_EQ(frozen.batched_iters, 0u);
    EXPECT_EQ(frozen.windows, 0u);
}

// ------------------------------------------------------------- GPU

gpusim::GpuKernel
kernel(std::vector<gpusim::GpuOp> body, long iterations)
{
    gpusim::GpuKernel k;
    k.body = std::move(body);
    k.body_iters = iterations;
    return k;
}

gpusim::GpuRunResult
runGpu(const gpusim::GpuKernel &k, gpusim::LaunchConfig launch,
       bool batch, sim::LoopBatchCounters *lb = nullptr,
       sim::Tick pin = sim::EventQueue::no_tick,
       sim::StatSet *stats = nullptr)
{
    gpusim::GpuMachine m(gpusim::GpuConfig{}, 7);
    m.setLoopBatch(batch);
    m.setBatchHorizonPin(pin);
    const auto r = m.run(k, launch, /*warmup_iterations=*/2);
    if (lb != nullptr)
        *lb = m.loopBatch();
    if (stats != nullptr)
        *stats = m.stats();
    return r;
}

void
expectGpuIdentity(const gpusim::GpuKernel &k,
                  gpusim::LaunchConfig launch,
                  sim::LoopBatchCounters &lb)
{
    sim::StatSet batched_stats;
    sim::StatSet stepped_stats;
    const auto batched = runGpu(k, launch, true, &lb,
                                sim::EventQueue::no_tick, &batched_stats);
    const auto stepped = runGpu(k, launch, false, nullptr,
                                sim::EventQueue::no_tick, &stepped_stats);
    EXPECT_EQ(batched.total_cycles, stepped.total_cycles);
    EXPECT_EQ(batched.thread_cycles, stepped.thread_cycles);
    expectSameStats(batched_stats, stepped_stats);
}

TEST(GpuLoopBatch, UncontendedAluBatchesAndMatchesSingleStep)
{
    sim::LoopBatchCounters lb;
    expectGpuIdentity(kernel({gpusim::GpuOp::alu(4)}, 100), {8, 128},
                      lb);
    EXPECT_GT(lb.windows, 0u);
    EXPECT_GT(lb.batched_iters, 0u);
}

TEST(GpuLoopBatch, SyncThreadsMatchesSingleStep)
{
    sim::LoopBatchCounters lb;
    expectGpuIdentity(kernel({gpusim::GpuOp::alu(),
                              gpusim::GpuOp::syncThreads()},
                             100),
                      {4, 256}, lb);
}

TEST(GpuLoopBatch, ContendedAtomicMatchesSingleStepAndFallsBack)
{
    sim::LoopBatchCounters lb;
    expectGpuIdentity(kernel({gpusim::GpuOp::globalAtomic(
                                 gpusim::AtomicOp::Cas,
                                 gpusim::AddressMode::SingleShared,
                                 0x200)},
                             100),
                      {8, 64}, lb);
    EXPECT_GT(lb.fallbacks, 0u);
}

TEST(GpuLoopBatch, GridSyncMatchesSingleStep)
{
    sim::LoopBatchCounters lb;
    expectGpuIdentity(kernel({gpusim::GpuOp::alu(),
                              gpusim::GpuOp::gridSync()},
                             80),
                      {4, 128}, lb);
}

TEST(GpuLoopBatch, MultiWaveLaunchMatchesSingleStep)
{
    // More blocks than can be resident: block turnover hands the
    // trigger role across waves, and every wave must still match.
    sim::LoopBatchCounters lb;
    expectGpuIdentity(kernel({gpusim::GpuOp::alu(8)}, 60),
                      {512, 1024}, lb);
    EXPECT_GT(lb.batched_iters, 0u);
}

TEST(GpuLoopBatch, SystemFenceDrawsJitterAndNeverBatches)
{
    // __threadfence_system draws per-iteration rng: the batcher's
    // randomness guard must keep it single-stepped forever.
    sim::LoopBatchCounters lb;
    expectGpuIdentity(kernel({gpusim::GpuOp::globalStore(0x600),
                              gpusim::GpuOp::fence(
                                  gpusim::FenceScope::System)},
                             80),
                      {4, 64}, lb);
    EXPECT_EQ(lb.windows, 0u);
    EXPECT_GT(lb.fallbacks, 0u);
}

TEST(GpuLoopBatch, StoreThenDeviceFenceBatchesAndMatchesSingleStep)
{
    // Each warp's fence waits on its own store's commit stamp, an
    // actor-local register the jump must shift with the warp: left
    // behind, it would make every post-jump fence look free.
    sim::LoopBatchCounters lb;
    expectGpuIdentity(kernel({gpusim::GpuOp::globalStore(0x600),
                              gpusim::GpuOp::fence(
                                  gpusim::FenceScope::Device)},
                             100),
                      {4, 64}, lb);
    EXPECT_GT(lb.batched_iters, lb.total_iters / 2);
}

TEST(GpuLoopBatch, DramTailStaysLiveWhenTheEpilogueLoads)
{
    // A store-only body pushes the DRAM queue tail far ahead of the
    // clock. The epilogue's load reads it, so the tail is live: a
    // fingerprint that canonicalized it would let the batched run
    // drop the backlog the load must wait behind.
    auto k = kernel({gpusim::GpuOp::globalStore(0x200000,
                                                DataType::Int32, 32)},
                    100);
    k.epilogue = {gpusim::GpuOp::globalLoad(0x200000)};
    const gpusim::LaunchConfig launch{64, 1024};
    const auto batched = runGpu(k, launch, true);
    const auto stepped = runGpu(k, launch, false);
    EXPECT_EQ(batched.total_cycles, stepped.total_cycles);
    EXPECT_EQ(batched.thread_cycles, stepped.thread_cycles);
}

TEST(GpuLoopBatch, HorizonPinShrinksBatchingButNotResults)
{
    const auto k = kernel({gpusim::GpuOp::alu(4)}, 100);
    const gpusim::LaunchConfig launch{8, 128};

    sim::LoopBatchCounters unpinned;
    const auto reference = runGpu(k, launch, true, &unpinned);
    ASSERT_GT(unpinned.batched_iters, 0u);

    sim::LoopBatchCounters pinned;
    const auto capped = runGpu(k, launch, true, &pinned,
                               reference.total_cycles / 2);
    EXPECT_EQ(capped.total_cycles, reference.total_cycles);
    EXPECT_EQ(capped.thread_cycles, reference.thread_cycles);
    EXPECT_LT(pinned.batched_iters, unpinned.batched_iters);

    sim::LoopBatchCounters frozen;
    const auto stepped = runGpu(k, launch, true, &frozen, 0);
    EXPECT_EQ(stepped.total_cycles, reference.total_cycles);
    EXPECT_EQ(stepped.thread_cycles, reference.thread_cycles);
    EXPECT_EQ(frozen.batched_iters, 0u);
}

} // namespace
} // namespace syncperf
