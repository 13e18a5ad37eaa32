/**
 * @file
 * Randomized robustness tests: seeded random SPMD programs and
 * kernels must always complete (no deadlock, no assertion failures),
 * deterministically, with plausible timing -- and steady-state loop
 * batching must not change any output or probe of them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "cpusim/machine.hh"
#include "gpusim/machine.hh"
#include "gpusim/occupancy.hh"
#include "sim/stat.hh"
#include "../sim/same_stats.hh"

namespace syncperf
{
namespace
{

// ---------------------------------------------------------------- CPU

/** Build one random SPMD body; all threads share the structure so
 * barriers and locks stay balanced. */
std::vector<cpusim::CpuOp>
randomCpuBody(Pcg32 &rng)
{
    using cpusim::CpuOp;
    using cpusim::CpuOpKind;
    const int len = 1 + static_cast<int>(rng.below(6));
    std::vector<CpuOp> body;
    for (int i = 0; i < len; ++i) {
        CpuOp op;
        switch (rng.below(8)) {
          case 0: op.kind = CpuOpKind::Load; break;
          case 1: op.kind = CpuOpKind::Store; break;
          case 2: op.kind = CpuOpKind::AtomicRmw; break;
          case 3: op.kind = CpuOpKind::AtomicLoad; break;
          case 4: op.kind = CpuOpKind::AtomicStore; break;
          case 5: op.kind = CpuOpKind::Fence; break;
          case 6: op.kind = CpuOpKind::Alu; break;
          case 7: op.kind = CpuOpKind::Barrier; break;
        }
        op.addr = 0x1000 + rng.below(4) * 0x40;
        op.dtype = all_data_types[rng.below(4)];
        body.push_back(op);
    }
    // Optionally wrap everything in a critical section -- but never
    // around a barrier: a thread waiting at a barrier while holding
    // the lock deadlocks the team (the machine correctly panics on
    // that, which is its own test below).
    bool has_barrier = false;
    for (const auto &op : body)
        has_barrier |= (op.kind == CpuOpKind::Barrier);
    if (!has_barrier && rng.below(3) == 0) {
        CpuOp acq;
        acq.kind = CpuOpKind::LockAcquire;
        acq.addr = 0x3000;
        CpuOp rel;
        rel.kind = CpuOpKind::LockRelease;
        rel.addr = 0x3000;
        body.insert(body.begin(), acq);
        body.push_back(rel);
    }
    return body;
}

/** A random team of 1..16 threads sharing one random body, each
 * running 1..@p max_iters timed iterations (one shared count when the
 * body holds a barrier). */
std::vector<cpusim::CpuProgram>
randomCpuPrograms(Pcg32 &rng, long max_iters)
{
    const int threads = 1 + static_cast<int>(rng.below(16));
    const auto shared_body = randomCpuBody(rng);

    std::vector<cpusim::CpuProgram> programs;
    for (int t = 0; t < threads; ++t) {
        cpusim::CpuProgram p;
        p.body = shared_body;
        // Give array-ish ops per-thread addresses sometimes.
        for (auto &op : p.body) {
            if (rng.below(2) == 0 &&
                op.kind != cpusim::CpuOpKind::Barrier &&
                op.kind != cpusim::CpuOpKind::LockAcquire &&
                op.kind != cpusim::CpuOpKind::LockRelease) {
                op.addr = 0x100000 +
                          static_cast<std::uint64_t>(t) * 8 *
                              dataTypeSize(op.dtype);
            }
        }
        p.iterations =
            1 + static_cast<long>(rng.below(
                    static_cast<std::uint32_t>(max_iters)));
        // Iterations must match when the body holds a barrier.
        programs.push_back(std::move(p));
    }
    bool has_barrier = false;
    for (const auto &op : shared_body)
        has_barrier |= (op.kind == cpusim::CpuOpKind::Barrier);
    if (has_barrier) {
        for (auto &p : programs)
            p.iterations = programs.front().iterations;
    }
    return programs;
}

class CpuFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(CpuFuzz, RandomProgramsCompleteDeterministically)
{
    Pcg32 rng(static_cast<std::uint64_t>(GetParam()), 17);
    const auto programs = randomCpuPrograms(rng, 20);
    const int threads = static_cast<int>(programs.size());

    cpusim::CpuMachine a(cpusim::CpuConfig::system3(), Affinity::System,
                         7);
    cpusim::CpuMachine b(cpusim::CpuConfig::system3(), Affinity::System,
                         7);
    const auto ra = a.run(programs, 2);
    const auto rb = b.run(programs, 2);
    ASSERT_EQ(ra.thread_cycles.size(),
              static_cast<std::size_t>(threads));
    EXPECT_EQ(ra.thread_cycles, rb.thread_cycles);
    EXPECT_EQ(ra.total_cycles, rb.total_cycles);
    for (auto c : ra.thread_cycles)
        EXPECT_GT(c, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CpuFuzz, ::testing::Range(1, 26));

TEST(CpuLoopBatchFuzz, BatchedRunsMatchSingleStepOnRandomPrograms)
{
    // Loops 10x the fuzz range above, long enough for the batcher to
    // prove periods and jump; every output and probe must still
    // equal the single-stepped run's.
    std::uint64_t batched_iters = 0;
    for (int seed = 1; seed < 26; ++seed) {
        SCOPED_TRACE(seed);
        Pcg32 rng(static_cast<std::uint64_t>(seed), 17);
        const auto programs = randomCpuPrograms(rng, 200);

        cpusim::CpuMachine batched(cpusim::CpuConfig::system3(),
                                   Affinity::System, 7);
        cpusim::CpuMachine stepped(cpusim::CpuConfig::system3(),
                                   Affinity::System, 7);
        stepped.setLoopBatch(false);
        const auto rb = batched.run(programs, 2);
        const auto rs = stepped.run(programs, 2);
        EXPECT_EQ(rb.thread_cycles, rs.thread_cycles);
        EXPECT_EQ(rb.total_cycles, rs.total_cycles);
        expectSameStats(batched.stats(), stepped.stats());
        EXPECT_EQ(stepped.loopBatch().batched_iters, 0u);
        batched_iters += batched.loopBatch().batched_iters;
    }
    // Otherwise the comparison above would hold vacuously.
    EXPECT_GT(batched_iters, 0u);
}

TEST(CpuDeadlock, BarrierInsideCriticalSectionIsDetected)
{
    // Thread 0 reaches the barrier holding the lock; thread 1 cannot
    // pass LockAcquire: the machine must diagnose the deadlock
    // instead of hanging.
    using cpusim::CpuOp;
    using cpusim::CpuOpKind;
    CpuOp acq;
    acq.kind = CpuOpKind::LockAcquire;
    acq.addr = 0x3000;
    CpuOp barrier;
    barrier.kind = CpuOpKind::Barrier;
    CpuOp rel;
    rel.kind = CpuOpKind::LockRelease;
    rel.addr = 0x3000;

    cpusim::CpuProgram p;
    p.body = {acq, barrier, rel};
    p.iterations = 2;
    cpusim::CpuMachine machine(cpusim::CpuConfig::system3(),
                               Affinity::System);
    ScopedLogCapture capture;
    EXPECT_THROW(machine.run({p, p}, 1), LogDeathException);
}

// ---------------------------------------------------------------- GPU

/** A random kernel body running 1..@p max_iters timed iterations,
 * drawn from every op @p cfg supports (__reduce_*_sync needs
 * cc >= 8.0). */
gpusim::GpuKernel
randomGpuKernel(Pcg32 &rng, long max_iters, const gpusim::GpuConfig &cfg)
{
    using gpusim::AddressMode;
    using gpusim::AtomicOp;
    using gpusim::FenceScope;
    using gpusim::GpuOp;
    gpusim::GpuKernel k;
    const int len = 1 + static_cast<int>(rng.below(5));
    for (int i = 0; i < len; ++i) {
        switch (rng.below(14)) {
          case 0: k.body.push_back(GpuOp::alu()); break;
          case 1: k.body.push_back(GpuOp::syncWarp()); break;
          case 2: k.body.push_back(GpuOp::syncThreads()); break;
          case 3:
            k.body.push_back(GpuOp::shfl(all_data_types[rng.below(4)]));
            break;
          case 4: k.body.push_back(GpuOp::vote()); break;
          case 5:
            k.body.push_back(GpuOp::globalAtomic(
                rng.below(2) ? AtomicOp::Add : AtomicOp::Max,
                rng.below(2) ? AddressMode::SingleShared
                             : AddressMode::PerThread,
                0x1000, all_data_types[rng.below(4)],
                1 + static_cast<int>(rng.below(32))));
            break;
          case 6:
            k.body.push_back(GpuOp::globalAtomic(
                rng.below(2) ? AtomicOp::Cas : AtomicOp::Exch,
                AddressMode::SingleShared, 0x2000,
                rng.below(2) ? DataType::Int32 : DataType::UInt64));
            break;
          case 7:
            k.body.push_back(
                GpuOp::sharedAtomic(AtomicOp::Add, 0x5000));
            break;
          case 8:
            k.body.push_back(GpuOp::globalLoad(0x100000));
            break;
          case 9: {
            constexpr FenceScope scopes[] = {
                FenceScope::Block, FenceScope::Device, FenceScope::System};
            k.body.push_back(GpuOp::fence(scopes[rng.below(3)]));
            break;
          }
          case 10:
            k.body.push_back(GpuOp::globalStore(
                0x200000, all_data_types[rng.below(4)],
                1 + static_cast<int>(rng.below(32))));
            break;
          case 11:
            k.body.push_back(GpuOp::divergentAlu(
                1 + static_cast<int>(rng.below(4))));
            break;
          case 12: k.body.push_back(GpuOp::gridSync()); break;
          case 13:
            k.body.push_back(cfg.compute_capability >= 8.0
                                 ? GpuOp::reduceSync()
                                 : GpuOp::alu());
            break;
        }
    }
    k.body_iters =
        1 + static_cast<long>(
                rng.below(static_cast<std::uint32_t>(max_iters)));
    return k;
}

/** 1..@p max_blocks blocks of 1..@p max_threads threads. A kernel
 * holding a grid sync gets a cooperative launch that stays resident:
 * at most one 256-thread block per SM. */
gpusim::LaunchConfig
randomLaunch(Pcg32 &rng, const gpusim::GpuKernel &k,
             const gpusim::GpuConfig &cfg, int max_blocks,
             int max_threads)
{
    for (const auto &op : k.body) {
        if (op.kind == gpusim::GpuOpKind::GridSync) {
            max_blocks = std::min(max_blocks, cfg.sm_count);
            max_threads = std::min(max_threads, 256);
        }
    }
    const int blocks = 1 + static_cast<int>(rng.below(
                               static_cast<std::uint32_t>(max_blocks)));
    return {blocks, 1 + static_cast<int>(rng.below(
                            static_cast<std::uint32_t>(max_threads)))};
}

class GpuFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(GpuFuzz, RandomKernelsCompleteDeterministically)
{
    Pcg32 rng(static_cast<std::uint64_t>(GetParam()), 23);
    const auto cfg = gpusim::GpuConfig::rtx4090();
    const auto kernel = randomGpuKernel(rng, 15, cfg);
    const auto launch = randomLaunch(rng, kernel, cfg, 8, 256);

    gpusim::GpuMachine a(cfg, 9);
    gpusim::GpuMachine b(cfg, 9);
    const auto ra = a.run(kernel, launch, 1);
    const auto rb = b.run(kernel, launch, 1);
    EXPECT_EQ(ra.thread_cycles, rb.thread_cycles);
    EXPECT_EQ(ra.total_cycles, rb.total_cycles);
    EXPECT_EQ(ra.thread_cycles.size(),
              static_cast<std::size_t>(launch.blocks) *
                  launch.threads_per_block);
    EXPECT_GT(ra.total_cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GpuFuzz, ::testing::Range(1, 26));

TEST(GpuLoopBatchFuzz, BatchedRunsMatchSingleStepOnRandomKernels)
{
    // Loops 10x the fuzz range above, on every preset (16, 40 and 48
    // L2 atomic units) and launches of up to 2 x sm_count blocks of up
    // to 512 threads; see the CPU variant.
    const gpusim::GpuConfig presets[] = {
        gpusim::GpuConfig::rtx2070Super(), gpusim::GpuConfig::a100(),
        gpusim::GpuConfig::rtx4090()};
    std::uint64_t batched_iters = 0;
    for (int seed = 1; seed < 26; ++seed) {
        SCOPED_TRACE(seed);
        Pcg32 rng(static_cast<std::uint64_t>(seed), 23);
        const auto &cfg = presets[rng.below(3)];
        const auto kernel = randomGpuKernel(rng, 150, cfg);
        const auto launch =
            randomLaunch(rng, kernel, cfg, 2 * cfg.sm_count, 512);

        gpusim::GpuMachine batched(cfg, 9);
        gpusim::GpuMachine stepped(cfg, 9);
        stepped.setLoopBatch(false);
        const auto rb = batched.run(kernel, launch, 1);
        const auto rs = stepped.run(kernel, launch, 1);
        EXPECT_EQ(rb.thread_cycles, rs.thread_cycles);
        EXPECT_EQ(rb.total_cycles, rs.total_cycles);
        expectSameStats(batched.stats(), stepped.stats());
        EXPECT_EQ(stepped.loopBatch().batched_iters, 0u);
        batched_iters += batched.loopBatch().batched_iters;
    }
    EXPECT_GT(batched_iters, 0u);
}

TEST(GpuLoopBatchFuzz, MultiWavePerThreadAtomicsMatchSingleStep)
{
    // The saturating regime of the thorough GPU sweep: per-thread
    // atomicAdd/atomicCAS arrays at strides 1 and 32 on launches of
    // more than one wave, so later blocks start as earlier ones
    // retire. Case i runs preset i % 3 with data type i % 4: twelve
    // cases cover every pair.
    const gpusim::GpuConfig presets[] = {
        gpusim::GpuConfig::rtx2070Super(), gpusim::GpuConfig::a100(),
        gpusim::GpuConfig::rtx4090()};
    std::uint64_t batched_iters = 0;
    for (int i = 0; i < 12; ++i) {
        SCOPED_TRACE(i);
        Pcg32 rng(static_cast<std::uint64_t>(i), 29);
        const auto &cfg = presets[i % 3];
        gpusim::GpuKernel kernel;
        kernel.body = {gpusim::GpuOp::globalAtomic(
            rng.below(2) ? gpusim::AtomicOp::Add : gpusim::AtomicOp::Cas,
            gpusim::AddressMode::PerThread, 0x100000,
            all_data_types[i % 4], rng.below(2) ? 32 : 1)};
        kernel.body_iters = 8 + static_cast<long>(rng.below(33));
        const int threads = 32 << rng.below(6);
        const int wave =
            gpusim::computeOccupancy(cfg, {1, threads}).blocks_per_sm *
            cfg.sm_count;
        const gpusim::LaunchConfig launch{
            wave + 1 + static_cast<int>(rng.below(
                           static_cast<std::uint32_t>(wave))),
            threads};
        ASSERT_GE(gpusim::computeOccupancy(cfg, launch).waves, 2);

        gpusim::GpuMachine batched(cfg, 9);
        gpusim::GpuMachine stepped(cfg, 9);
        stepped.setLoopBatch(false);
        const auto rb = batched.run(kernel, launch, 1);
        const auto rs = stepped.run(kernel, launch, 1);
        EXPECT_EQ(rb.thread_cycles, rs.thread_cycles);
        EXPECT_EQ(rb.total_cycles, rs.total_cycles);
        expectSameStats(batched.stats(), stepped.stats());
        EXPECT_EQ(stepped.loopBatch().batched_iters, 0u);
        batched_iters += batched.loopBatch().batched_iters;
    }
    EXPECT_GT(batched_iters, 0u);
}

// --------------------------------------------- GPU monotonicity

class GpuContentionMonotonicity
    : public ::testing::TestWithParam<gpusim::AtomicOp>
{
};

TEST_P(GpuContentionMonotonicity, PerThreadThroughputNonIncreasing)
{
    using gpusim::GpuOp;
    gpusim::GpuKernel k;
    k.body = {GpuOp::globalAtomic(GetParam(),
                                  gpusim::AddressMode::SingleShared,
                                  0x1000)};
    k.body_iters = 40;

    double previous_rate = -1.0;
    for (int threads : {2, 8, 32, 128, 512, 1024}) {
        gpusim::GpuMachine machine(gpusim::GpuConfig::rtx4090());
        const auto r = machine.run(k, {1, threads}, 2);
        sim::Tick max_cycles = 0;
        for (auto c : r.thread_cycles)
            max_cycles = std::max(max_cycles, c);
        const double rate = 1.0 / static_cast<double>(max_cycles);
        if (previous_rate >= 0.0)
            EXPECT_LE(rate, previous_rate * 1.03) << threads;
        previous_rate = rate;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AtomicOps, GpuContentionMonotonicity,
    ::testing::Values(gpusim::AtomicOp::Add, gpusim::AtomicOp::Max,
                      gpusim::AtomicOp::Cas, gpusim::AtomicOp::Exch),
    [](const ::testing::TestParamInfo<gpusim::AtomicOp> &info) {
        switch (info.param) {
          case gpusim::AtomicOp::Add: return "add";
          case gpusim::AtomicOp::Max: return "max";
          case gpusim::AtomicOp::Cas: return "cas";
          case gpusim::AtomicOp::Exch: return "exch";
        }
        return "unknown";
    });

} // namespace
} // namespace syncperf
