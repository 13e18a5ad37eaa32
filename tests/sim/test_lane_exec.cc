/**
 * @file
 * Machine-level identity tests behind the campaign's lane planner
 * (docs/performance.md, "Lane-batched sweeps"). The planner groups
 * sweep points whose program sets or kernels decode to equal image
 * fingerprints and copies the reference point's measurement to every
 * in-step member, so it relies on two properties of run() alone:
 *
 * - equal fingerprints (with equal seed and iteration schedule) give
 *   bit-identical results, StatSets, and loop-batch counters;
 * - program sets or kernels of a different shape get different
 *   fingerprints, so the planner peels them.
 *
 * The fingerprint deliberately covers only the decoded image: the
 * seed and iteration schedule are held equal by the planner itself,
 * and the tests below pin that they do matter.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cpusim/machine.hh"
#include "gpusim/machine.hh"

namespace syncperf
{
namespace
{

/** Everything one launch produces that a lane member would copy. */
template <typename Result>
struct Walk
{
    Result result;
    std::map<std::string, std::uint64_t> stats;
    sim::LoopBatchCounters loop_batch;
};

template <typename Result>
void
expectSameWalk(const Walk<Result> &a, const Walk<Result> &b)
{
    EXPECT_EQ(a.result.total_cycles, b.result.total_cycles);
    EXPECT_EQ(a.result.thread_cycles, b.result.thread_cycles);
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.loop_batch.batched_iters, b.loop_batch.batched_iters);
    EXPECT_EQ(a.loop_batch.windows, b.loop_batch.windows);
    EXPECT_EQ(a.loop_batch.fallbacks, b.loop_batch.fallbacks);
    EXPECT_EQ(a.loop_batch.total_iters, b.loop_batch.total_iters);
}

// ------------------------------------------------------------- CPU

using CpuWalk = Walk<cpusim::CpuRunResult>;

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

std::vector<cpusim::CpuProgram>
cpuPrograms(std::vector<cpusim::CpuOp> body, int n_threads,
            long iterations)
{
    cpusim::CpuProgram p;
    p.body = std::move(body);
    p.iterations = iterations;
    return std::vector<cpusim::CpuProgram>(
        static_cast<std::size_t>(n_threads), p);
}

std::uint64_t
cpuFingerprint(const std::vector<cpusim::CpuProgram> &programs)
{
    cpusim::CpuMachine m(cpusim::CpuConfig{}, Affinity::Close);
    m.buildImage(1, programs);
    return m.imageFingerprint(1);
}

/** One launch through a decoded image, as the planner's targets run. */
CpuWalk
cpuWalk(const std::vector<cpusim::CpuProgram> &programs,
        std::uint64_t seed,
        const cpusim::CpuConfig &cfg = cpusim::CpuConfig{})
{
    cpusim::CpuMachine m(cfg, Affinity::Close, seed);
    m.buildImage(1, programs);
    CpuWalk w;
    w.result = m.run(programs, /*warmup_iterations=*/2, 1);
    w.stats = m.stats().all();
    w.loop_batch = m.loopBatch();
    return w;
}

TEST(CpuLaneExec, InStepLanesShareTheReferenceWalkBitIdentically)
{
    // Raw addresses and lock ids are interned at decode time, so two
    // points that touch different memory through the same access
    // pattern decode to one image and perform one walk.
    const auto a = cpuPrograms(
        {op(cpusim::CpuOpKind::AtomicRmw, 0x1000),
         op(cpusim::CpuOpKind::LockAcquire, 0, DataType::Int32, 0),
         op(cpusim::CpuOpKind::Store, 0x2000),
         op(cpusim::CpuOpKind::LockRelease, 0, DataType::Int32, 0)},
        4, 60);
    const auto b = cpuPrograms(
        {op(cpusim::CpuOpKind::AtomicRmw, 0x9000),
         op(cpusim::CpuOpKind::LockAcquire, 0, DataType::Int32, 3),
         op(cpusim::CpuOpKind::Store, 0xa000),
         op(cpusim::CpuOpKind::LockRelease, 0, DataType::Int32, 3)},
        4, 60);
    ASSERT_EQ(cpuFingerprint(a), cpuFingerprint(b));
    const CpuWalk ref = cpuWalk(a, 7);
    EXPECT_GT(ref.loop_batch.windows, 0u) << "batcher never engaged";
    expectSameWalk(cpuWalk(b, 7), ref);

    // The image path is itself an identity: a cold decode of the
    // follower's programs walks the same way.
    cpusim::CpuMachine cold(cpusim::CpuConfig{}, Affinity::Close, 7);
    EXPECT_EQ(cold.run(b, 2).thread_cycles, ref.result.thread_cycles);
    EXPECT_EQ(cold.stats().all(), ref.stats);
}

TEST(CpuLaneExec, DtypeMergedProgramsStayInStep)
{
    // The decode-collapse economics the planner exploits: int and
    // unsigned-long-long atomic updates decode to the same handler
    // stream, so their points share one walk.
    const auto a = cpuPrograms(
        {op(cpusim::CpuOpKind::AtomicRmw, 0x1000, DataType::Int32)}, 4,
        50);
    const auto b = cpuPrograms(
        {op(cpusim::CpuOpKind::AtomicRmw, 0x1000, DataType::UInt64)},
        4, 50);
    ASSERT_EQ(cpuFingerprint(a), cpuFingerprint(b));
    expectSameWalk(cpuWalk(b, 5), cpuWalk(a, 5));
}

TEST(CpuLaneExec, DivergentProgramShapePeels)
{
    // Every shape change the planner must not merge moves the
    // fingerprint: handler kind, hoisted cost, body length, team
    // size, and the interned line universe (true vs false sharing).
    const auto base =
        cpuPrograms({op(cpusim::CpuOpKind::AtomicRmw, 0x1000)}, 4, 50);
    const std::uint64_t want = cpuFingerprint(base);
    EXPECT_NE(cpuFingerprint(cpuPrograms(
                  {op(cpusim::CpuOpKind::Load, 0x1000)}, 4, 50)),
              want);
    EXPECT_NE(cpuFingerprint(cpuPrograms(
                  {op(cpusim::CpuOpKind::AtomicRmw, 0x1000,
                      DataType::Float64)},
                  4, 50)),
              want);
    EXPECT_NE(cpuFingerprint(cpuPrograms(
                  {op(cpusim::CpuOpKind::AtomicRmw, 0x1000),
                   op(cpusim::CpuOpKind::Alu)},
                  4, 50)),
              want);
    EXPECT_NE(cpuFingerprint(cpuPrograms(
                  {op(cpusim::CpuOpKind::AtomicRmw, 0x1000)}, 3, 50)),
              want);
    auto spread = base;
    for (std::size_t t = 0; t < spread.size(); ++t)
        spread[t].body[0].addr = 0x1000 + 0x1000 * t;
    EXPECT_NE(cpuFingerprint(spread), want);
}

TEST(CpuLaneExec, FingerprintExcludesIterationSchedule)
{
    // The iteration schedule is not part of the image, so equal
    // fingerprints alone do not prove equal walks: the planner holds
    // the schedule equal by measuring a group under one protocol.
    const auto a = cpuPrograms({op(cpusim::CpuOpKind::Alu)}, 4, 50);
    const auto b = cpuPrograms({op(cpusim::CpuOpKind::Alu)}, 4, 70);
    EXPECT_EQ(cpuFingerprint(a), cpuFingerprint(b));
    EXPECT_NE(cpuWalk(a, 5).result.thread_cycles,
              cpuWalk(b, 5).result.thread_cycles);
}

TEST(CpuLaneExec, FingerprintExcludesSeed)
{
    // On a jittered model the seed changes the walk under an
    // unchanged image; the planner keeps every member on the
    // reference target's seed stream and reseeds peeled lanes at
    // its cursor.
    cpusim::CpuConfig jittered;
    jittered.jitter_frac = 0.3;
    const auto programs =
        cpuPrograms({op(cpusim::CpuOpKind::AtomicRmw, 0x1000)}, 4, 50);
    expectSameWalk(cpuWalk(programs, 3, jittered),
                   cpuWalk(programs, 3, jittered));
    EXPECT_NE(cpuWalk(programs, 3, jittered).result.thread_cycles,
              cpuWalk(programs, 4, jittered).result.thread_cycles);
}

// ------------------------------------------------------------- GPU

using GpuWalk = Walk<gpusim::GpuRunResult>;

gpusim::GpuKernel
bodyKernel(std::vector<gpusim::GpuOp> body, long iters = 40)
{
    gpusim::GpuKernel k;
    k.body = std::move(body);
    k.body_iters = iters;
    return k;
}

gpusim::GpuConfig
testGpu()
{
    gpusim::GpuConfig c = gpusim::GpuConfig::rtx4090();
    c.name = "test gpu";
    return c;
}

constexpr gpusim::LaunchConfig launch{2, 64};

std::uint64_t
gpuFingerprint(const gpusim::GpuKernel &kernel)
{
    gpusim::GpuMachine m(testGpu());
    m.buildImage(1, kernel);
    return m.imageFingerprint(1);
}

GpuWalk
gpuWalk(const gpusim::GpuKernel &kernel, std::uint64_t seed,
        const gpusim::GpuConfig &cfg = testGpu())
{
    gpusim::GpuMachine m(cfg, seed);
    m.buildImage(1, kernel);
    GpuWalk w;
    w.result = m.run(kernel, launch, /*warmup_iterations=*/2, 1);
    w.stats = m.stats().all();
    w.loop_batch = m.loopBatch();
    return w;
}

TEST(GpuLaneExec, InStepLanesShareTheReferenceWalkBitIdentically)
{
    // Element types of one width hoist the same shuffle costs, so
    // the two kernels decode to one image; the contended atomic and
    // the barrier give the walk real queueing to reproduce.
    const auto kernel = [](DataType shfl_type) {
        return bodyKernel(
            {gpusim::GpuOp::globalAtomic(
                 gpusim::AtomicOp::Add,
                 gpusim::AddressMode::SingleShared, 0x1000),
             gpusim::GpuOp::shfl(shfl_type),
             gpusim::GpuOp::syncThreads()});
    };
    const auto a = kernel(DataType::Int32);
    const auto b = kernel(DataType::Float32);
    ASSERT_EQ(gpuFingerprint(a), gpuFingerprint(b));
    const GpuWalk ref = gpuWalk(a, 9);
    expectSameWalk(gpuWalk(b, 9), ref);

    gpusim::GpuMachine cold(testGpu(), 9);
    EXPECT_EQ(cold.run(b, launch, 2).thread_cycles,
              ref.result.thread_cycles);
    EXPECT_EQ(cold.stats().all(), ref.stats);
}

TEST(GpuLaneExec, DtypeMergedShflKernelsStayInStep)
{
    // shfl decodes identically for same-width element types, the GPU
    // half of the planner's decode-collapse economics.
    const auto a = bodyKernel({gpusim::GpuOp::shfl(DataType::Int32)});
    const auto b = bodyKernel({gpusim::GpuOp::shfl(DataType::Float32)});
    ASSERT_EQ(gpuFingerprint(a), gpuFingerprint(b));
    expectSameWalk(gpuWalk(b, 5), gpuWalk(a, 5));
}

TEST(GpuLaneExec, DivergentKernelShapePeels)
{
    const auto base = bodyKernel({gpusim::GpuOp::syncThreads()});
    const std::uint64_t want = gpuFingerprint(base);
    EXPECT_NE(gpuFingerprint(bodyKernel({gpusim::GpuOp::vote()})), want);
    EXPECT_NE(gpuFingerprint(bodyKernel({gpusim::GpuOp::syncThreads(),
                                         gpusim::GpuOp::syncThreads()})),
              want);
    auto with_prologue = base;
    with_prologue.prologue = {gpusim::GpuOp::syncWarp()};
    EXPECT_NE(gpuFingerprint(with_prologue), want);
    // A different element width hoists a different element size.
    EXPECT_NE(gpuFingerprint(bodyKernel(
                  {gpusim::GpuOp::shfl(DataType::Int32)})),
              gpuFingerprint(bodyKernel(
                  {gpusim::GpuOp::shfl(DataType::Float64)})));
}

TEST(GpuLaneExec, FingerprintExcludesBodyIters)
{
    const auto a = bodyKernel({gpusim::GpuOp::syncWarp()}, 40);
    const auto b = bodyKernel({gpusim::GpuOp::syncWarp()}, 60);
    EXPECT_EQ(gpuFingerprint(a), gpuFingerprint(b));
    EXPECT_NE(gpuWalk(a, 5).result.thread_cycles,
              gpuWalk(b, 5).result.thread_cycles);
}

TEST(GpuLaneExec, FingerprintExcludesSeed)
{
    // __threadfence_system() draws PCIe jitter from the machine's
    // rng, so its walk depends on the seed under an unchanged image.
    const auto k = bodyKernel(
        {gpusim::GpuOp::fence(gpusim::FenceScope::System)});
    expectSameWalk(gpuWalk(k, 3), gpuWalk(k, 3));
    EXPECT_NE(gpuWalk(k, 3).result.thread_cycles,
              gpuWalk(k, 4).result.thread_cycles);
}

} // namespace
} // namespace syncperf
