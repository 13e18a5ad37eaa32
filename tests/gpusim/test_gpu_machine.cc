/**
 * @file
 * Unit and behavioral tests for the SIMT GPU timing machine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "gpusim/atomic_units.hh"
#include "gpusim/machine.hh"

namespace syncperf::gpusim
{
namespace
{

GpuConfig
testGpu()
{
    GpuConfig c = GpuConfig::rtx4090();
    c.name = "test gpu";
    return c;
}

GpuKernel
bodyKernel(std::vector<GpuOp> body, long iters = 40)
{
    GpuKernel k;
    k.body = std::move(body);
    k.body_iters = iters;
    return k;
}

/** Mean timed cycles per body iteration across all threads. */
double
cyclesPerIteration(GpuMachine &machine, const GpuKernel &kernel,
                   LaunchConfig launch, int warmup = 2)
{
    const auto result = machine.run(kernel, launch, warmup);
    double sum = 0.0;
    for (auto c : result.thread_cycles)
        sum += static_cast<double>(c);
    return sum / static_cast<double>(result.thread_cycles.size()) /
           static_cast<double>(kernel.body_iters);
}

TEST(GpuMachine, RunsToCompletion)
{
    GpuMachine machine(testGpu());
    const auto result =
        machine.run(bodyKernel({GpuOp::alu()}), {2, 64}, 1);
    EXPECT_EQ(result.thread_cycles.size(), 128u);
    EXPECT_GT(result.total_cycles, 0u);
}

TEST(GpuMachine, Deterministic)
{
    const GpuKernel k = bodyKernel(
        {GpuOp::globalAtomic(AtomicOp::Add, AddressMode::SingleShared,
                             0x1000)});
    GpuMachine a(testGpu(), 3);
    GpuMachine b(testGpu(), 3);
    EXPECT_EQ(a.run(k, {4, 128}, 2).thread_cycles,
              b.run(k, {4, 128}, 2).thread_cycles);
}

TEST(GpuMachine, PartialWarpsGetLanesClamped)
{
    GpuMachine machine(testGpu());
    const auto result = machine.run(bodyKernel({GpuOp::alu()}), {1, 40}, 1);
    // 40 threads = one full warp + one 8-lane warp.
    EXPECT_EQ(result.thread_cycles.size(), 40u);
}

TEST(GpuMachine, SyncThreadsConstantUpToOneWarp)
{
    const GpuKernel k = bodyKernel({GpuOp::syncThreads()});
    GpuMachine m2(testGpu());
    GpuMachine m32(testGpu());
    const double c2 = cyclesPerIteration(m2, k, {1, 2});
    const double c32 = cyclesPerIteration(m32, k, {1, 32});
    EXPECT_DOUBLE_EQ(c2, c32);
}

TEST(GpuMachine, SyncThreadsSlowsWithWarps)
{
    const GpuKernel k = bodyKernel({GpuOp::syncThreads()});
    GpuMachine m1(testGpu());
    GpuMachine m8(testGpu());
    const double c32 = cyclesPerIteration(m1, k, {1, 32});
    const double c256 = cyclesPerIteration(m8, k, {1, 256});
    EXPECT_GT(c256, 2.0 * c32);
}

TEST(GpuMachine, SyncThreadsIndependentOfBlockCount)
{
    const GpuKernel k = bodyKernel({GpuOp::syncThreads()});
    GpuMachine m1(testGpu());
    GpuMachine m64(testGpu());
    const double one = cyclesPerIteration(m1, k, {1, 256});
    const double many = cyclesPerIteration(m64, k, {64, 256});
    EXPECT_DOUBLE_EQ(one, many);
}

TEST(GpuMachine, SyncWarpFullSpeedUntilIssueSaturates)
{
    const GpuKernel k = bodyKernel({GpuOp::syncWarp()});
    // RTX 4090 preset: full rate up to 256 threads per SM.
    GpuMachine a(testGpu());
    GpuMachine b(testGpu());
    GpuMachine c(testGpu());
    const double c64 = cyclesPerIteration(a, k, {1, 64});
    const double c256 = cyclesPerIteration(b, k, {1, 256});
    const double c1024 = cyclesPerIteration(c, k, {1, 1024});
    // A startup transient of a cycle or two is tolerated; the knee
    // itself must be unambiguous.
    EXPECT_NEAR(c64, c256, 0.02 * c64);
    EXPECT_GT(c1024, 1.5 * c256);
}

TEST(GpuMachine, WarpAggregationCollapsesSameAddressAdds)
{
    const GpuKernel k = bodyKernel({GpuOp::globalAtomic(
        AtomicOp::Add, AddressMode::SingleShared, 0x1000)});
    GpuMachine machine(testGpu());
    machine.run(k, {1, 32}, 1);
    EXPECT_GT(machine.stats().get("gpu.atomic_aggregated"), 0u);
    EXPECT_EQ(machine.stats().get("gpu.atomic_per_thread"), 0u);
}

TEST(GpuMachine, AggregatedAddConstantWithinTwoWarpsPerSm)
{
    const GpuKernel k = bodyKernel({GpuOp::globalAtomic(
        AtomicOp::Add, AddressMode::SingleShared, 0x1000)});
    GpuMachine a(testGpu());
    GpuMachine b(testGpu());
    GpuMachine c(testGpu());
    const double one_warp = cyclesPerIteration(a, k, {1, 32});
    const double two_warps = cyclesPerIteration(b, k, {1, 64});
    const double four_warps = cyclesPerIteration(c, k, {1, 128});
    EXPECT_NEAR(one_warp, two_warps, 0.02 * one_warp);
    EXPECT_GT(four_warps, 1.5 * two_warps);
}

TEST(GpuMachine, CasNeverAggregates)
{
    const GpuKernel k = bodyKernel({GpuOp::globalAtomic(
        AtomicOp::Cas, AddressMode::SingleShared, 0x1000)});
    GpuMachine machine(testGpu());
    machine.run(k, {1, 32}, 1);
    EXPECT_EQ(machine.stats().get("gpu.atomic_aggregated"), 0u);
    EXPECT_GT(machine.stats().get("gpu.atomic_cas_like"), 0u);
}

TEST(GpuMachine, CasConstantUpToPipelineLanes)
{
    const GpuKernel k = bodyKernel({GpuOp::globalAtomic(
        AtomicOp::Cas, AddressMode::SingleShared, 0x1000)});
    GpuMachine a(testGpu());
    GpuMachine b(testGpu());
    GpuMachine c(testGpu());
    const double c1 = cyclesPerIteration(a, k, {1, 2});
    const double c4 = cyclesPerIteration(b, k, {1, 4});
    const double c32 = cyclesPerIteration(c, k, {1, 32});
    EXPECT_NEAR(c1, c4, 0.05 * c1);
    EXPECT_GT(c32, 2.0 * c4);
}

TEST(GpuMachine, PerThreadAtomicsUseUnits)
{
    const GpuKernel k = bodyKernel({GpuOp::globalAtomic(
        AtomicOp::Add, AddressMode::PerThread, 0x100000,
        DataType::Int32, 32)});
    GpuMachine machine(testGpu());
    machine.run(k, {1, 64}, 1);
    EXPECT_GT(machine.stats().get("gpu.atomic_per_thread"), 0u);
    EXPECT_EQ(machine.stats().get("gpu.atomic_aggregated"), 0u);
}

TEST(GpuMachine, IntAtomicsFasterThanDoubleAtScale)
{
    auto kernelFor = [](DataType t) {
        return bodyKernel({GpuOp::globalAtomic(
            AtomicOp::Add, AddressMode::SingleShared, 0x1000, t)});
    };
    GpuMachine mi(testGpu());
    GpuMachine md(testGpu());
    const double ci =
        cyclesPerIteration(mi, kernelFor(DataType::Int32), {64, 256});
    const double cd =
        cyclesPerIteration(md, kernelFor(DataType::Float64), {64, 256});
    EXPECT_LT(ci, cd);
}

TEST(GpuMachine, ShflSixtyFourBitCostsTwoMicroOps)
{
    GpuMachine machine(testGpu());
    machine.run(bodyKernel({GpuOp::shfl(DataType::Float64)}), {1, 32}, 1);
    const auto uops64 = machine.stats().get("gpu.shfl_uops");
    GpuMachine machine32(testGpu());
    machine32.run(bodyKernel({GpuOp::shfl(DataType::Int32)}), {1, 32}, 1);
    const auto uops32 = machine32.stats().get("gpu.shfl_uops");
    EXPECT_EQ(uops64, 2 * uops32);
}

TEST(GpuMachine, WideShflKneesAtHalfTheWarpCount)
{
    // 32-bit shuffles run at full speed at 512 threads/SM on the
    // 4090 preset; 64-bit ones have already slowed down.
    auto kernelFor = [](DataType t) {
        return bodyKernel({GpuOp::shfl(t)});
    };
    GpuMachine a(testGpu());
    GpuMachine b(testGpu());
    GpuMachine c(testGpu());
    GpuMachine d(testGpu());
    const double w32_256 =
        cyclesPerIteration(a, kernelFor(DataType::Int32), {1, 256});
    const double w32_512 =
        cyclesPerIteration(b, kernelFor(DataType::Int32), {1, 512});
    const double w64_256 =
        cyclesPerIteration(c, kernelFor(DataType::Float64), {1, 256});
    const double w64_512 =
        cyclesPerIteration(d, kernelFor(DataType::Float64), {1, 512});
    EXPECT_NEAR(w32_256, w32_512, 0.02 * w32_256);
    EXPECT_GT(w64_512, 1.2 * w64_256);
}

TEST(GpuMachine, VoteSlowerThanSyncWarpButFlat)
{
    GpuMachine a(testGpu());
    GpuMachine b(testGpu());
    const double sync =
        cyclesPerIteration(a, bodyKernel({GpuOp::syncWarp()}), {1, 64});
    const double vote =
        cyclesPerIteration(b, bodyKernel({GpuOp::vote()}), {1, 64});
    EXPECT_GT(vote, sync);
}

TEST(GpuMachine, FenceScopesOrderedByCost)
{
    auto kernelFor = [](FenceScope s) {
        return bodyKernel({GpuOp::globalStore(0x100000),
                           GpuOp::fence(s),
                           GpuOp::globalStore(0x200000)});
    };
    GpuMachine mb(testGpu());
    GpuMachine md(testGpu());
    GpuMachine ms(testGpu());
    const double block =
        cyclesPerIteration(mb, kernelFor(FenceScope::Block), {1, 32});
    const double device =
        cyclesPerIteration(md, kernelFor(FenceScope::Device), {1, 32});
    const double system =
        cyclesPerIteration(ms, kernelFor(FenceScope::System), {1, 32});
    EXPECT_LT(block, device);
    EXPECT_LT(device, system);
}

TEST(GpuMachine, SystemFenceJitterIsSeedDependent)
{
    const GpuKernel k = bodyKernel(
        {GpuOp::globalStore(0x100000), GpuOp::fence(FenceScope::System),
         GpuOp::globalStore(0x200000)});
    GpuMachine a(testGpu(), 1);
    GpuMachine b(testGpu(), 2);
    EXPECT_NE(a.run(k, {1, 32}, 1).total_cycles,
              b.run(k, {1, 32}, 1).total_cycles);
}

TEST(GpuMachine, SharedAtomicsStayOnTheSm)
{
    const GpuKernel k = bodyKernel(
        {GpuOp::sharedAtomic(AtomicOp::Max, 0x5000)});
    GpuMachine machine(testGpu());
    machine.run(k, {2, 64}, 1);
    EXPECT_GT(machine.stats().get("gpu.smem_atomic"), 0u);
    EXPECT_EQ(machine.stats().get("gpu.atomic_aggregated"), 0u);
}

TEST(GpuMachine, BlocksScheduleInWaves)
{
    // More blocks than can be resident: every block still runs.
    GpuConfig cfg = testGpu();
    cfg.sm_count = 2;
    GpuMachine machine(cfg);
    const auto result =
        machine.run(bodyKernel({GpuOp::alu()}), {8, 1024}, 1);
    EXPECT_EQ(machine.stats().get("gpu.blocks_launched"), 8u);
    EXPECT_EQ(machine.stats().get("gpu.blocks_retired"), 8u);
    EXPECT_EQ(result.thread_cycles.size(), 8u * 1024u);
}

TEST(GpuMachine, ResidencyRespectsThreadLimit)
{
    // 1536 threads/SM on the 4090: two 1024-thread blocks cannot
    // share an SM, so with 1 SM the second block waits.
    GpuConfig cfg = testGpu();
    cfg.sm_count = 1;
    GpuMachine serial(cfg);
    const auto two_blocks =
        serial.run(bodyKernel({GpuOp::alu()}, 100), {2, 1024}, 1);

    GpuMachine parallel_m(cfg);
    const auto one_block =
        parallel_m.run(bodyKernel({GpuOp::alu()}, 100), {1, 1024}, 1);
    EXPECT_GT(two_blocks.total_cycles,
              static_cast<sim::Tick>(1.8 * one_block.total_cycles));
}

TEST(GpuMachine, ReduceSyncRequiresCc80)
{
    GpuConfig turing = GpuConfig::rtx2070Super();
    GpuMachine machine(turing);
    ScopedLogCapture capture;
    EXPECT_THROW(machine.run(bodyKernel({GpuOp::reduceSync()}), {1, 32}, 1),
                 LogDeathException);
}

TEST(GpuMachine, Thread0PredicateRunsOncePerBlock)
{
    const GpuKernel k = bodyKernel({GpuOp::globalAtomic(
        AtomicOp::Max, AddressMode::SingleShared, 0x1000,
        DataType::Int32, 1, Predicate::Thread0)});
    GpuMachine machine(testGpu());
    machine.run(k, {2, 128}, 1);
    // 2 blocks x (1 warmup + 40 timed) iterations, warp 0 only.
    EXPECT_EQ(machine.stats().get("gpu.atomic_aggregated"), 2u * 41u);
}

TEST(GpuMachine, InvalidLaunchPanics)
{
    GpuMachine machine(testGpu());
    ScopedLogCapture capture;
    EXPECT_THROW(machine.run(bodyKernel({GpuOp::alu()}), {0, 32}, 1),
                 LogDeathException);
    EXPECT_THROW(machine.run(bodyKernel({GpuOp::alu()}), {1, 2048}, 1),
                 LogDeathException);
}

/** A kernel touching several decode paths: a same-address atomic, a
 * barrier, a shuffle, and a device fence. */
GpuKernel
imageTestKernel()
{
    return bodyKernel(
        {GpuOp::globalAtomic(AtomicOp::Add, AddressMode::SingleShared,
                             0x1000),
         GpuOp::syncThreads(), GpuOp::shfl(DataType::Int32),
         GpuOp::fence(FenceScope::Device)},
        25);
}

TEST(GpuMachineImage, BuiltImageRunMatchesColdRun)
{
    const GpuKernel k = imageTestKernel();
    GpuMachine cold(testGpu(), 5);
    const auto want = cold.run(k, {4, 128}, 2).thread_cycles;

    GpuMachine warm(testGpu(), 5);
    warm.buildImage(42, k);
    ASSERT_TRUE(warm.hasImage(42));
    EXPECT_EQ(warm.run(k, {4, 128}, 2, 42).thread_cycles, want);
    // Replaying the image again stays identical, including at a
    // different launch geometry (decoding is geometry-independent).
    warm.reseed(5);
    EXPECT_EQ(warm.run(k, {4, 128}, 2, 42).thread_cycles, want);
    GpuMachine cold2(testGpu(), 5);
    EXPECT_EQ(warm.run(k, {2, 64}, 2, 42).thread_cycles.size(),
              cold2.run(k, {2, 64}, 2).thread_cycles.size());
}

TEST(GpuMachineImage, CloneFromDoesNotChangeResults)
{
    const GpuKernel k = imageTestKernel();
    GpuMachine tmpl(testGpu(), 3);
    tmpl.run(k, {4, 128}, 2);

    GpuMachine cloned(testGpu(), 3);
    cloned.cloneFrom(tmpl);
    GpuMachine fresh(testGpu(), 3);
    EXPECT_EQ(cloned.run(k, {4, 128}, 2).thread_cycles,
              fresh.run(k, {4, 128}, 2).thread_cycles);
}

// ------------------------------------------------- L2 atomic units

/** The per-lane definition of the grouping: lane i's unit is the
 * 32-byte sector of addr0 + i * step modulo the unit count. */
std::vector<std::uint32_t>
perLaneUnitHistogram(std::uint64_t addr0, std::uint64_t step, int lanes,
                     std::uint32_t units)
{
    std::vector<std::uint32_t> hist(units, 0);
    for (int lane = 0; lane < lanes; ++lane)
        ++hist[((addr0 + static_cast<std::uint64_t>(lane) * step) >> 5) %
               units];
    return hist;
}

/** One random per-thread atomic shape: 1..32 lanes, stride 1..64 of
 * a 4- or 8-byte element, lane 0 anywhere below 2^40. */
struct UnitCase
{
    std::uint64_t addr0;
    std::uint64_t step;
    int lanes;
};

UnitCase
randomUnitCase(Pcg32 &rng)
{
    const std::uint64_t esize = rng.below(2) ? 8 : 4;
    const std::uint64_t stride = 1 + rng.below(64);
    return {(std::uint64_t{rng()} << 8) | rng.below(256),
            stride * esize, 1 + static_cast<int>(rng.below(32))};
}

constexpr std::uint32_t unit_counts[] = {1, 16, 32, 40, 48};

TEST(GpuAtomicUnits, SectorRunsMatchPerLaneDefinition)
{
    Pcg32 rng(7, 3);
    int unaligned = 0;
    for (const std::uint32_t units : unit_counts) {
        for (int trial = 0; trial < 400; ++trial) {
            const UnitCase c = randomUnitCase(rng);
            SCOPED_TRACE(testing::Message()
                         << "units " << units << " addr0 " << c.addr0
                         << " step " << c.step << " lanes " << c.lanes);
            unaligned += (c.addr0 & 31) != 0;
            std::vector<std::uint32_t> hist(units, 0);
            forEachSectorRun(c.addr0, c.step, c.lanes, units,
                             [&](std::uint32_t unit, std::uint32_t n) {
                ASSERT_LT(unit, units);
                ASSERT_GT(n, 0u);
                hist[unit] += n;
            });
            EXPECT_EQ(hist,
                      perLaneUnitHistogram(c.addr0, c.step, c.lanes, units));
        }
    }
    EXPECT_GT(unaligned, 0);
}

TEST(GpuAtomicUnits, DecodedTableMatchesPerLaneDefinition)
{
    Pcg32 rng(11, 3);
    for (const std::uint32_t units : unit_counts) {
        // Tables are appended one slice per op into a shared array.
        std::vector<UnitShare> table = {{units - 1, 5}};
        for (int trial = 0; trial < 400; ++trial) {
            UnitCase c = randomUnitCase(rng);
            c.addr0 &= ~std::uint64_t{31};
            SCOPED_TRACE(testing::Message()
                         << "units " << units << " addr0 " << c.addr0
                         << " step " << c.step << " lanes " << c.lanes);
            const std::size_t at = table.size();
            const std::uint32_t n =
                appendUnitTable(c.step, c.lanes, units, table);
            ASSERT_EQ(table.size(), at + n);
            const std::span<const UnitShare> slice(table.data() + at, n);
            // One share per distinct unit.
            std::vector<std::uint32_t> seen;
            for (const UnitShare &share : slice)
                seen.push_back(share.unit);
            std::sort(seen.begin(), seen.end());
            EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()),
                      seen.end());

            std::vector<std::uint32_t> hist(units, 0);
            forEachTableShare(slice, c.addr0, units,
                              [&](std::uint32_t unit, std::uint32_t lanes) {
                ASSERT_LT(unit, units);
                hist[unit] += lanes;
            });
            EXPECT_EQ(hist,
                      perLaneUnitHistogram(c.addr0, c.step, c.lanes, units));
        }
    }
}

// ------------------------------------------------ closed-form oracles

/** The paper's three GPUs: 16, 40 and 48 L2 atomic units. */
const std::array<GpuConfig, 3> &
gpuPresets()
{
    static const std::array<GpuConfig, 3> presets = {
        GpuConfig::rtx2070Super(), GpuConfig::a100(),
        GpuConfig::rtx4090()};
    return presets;
}

/** Timed cycles of one warp of @p threads lanes running @p op once on
 * a fresh machine, with no warmup: the op starts on an idle SM at the
 * timed region's first tick. */
long long
oneOpCycles(const GpuConfig &cfg, const GpuOp &op, int threads = 32)
{
    GpuMachine machine(cfg);
    const auto r = machine.run(bodyKernel({op}, 1), {1, threads}, 0);
    return static_cast<long long>(r.thread_cycles.at(0));
}

/** The fire-and-forget finish: posting done at @p posted, the warp
 * may run ahead of its last service point @p served by ff_window. */
long long
fireAndForget(const GpuConfig &cfg, long long posted, long long served)
{
    return std::max(posted, served - static_cast<long long>(cfg.ff_window));
}

/** One PerThread atomic of @p lanes lanes on an idle machine: issue,
 * lanes x lsu_ii of posting, the busiest unit's lanes x unit_ii of
 * service, then the round trip (CAS) or the fire-and-forget window. */
long long
perThreadAtomicCost(const GpuConfig &cfg, AtomicOp aop, DataType t,
                    int stride, std::uint64_t base, int lanes)
{
    const auto hist = perLaneUnitHistogram(
        base, static_cast<std::uint64_t>(stride) * dataTypeSize(t), lanes,
        static_cast<std::uint32_t>(cfg.l2_atomic_units));
    const long long busiest = *std::max_element(hist.begin(), hist.end());
    const long long posted = static_cast<long long>(cfg.issue_ii) +
                             lanes * static_cast<long long>(cfg.lsu_ii);
    const long long served =
        posted + busiest * static_cast<long long>(cfg.unitIi(t));
    return aop == AtomicOp::Cas
               ? served + static_cast<long long>(cfg.atomic_rt)
               : fireAndForget(cfg, posted, served);
}

TEST(GpuOracle, PerThreadAtomicCostsIssuePostServiceAndReturn)
{
    // Full and partial warps, with lane 0 on and off a sector
    // boundary.
    struct Shape
    {
        std::uint64_t base;
        int lanes;
    };
    constexpr Shape shapes[] = {
        {0x100000, 32}, {0x100014, 32}, {0x100000, 20}, {0x100014, 20}};
    for (const GpuConfig &cfg : gpuPresets()) {
        for (const DataType t : all_data_types) {
            for (const int stride : {1, 8, 32}) {
                for (const AtomicOp aop : {AtomicOp::Add, AtomicOp::Cas}) {
                    for (const Shape &sh : shapes) {
                        EXPECT_EQ(
                            oneOpCycles(cfg,
                                        GpuOp::globalAtomic(
                                            aop, AddressMode::PerThread,
                                            sh.base, t, stride),
                                        sh.lanes),
                            perThreadAtomicCost(cfg, aop, t, stride,
                                                sh.base, sh.lanes))
                            << cfg.name << " " << dataTypeName(t)
                            << " stride " << stride << " cas "
                            << (aop == AtomicOp::Cas) << " base "
                            << sh.base << " lanes " << sh.lanes;
                    }
                }
            }
        }
    }
}

TEST(GpuOracle, AtomicChainMatchesPerLaneReservations)
{
    // With an unbounded fire-and-forget window every atomicAdd retires
    // at posting and leaves its unit reservations behind, so the
    // closing atomicCAS waits on exactly which units the chain before
    // it reserved: the per-lane model, one reservation per lane.
    Pcg32 rng(13, 3);
    for (GpuConfig cfg : gpuPresets()) {
        cfg.ff_window = 1'000'000'000;
        const auto units = static_cast<std::uint32_t>(cfg.l2_atomic_units);
        for (int trial = 0; trial < 100; ++trial) {
            const int lanes =
                rng.below(2) ? 32 : 1 + static_cast<int>(rng.below(32));
            const int n = 2 + static_cast<int>(rng.below(4));
            std::vector<GpuOp> body;
            for (int i = 0; i < n; ++i) {
                body.push_back(GpuOp::globalAtomic(
                    i + 1 < n ? AtomicOp::Add : AtomicOp::Cas,
                    AddressMode::PerThread,
                    0x100000 + rng.below(4) * 0x100 +
                        (rng.below(2) ? 0 : rng.below(32)),
                    all_data_types[rng.below(4)],
                    1 + static_cast<int>(rng.below(64))));
            }

            std::vector<Tick> unit_free(units, 0);
            Tick t = 0, sched = 0, lsu = 0;
            for (const GpuOp &op : body) {
                sched = std::max(t, sched) + cfg.issue_ii;
                lsu = std::max(sched, lsu) +
                      static_cast<Tick>(lanes) * cfg.lsu_ii;
                Tick served = lsu;
                const std::uint64_t step =
                    static_cast<std::uint64_t>(op.stride) *
                    dataTypeSize(op.dtype);
                for (int lane = 0; lane < lanes; ++lane) {
                    Tick &free = unit_free[((op.base_addr +
                                             static_cast<std::uint64_t>(
                                                 lane) * step) >> 5) %
                                           units];
                    free = std::max(lsu, free) + cfg.unitIi(op.dtype);
                    served = std::max(served, free);
                }
                t = op.aop == AtomicOp::Cas ? served + cfg.atomic_rt : lsu;
            }
            SCOPED_TRACE(testing::Message()
                         << cfg.name << " trial " << trial);
            GpuMachine machine(cfg);
            EXPECT_EQ(machine.run(bodyKernel(body, 1), {1, lanes}, 0)
                          .thread_cycles.at(0),
                      t);
        }
    }
}

TEST(GpuOracle, SingleLaneSameAddressAtomicCostsItsLatency)
{
    for (const GpuConfig &cfg : gpuPresets()) {
        for (const DataType t : all_data_types) {
            SCOPED_TRACE(testing::Message()
                         << cfg.name << " " << dataTypeName(t));
            const long long posted =
                static_cast<long long>(cfg.issue_ii + cfg.lsu_ii);
            EXPECT_EQ(oneOpCycles(cfg,
                                  GpuOp::globalAtomic(
                                      AtomicOp::Add,
                                      AddressMode::SingleShared, 0x1000, t),
                                  1),
                      fireAndForget(cfg, posted,
                                    posted + static_cast<long long>(
                                                 cfg.addrIi(t))));
            EXPECT_EQ(oneOpCycles(cfg,
                                  GpuOp::globalAtomic(
                                      AtomicOp::Cas,
                                      AddressMode::SingleShared, 0x1000, t),
                                  1),
                      posted + static_cast<long long>(cfg.cas_group_ii +
                                                      cfg.atomic_rt));
        }
    }
}

TEST(GpuOracle, LoadStoreAndFencesCostTheirLatencies)
{
    for (const GpuConfig &cfg : gpuPresets()) {
        SCOPED_TRACE(cfg.name);
        // A full warp of 4-byte lanes moves 128 bytes: four sectors.
        const long long posted =
            static_cast<long long>(cfg.issue_ii + 4 * cfg.lsu_ii);
        EXPECT_EQ(oneOpCycles(cfg, GpuOp::globalLoad(0x100000)),
                  posted + static_cast<long long>(cfg.mem_rt));
        EXPECT_EQ(oneOpCycles(cfg, GpuOp::globalStore(0x100000)), posted);
        EXPECT_EQ(oneOpCycles(cfg, GpuOp::fence(FenceScope::Block)),
                  static_cast<long long>(cfg.issue_ii + cfg.fence_block));
        EXPECT_EQ(oneOpCycles(cfg, GpuOp::fence(FenceScope::Device)),
                  static_cast<long long>(cfg.issue_ii + cfg.fence_lsu_drain +
                                         cfg.fence_device));
    }
}

} // namespace
} // namespace syncperf::gpusim
