/**
 * @file
 * Kernel IR executed by the GPU machine.
 *
 * Kernels are expressed as short per-thread operation sequences,
 * executed warp-synchronously. A kernel has an optional prologue
 * (once per thread), a body repeated body_iters times (the timed
 * inner loop of the paper's Listing 3, or the data loop of the
 * reduction examples), and an optional epilogue (once per thread,
 * e.g. the final global atomic of a block reduction).
 */

#ifndef SYNCPERF_GPUSIM_KERNEL_HH
#define SYNCPERF_GPUSIM_KERNEL_HH

#include <cstdint>
#include <vector>

#include "common/dtype.hh"

namespace syncperf::gpusim
{

/** Operation kinds understood by the GPU machine. */
enum class GpuOpKind
{
    Alu,          ///< dependent arithmetic
    GlobalLoad,   ///< coalesced load from global memory
    GlobalStore,  ///< coalesced store to global memory (fire and forget)
    GlobalAtomic, ///< atomic to global memory
    SharedAtomic, ///< block-scoped atomic in shared memory
    SyncThreads,  ///< __syncthreads()
    SyncWarp,     ///< __syncwarp()
    GridSync,     ///< cooperative_groups::this_grid().sync()
    Shfl,         ///< __shfl_*_sync() (two micro-ops for 64-bit types)
    Vote,         ///< __any/__all/__ballot_sync()
    ReduceSync,   ///< __reduce_*_sync() (cc >= 8.0)
    Fence,        ///< __threadfence*()
    DivergentAlu, ///< branchy arithmetic: the warp serializes paths
};

/** Atomic operations the machine distinguishes for timing. */
enum class AtomicOp
{
    Add,  ///< atomicAdd (warp-aggregatable on a single address)
    Max,  ///< atomicMax (reduction-style, aggregatable)
    Cas,  ///< atomicCAS (value-returning, never aggregated)
    Exch, ///< atomicExch (value-returning, never aggregated)
};

/** Where an op's lanes point. */
enum class AddressMode
{
    SingleShared, ///< every thread targets one global variable
    PerThread,    ///< base + global_tid * stride elements
    PerBlock,     ///< one variable per block (e.g. block_result)
};

/** __threadfence scope variants. */
enum class FenceScope
{
    Block,
    Device,
    System,
};

/** Which lanes execute an op. */
enum class Predicate
{
    All,           ///< every thread
    Lane0,         ///< one lane per warp (if (lane == 0) ...)
    Thread0,       ///< one thread per block (if (threadIdx.x == 0) ...)
};

/** One operation. */
struct GpuOp
{
    GpuOpKind kind = GpuOpKind::Alu;
    AtomicOp aop = AtomicOp::Add;
    DataType dtype = DataType::Int32;
    AddressMode amode = AddressMode::SingleShared;
    FenceScope scope = FenceScope::Device;
    Predicate pred = Predicate::All;
    int stride = 1;                ///< elements, for PerThread
    std::uint64_t base_addr = 0;   ///< distinguishes variables/arrays
    int repeat = 1;                ///< issue the op this many times
    int diverge_paths = 1;         ///< serialized branch paths (SIMT)

    // --- Convenience factories -----------------------------------
    static GpuOp
    alu(int repeat = 1)
    {
        GpuOp op;
        op.kind = GpuOpKind::Alu;
        op.repeat = repeat;
        return op;
    }

    static GpuOp
    globalLoad(std::uint64_t base, DataType t = DataType::Int32,
               int stride = 1)
    {
        GpuOp op;
        op.kind = GpuOpKind::GlobalLoad;
        op.dtype = t;
        op.amode = AddressMode::PerThread;
        op.base_addr = base;
        op.stride = stride;
        return op;
    }

    static GpuOp
    globalStore(std::uint64_t base, DataType t = DataType::Int32,
                int stride = 1)
    {
        GpuOp op;
        op.kind = GpuOpKind::GlobalStore;
        op.dtype = t;
        op.amode = AddressMode::PerThread;
        op.base_addr = base;
        op.stride = stride;
        return op;
    }

    static GpuOp
    globalAtomic(AtomicOp aop, AddressMode amode, std::uint64_t base,
                 DataType t = DataType::Int32, int stride = 1,
                 Predicate pred = Predicate::All)
    {
        GpuOp op;
        op.kind = GpuOpKind::GlobalAtomic;
        op.aop = aop;
        op.amode = amode;
        op.base_addr = base;
        op.dtype = t;
        op.stride = stride;
        op.pred = pred;
        return op;
    }

    static GpuOp
    sharedAtomic(AtomicOp aop, std::uint64_t base,
                 DataType t = DataType::Int32,
                 Predicate pred = Predicate::All)
    {
        GpuOp op;
        op.kind = GpuOpKind::SharedAtomic;
        op.aop = aop;
        op.amode = AddressMode::PerBlock;
        op.base_addr = base;
        op.dtype = t;
        op.pred = pred;
        return op;
    }

    static GpuOp
    syncThreads()
    {
        GpuOp op;
        op.kind = GpuOpKind::SyncThreads;
        return op;
    }

    static GpuOp
    syncWarp()
    {
        GpuOp op;
        op.kind = GpuOpKind::SyncWarp;
        return op;
    }

    static GpuOp
    gridSync()
    {
        GpuOp op;
        op.kind = GpuOpKind::GridSync;
        return op;
    }

    static GpuOp
    shfl(DataType t = DataType::Int32, int repeat = 1)
    {
        GpuOp op;
        op.kind = GpuOpKind::Shfl;
        op.dtype = t;
        op.repeat = repeat;
        return op;
    }

    static GpuOp
    vote()
    {
        GpuOp op;
        op.kind = GpuOpKind::Vote;
        return op;
    }

    static GpuOp
    reduceSync(DataType t = DataType::Int32)
    {
        GpuOp op;
        op.kind = GpuOpKind::ReduceSync;
        op.dtype = t;
        return op;
    }

    static GpuOp
    divergentAlu(int paths)
    {
        GpuOp op;
        op.kind = GpuOpKind::DivergentAlu;
        op.diverge_paths = paths;
        return op;
    }

    static GpuOp
    fence(FenceScope scope)
    {
        GpuOp op;
        op.kind = GpuOpKind::Fence;
        op.scope = scope;
        return op;
    }

    bool operator==(const GpuOp &) const = default;
};

/** A complete kernel. */
struct GpuKernel
{
    std::vector<GpuOp> prologue;
    std::vector<GpuOp> body;
    std::vector<GpuOp> epilogue;
    long body_iters = 1;

    bool operator==(const GpuKernel &) const = default;
};

/** Grid geometry of a launch. */
struct LaunchConfig
{
    int blocks = 1;
    int threads_per_block = 32;
};

} // namespace syncperf::gpusim

#endif // SYNCPERF_GPUSIM_KERNEL_HH
