/**
 * @file
 * Thread-program IR interpreted by the CPU machine.
 *
 * A program is one inner-loop iteration of the paper's measurement
 * template (Listing 2): the machine repeats the body a configured
 * number of times, preceded by warmup iterations and an alignment
 * barrier, mirroring the template's structure.
 */

#ifndef SYNCPERF_CPUSIM_PROGRAM_HH
#define SYNCPERF_CPUSIM_PROGRAM_HH

#include <cstdint>
#include <vector>

#include "common/dtype.hh"

namespace syncperf::cpusim
{

/** Operation kinds understood by the CPU machine. */
enum class CpuOpKind
{
    Load,         ///< plain load
    Store,        ///< plain store
    AtomicLoad,   ///< #pragma omp atomic read
    AtomicStore,  ///< #pragma omp atomic write
    AtomicRmw,    ///< #pragma omp atomic update / capture
    Fence,        ///< #pragma omp flush
    Barrier,      ///< #pragma omp barrier (team wide)
    LockAcquire,  ///< enter critical section
    LockRelease,  ///< leave critical section
    Alu,          ///< private arithmetic
};

/** One operation. Addresses are flat simulated byte addresses. */
struct CpuOp
{
    CpuOpKind kind = CpuOpKind::Alu;
    std::uint64_t addr = 0;
    DataType dtype = DataType::Int32;
    int lock_id = 0;

    bool operator==(const CpuOp &) const = default;
};

/** One software thread's repeated inner-loop body. */
struct CpuProgram
{
    std::vector<CpuOp> body;
    long iterations = 1;   ///< timed repetitions of the body

    bool operator==(const CpuProgram &) const = default;
};

} // namespace syncperf::cpusim

#endif // SYNCPERF_CPUSIM_PROGRAM_HH
