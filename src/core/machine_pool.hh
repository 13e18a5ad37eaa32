/**
 * @file
 * Process-wide pool of warmed simulator machines and the decoded-
 * image materialization layer behind the warm-start fast path
 * (docs/performance.md, "Warm-start machine pool").
 *
 * Targets lease machines instead of constructing them: a lease
 * hands out an idle machine of the same (config, placement) pool
 * key when one is available -- its event-queue slab, container
 * capacities, and hash tables already sized by earlier experiments
 * -- and otherwise constructs a fresh machine that adopts the warm
 * capacity of the pool's template via Machine::cloneFrom(). Every
 * lease starts with an empty decoded-image map (clearImages()), so
 * which images a machine carries depends only on the experiment
 * running on it, never on lease scheduling; that is what keeps the
 * pool_clones / pool_cold_builds counters --jobs-invariant.
 *
 * materializeCpu()/materializeGpu() decode the program set or
 * kernel for a key into a leased machine's image map and count the
 * decode in pool_cold_builds.
 */

#ifndef SYNCPERF_CORE_MACHINE_POOL_HH
#define SYNCPERF_CORE_MACHINE_POOL_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cpusim/machine.hh"
#include "gpusim/machine.hh"

namespace syncperf::core
{

class MachinePool
{
  public:
    struct Config
    {
        /** Lease/reuse machines at all (--no-machine-pool clears). */
        bool enabled = true;

        /**
         * Unused, and must stay empty: configure() panics on any
         * other value. The field remains only because the benchmark
         * driver (perfbench/driver.cc) builds this struct as
         * Config{enabled, ""}; drop it together with that call.
         */
        std::string snapshot_dir;
    };

    /** The process-wide pool. */
    static MachinePool &global();

    /** Replace the pool configuration (campaign CLI). Panics when
     * cfg.snapshot_dir is non-empty. */
    void configure(Config cfg);

    Config config() const;
    bool enabled() const;

    /**
     * Drop every idle machine and template. Called
     * at campaign start so back-to-back campaigns in one process
     * (tests) observe the same cold pool a fresh process would.
     */
    void reset();

    /**
     * RAII handle on a leased machine. The machine returns to the
     * pool on destruction (or is simply destroyed when pooling was
     * bypassed). Movable, not copyable.
     */
    class CpuLease
    {
      public:
        CpuLease() = default;
        CpuLease(CpuLease &&) noexcept = default;
        CpuLease &operator=(CpuLease &&other) noexcept
        {
            release();
            machine_ = std::move(other.machine_);
            key_ = other.key_;
            pooled_ = std::exchange(other.pooled_, false);
            return *this;
        }
        CpuLease(const CpuLease &) = delete;
        CpuLease &operator=(const CpuLease &) = delete;
        ~CpuLease() { release(); }

        explicit operator bool() const { return machine_ != nullptr; }
        cpusim::CpuMachine &operator*() { return *machine_; }
        cpusim::CpuMachine *operator->() { return machine_.get(); }

      private:
        friend class MachinePool;
        void release();

        std::unique_ptr<cpusim::CpuMachine> machine_;
        std::uint64_t key_ = 0;
        bool pooled_ = false;
    };

    class GpuLease
    {
      public:
        GpuLease() = default;
        GpuLease(GpuLease &&) noexcept = default;
        GpuLease &operator=(GpuLease &&other) noexcept
        {
            release();
            machine_ = std::move(other.machine_);
            key_ = other.key_;
            pooled_ = std::exchange(other.pooled_, false);
            return *this;
        }
        GpuLease(const GpuLease &) = delete;
        GpuLease &operator=(const GpuLease &) = delete;
        ~GpuLease() { release(); }

        explicit operator bool() const { return machine_ != nullptr; }
        gpusim::GpuMachine &operator*() { return *machine_; }
        gpusim::GpuMachine *operator->() { return machine_.get(); }

      private:
        friend class MachinePool;
        void release();

        std::unique_ptr<gpusim::GpuMachine> machine_;
        std::uint64_t key_ = 0;
        bool pooled_ = false;
    };

    /**
     * Lease a machine for (cfg, affinity). @p use_pool false (the
     * protocol's machine_pool knob) bypasses reuse entirely: the
     * lease owns a cold machine and destroys it on release.
     */
    CpuLease acquireCpu(const cpusim::CpuConfig &cfg, Affinity affinity,
                        bool use_pool = true);

    /** GPU flavor of acquireCpu (no placement dimension). */
    GpuLease acquireGpu(const gpusim::GpuConfig &cfg,
                        bool use_pool = true);

    /** Decode @p programs into @p machine's image for @p key. */
    void materializeCpu(cpusim::CpuMachine &machine, std::uint64_t key,
                        const std::vector<cpusim::CpuProgram> &programs);

    void materializeGpu(gpusim::GpuMachine &machine, std::uint64_t key,
                        const gpusim::GpuKernel &kernel);

    /** Digest of every CpuConfig field (image/pool key ingredient). */
    static std::uint64_t hashCpuConfig(const cpusim::CpuConfig &cfg);

    /** Digest of every GpuConfig field (image/pool key ingredient). */
    static std::uint64_t hashGpuConfig(const gpusim::GpuConfig &cfg);

  private:
    struct CpuSlot
    {
        /** First machine released under this key: kept forever as
         * the warm-capacity template, never leased again. */
        std::unique_ptr<cpusim::CpuMachine> tmpl;
        std::vector<std::unique_ptr<cpusim::CpuMachine>> idle;
    };
    struct GpuSlot
    {
        std::unique_ptr<gpusim::GpuMachine> tmpl;
        std::vector<std::unique_ptr<gpusim::GpuMachine>> idle;
    };

    void releaseCpu(std::uint64_t key,
                    std::unique_ptr<cpusim::CpuMachine> machine);
    void releaseGpu(std::uint64_t key,
                    std::unique_ptr<gpusim::GpuMachine> machine);

    mutable std::mutex mutex_;
    Config cfg_;
    std::unordered_map<std::uint64_t, CpuSlot> cpu_slots_;
    std::unordered_map<std::uint64_t, GpuSlot> gpu_slots_;
};

} // namespace syncperf::core

#endif // SYNCPERF_CORE_MACHINE_POOL_HH
