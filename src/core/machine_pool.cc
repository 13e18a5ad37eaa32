/**
 * @file
 * Implementation of the warm-start machine pool.
 */

#include "machine_pool.hh"

#include "common/logging.hh"
#include "common/metrics.hh"
#include "core/manifest.hh"

namespace syncperf::core
{

MachinePool &
MachinePool::global()
{
    static MachinePool instance;
    return instance;
}

void
MachinePool::configure(Config cfg)
{
    SYNCPERF_ASSERT(cfg.snapshot_dir.empty(),
                    "the machine pool keeps no on-disk images");
    std::lock_guard lock(mutex_);
    cfg_ = std::move(cfg);
}

MachinePool::Config
MachinePool::config() const
{
    std::lock_guard lock(mutex_);
    return cfg_;
}

bool
MachinePool::enabled() const
{
    std::lock_guard lock(mutex_);
    return cfg_.enabled;
}

void
MachinePool::reset()
{
    std::lock_guard lock(mutex_);
    cpu_slots_.clear();
    gpu_slots_.clear();
}

void
MachinePool::CpuLease::release()
{
    if (!machine_)
        return;
    if (pooled_)
        MachinePool::global().releaseCpu(key_, std::move(machine_));
    machine_.reset();
    pooled_ = false;
}

void
MachinePool::GpuLease::release()
{
    if (!machine_)
        return;
    if (pooled_)
        MachinePool::global().releaseGpu(key_, std::move(machine_));
    machine_.reset();
    pooled_ = false;
}

MachinePool::CpuLease
MachinePool::acquireCpu(const cpusim::CpuConfig &cfg, Affinity affinity,
                        bool use_pool)
{
    const std::uint64_t key = ConfigHasher{}
                                  .add(hashCpuConfig(cfg))
                                  .add(static_cast<int>(affinity))
                                  .digest();
    CpuLease lease;
    lease.key_ = key;
    std::lock_guard lock(mutex_);
    lease.pooled_ = use_pool && cfg_.enabled;
    if (lease.pooled_) {
        auto &slot = cpu_slots_[key];
        if (!slot.idle.empty()) {
            lease.machine_ = std::move(slot.idle.back());
            slot.idle.pop_back();
            // A lease always starts with no decoded images: what a
            // machine carries depends only on the experiment run on
            // it, never on which machine the pool happened to hand
            // out (the counters' --jobs invariance).
            lease.machine_->clearImages();
            return lease;
        }
    }
    lease.machine_ = std::make_unique<cpusim::CpuMachine>(cfg, affinity);
    if (lease.pooled_) {
        const auto it = cpu_slots_.find(key);
        if (it != cpu_slots_.end() && it->second.tmpl)
            lease.machine_->cloneFrom(*it->second.tmpl);
    }
    return lease;
}

MachinePool::GpuLease
MachinePool::acquireGpu(const gpusim::GpuConfig &cfg, bool use_pool)
{
    const std::uint64_t key = hashGpuConfig(cfg);
    GpuLease lease;
    lease.key_ = key;
    std::lock_guard lock(mutex_);
    lease.pooled_ = use_pool && cfg_.enabled;
    if (lease.pooled_) {
        auto &slot = gpu_slots_[key];
        if (!slot.idle.empty()) {
            lease.machine_ = std::move(slot.idle.back());
            slot.idle.pop_back();
            lease.machine_->clearImages();
            return lease;
        }
    }
    lease.machine_ = std::make_unique<gpusim::GpuMachine>(cfg);
    if (lease.pooled_) {
        const auto it = gpu_slots_.find(key);
        if (it != gpu_slots_.end() && it->second.tmpl)
            lease.machine_->cloneFrom(*it->second.tmpl);
    }
    return lease;
}

void
MachinePool::releaseCpu(std::uint64_t key,
                        std::unique_ptr<cpusim::CpuMachine> machine)
{
    machine->clearImages();
    std::lock_guard lock(mutex_);
    if (!cfg_.enabled)
        return; // pool disabled since the lease: just destroy
    auto &slot = cpu_slots_[key];
    if (!slot.tmpl)
        slot.tmpl = std::move(machine);
    else
        slot.idle.push_back(std::move(machine));
}

void
MachinePool::releaseGpu(std::uint64_t key,
                        std::unique_ptr<gpusim::GpuMachine> machine)
{
    machine->clearImages();
    std::lock_guard lock(mutex_);
    if (!cfg_.enabled)
        return;
    auto &slot = gpu_slots_[key];
    if (!slot.tmpl)
        slot.tmpl = std::move(machine);
    else
        slot.idle.push_back(std::move(machine));
}

void
MachinePool::materializeCpu(
    cpusim::CpuMachine &machine, std::uint64_t key,
    const std::vector<cpusim::CpuProgram> &programs)
{
    machine.buildImage(key, programs);
    metrics::add(metrics::Counter::PoolColdBuilds);
}

void
MachinePool::materializeGpu(gpusim::GpuMachine &machine,
                            std::uint64_t key,
                            const gpusim::GpuKernel &kernel)
{
    machine.buildImage(key, kernel);
    metrics::add(metrics::Counter::PoolColdBuilds);
}

std::uint64_t
MachinePool::hashCpuConfig(const cpusim::CpuConfig &cfg)
{
    // Every field: two configs that decode differently -- or time
    // differently at all -- must never share an image key.
    ConfigHasher h;
    h.add(cfg.name)
        .add(cfg.sockets)
        .add(cfg.cores_per_socket)
        .add(cfg.threads_per_core)
        .add(cfg.numa_nodes)
        .add(cfg.base_clock_ghz)
        .add(cfg.cores_per_complex)
        .add(cfg.cache_line_bytes)
        .add(cfg.l1_hit_latency)
        .add(cfg.local_transfer)
        .add(cfg.remote_transfer)
        .add(cfg.line_occupancy)
        .add(cfg.coherence_point_ii)
        .add(cfg.issue_cycles)
        .add(cfg.alu_int_rmw)
        .add(cfg.alu_fp_rmw)
        .add(cfg.plain_alu)
        .add(cfg.fence_drain)
        .add(cfg.barrier_base)
        .add(cfg.barrier_arrival)
        .add(cfg.barrier_spin_budget)
        .add(cfg.barrier_futex_wake)
        .add(cfg.barrier_wake_stagger)
        .add(static_cast<int>(cfg.barrier_algorithm))
        .add(cfg.barrier_tree_fanin)
        .add(cfg.barrier_tree_level)
        .add(cfg.barrier_dissem_round)
        .add(static_cast<int>(cfg.lock_algorithm))
        .add(cfg.lock_handoff)
        .add(cfg.lock_tas_retry)
        .add(cfg.lock_broadcast)
        .add(cfg.jitter_frac);
    return h.digest();
}

std::uint64_t
MachinePool::hashGpuConfig(const gpusim::GpuConfig &cfg)
{
    ConfigHasher h;
    h.add(cfg.name)
        .add(cfg.clock_ghz)
        .add(cfg.sm_count)
        .add(cfg.max_threads_per_sm)
        .add(cfg.cuda_cores_per_sm)
        .add(cfg.compute_capability)
        .add(cfg.max_threads_per_block)
        .add(cfg.max_blocks_per_sm)
        .add(cfg.warp_size)
        .add(cfg.schedulers_per_sm)
        .add(cfg.issue_ii)
        .add(cfg.alu_latency)
        .add(cfg.syncwarp_latency)
        .add(cfg.shfl_latency)
        .add(cfg.vote_latency)
        .add(cfg.reduce_latency)
        .add(cfg.reduce_occupancy)
        .add(cfg.syncthreads_base)
        .add(cfg.syncthreads_per_warp)
        .add(cfg.lsu_ii)
        .add(cfg.mem_rt)
        .add(cfg.mem_bytes_per_cycle)
        .add(cfg.atomic_rt)
        .add(cfg.ff_window)
        .add(static_cast<int>(cfg.enable_warp_aggregation))
        .add(cfg.addr_ii_int)
        .add(cfg.addr_ii_ull)
        .add(cfg.addr_ii_fp)
        .add(cfg.sm_atomic_depth)
        .add(cfg.l2_atomic_units)
        .add(cfg.unit_ii_int)
        .add(cfg.unit_ii_ull)
        .add(cfg.unit_ii_fp)
        .add(cfg.sm_gate_int)
        .add(cfg.sm_gate_ull)
        .add(cfg.sm_gate_fp)
        .add(cfg.cas_pipeline_lanes)
        .add(cfg.cas_group_ii)
        .add(cfg.fence_device)
        .add(cfg.fence_lsu_drain)
        .add(cfg.fence_block)
        .add(cfg.fence_system)
        .add(cfg.fence_system_jitter)
        .add(cfg.smem_addr_ii)
        .add(cfg.smem_ii)
        .add(cfg.smem_rt)
        .add(cfg.smem_ff_window)
        .add(cfg.grid_sync_base)
        .add(cfg.grid_sync_per_block)
        .add(cfg.block_launch_overhead);
    return h.digest();
}

} // namespace syncperf::core
