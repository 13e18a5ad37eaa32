/**
 * @file
 * Implementation of the SIMT GPU timing machine.
 */

#include "machine.hh"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/logging.hh"

namespace syncperf::gpusim
{
namespace
{

/** Pcg32 stream selector for the GPU jitter model. */
constexpr std::uint64_t rng_stream = 0xb5ad4eceda1ce2a9ULL;

/** Composite key for per-SM per-line gating. */
std::uint64_t
smLineKey(int sm, std::uint64_t line)
{
    return (static_cast<std::uint64_t>(sm) << 44) ^ line;
}

/** 32-byte sector granularity used by the L2 atomic path. */
constexpr std::uint64_t sector_shift = 5;

/** Upper bound on lanes per warp for stack-local sector grouping. */
constexpr int max_lanes = 64;

} // namespace

GpuMachine::GpuMachine(GpuConfig cfg, std::uint64_t seed)
    : cfg_(std::move(cfg)), rng_(seed, rng_stream)
{
}

void
GpuMachine::reseed(std::uint64_t seed)
{
    rng_ = Pcg32(seed, rng_stream);
}

Tick
GpuMachine::issueThrough(WarpCtx &warp, Tick ready, int uops)
{
    Tick &slot = st_.sched_free[warp.sm * cfg_.schedulers_per_sm + warp.sched];
    const Tick start = std::max(ready, slot);
    slot = start + static_cast<Tick>(uops) * cfg_.issue_ii;
    return slot;
}

Tick
GpuMachine::gateDelay(DataType t) const
{
    switch (t) {
      case DataType::Int32: return cfg_.sm_gate_int;
      case DataType::UInt64: return cfg_.sm_gate_ull;
      default: return cfg_.sm_gate_fp;
    }
}

int
GpuMachine::activeLanes(const WarpCtx &warp, const DecodedGpuOp &op) const
{
    switch (op.pred) {
      case Predicate::All:
        return warp.lanes;
      case Predicate::Lane0:
        return 1;
      case Predicate::Thread0:
        return warp.warp_in_block == 0 ? 1 : 0;
    }
    return warp.lanes;
}

std::uint64_t
GpuMachine::resolveAddr(const WarpCtx &warp, const DecodedGpuOp &op,
                        int lane) const
{
    switch (op.amode) {
      case AddressMode::SingleShared:
        return op.base_addr;
      case AddressMode::PerThread:
        return op.base_addr +
               static_cast<std::uint64_t>(warp.first_tid + lane) *
                   op.stride * op.esize;
      case AddressMode::PerBlock:
        // One variable per block, padded to separate sectors.
        return op.base_addr +
               static_cast<std::uint64_t>(warp.block) * 128;
    }
    return op.base_addr;
}

void
GpuMachine::execAlu(int warp_id, const DecodedGpuOp &op, Tick now)
{
    finishOp(warp_id, issueThrough(st_.warps[warp_id], now) + op.lat);
}

void
GpuMachine::execDivergentAlu(int warp_id, const DecodedGpuOp &op,
                             Tick now)
{
    // SIMT divergence: the warp executes every taken path serially
    // (Bialas & Strzelecki: the cost per extra path is constant).
    // Each path issues and completes in turn; op.lat carries the
    // precomputed paths * alu_latency total.
    stats_.inc(sim::Probe::GpuDivergentPaths,
               static_cast<std::uint64_t>(op.uops));
    finishOp(warp_id,
             issueThrough(st_.warps[warp_id], now, op.uops) + op.lat);
}

void
GpuMachine::execSyncWarp(int warp_id, const DecodedGpuOp &op, Tick now)
{
    finishOp(warp_id, issueThrough(st_.warps[warp_id], now) + op.lat);
}

void
GpuMachine::execShfl(int warp_id, const DecodedGpuOp &op, Tick now)
{
    // Micro-ops pipeline: latency of the first plus one issue slot
    // per extra micro-op, but they occupy the scheduler for all
    // slots (this halves the 64-bit knee, Fig 15).
    stats_.inc(sim::Probe::GpuShflUops,
               static_cast<std::uint64_t>(op.uops));
    finishOp(warp_id,
             issueThrough(st_.warps[warp_id], now, op.uops) + op.lat);
}

void
GpuMachine::execVote(int warp_id, const DecodedGpuOp &op, Tick now)
{
    finishOp(warp_id, issueThrough(st_.warps[warp_id], now) + op.lat);
}

void
GpuMachine::execReduceSync(int warp_id, const DecodedGpuOp &, Tick now)
{
    WarpCtx &warp = st_.warps[warp_id];
    const Tick issued = issueThrough(warp, now);
    Tick &unit = st_.reduce_free[warp.sm];
    const Tick start = std::max(issued, unit);
    unit = start + cfg_.reduce_occupancy;
    stats_.inc(sim::Probe::GpuReduceSync);
    finishOp(warp_id, start + cfg_.reduce_latency);
}

void
GpuMachine::execFenceBlock(int warp_id, const DecodedGpuOp &op, Tick now)
{
    // Block scope only orders within the SM; pending stores are
    // already visible there, so the cost is tiny.
    stats_.inc(sim::Probe::GpuFence);
    finishOp(warp_id, issueThrough(st_.warps[warp_id], now) + op.lat);
}

void
GpuMachine::execFenceDevice(int warp_id, const DecodedGpuOp &op,
                            Tick now)
{
    // Draining the store path occupies the SM's LSU, so the cost is
    // not hidden behind other warps' traffic.
    WarpCtx &warp = st_.warps[warp_id];
    const Tick issued = issueThrough(warp, now);
    Tick &lsu = st_.lsu_free[warp.sm];
    lsu = std::max(lsu, issued) + cfg_.fence_lsu_drain;
    stats_.inc(sim::Probe::GpuFence);
    const Tick drained = std::max({issued, warp.last_store_commit, lsu});
    stats_.record(sim::HistProbe::GpuFenceStallTicks, drained - issued);
    finishOp(warp_id, drained + op.lat);
}

void
GpuMachine::execFenceSystem(int warp_id, const DecodedGpuOp &op,
                            Tick now)
{
    WarpCtx &warp = st_.warps[warp_id];
    const Tick issued = issueThrough(warp, now);
    Tick &lsu = st_.lsu_free[warp.sm];
    lsu = std::max(lsu, issued) + cfg_.fence_lsu_drain;
    stats_.inc(sim::Probe::GpuFence);
    const Tick drained = std::max({issued, warp.last_store_commit, lsu});
    stats_.record(sim::HistProbe::GpuFenceStallTicks, drained - issued);
    finishOp(warp_id,
             drained + op.lat +
                 rng_.below(static_cast<std::uint32_t>(
                     cfg_.fence_system_jitter + 1)));
}

void
GpuMachine::execGlobalLoad(int warp_id, const DecodedGpuOp &op, Tick now)
{
    WarpCtx &warp = st_.warps[warp_id];
    const Tick issued = issueThrough(warp, now);
    const int active = activeLanes(warp, op);
    if (active == 0) {
        finishOp(warp_id, issued);
        return;
    }
    const auto bytes =
        static_cast<std::uint64_t>(active) * op.esize * op.stride;
    const auto sectors = (bytes + 31) / 32;

    Tick &lsu = st_.lsu_free[warp.sm];
    const Tick post_start = std::max(issued, lsu);
    const Tick post_done = post_start + sectors * cfg_.lsu_ii;
    lsu = post_done;

    const Tick bw_start = std::max(post_done, st_.mem_bw_free);
    st_.mem_bw_free = bw_start + static_cast<Tick>(
        static_cast<double>(bytes) / cfg_.mem_bytes_per_cycle + 1.0);
    stats_.inc(sim::Probe::GpuLoadSectors, sectors);
    finishOp(warp_id, bw_start + cfg_.mem_rt);
}

void
GpuMachine::execGlobalStore(int warp_id, const DecodedGpuOp &op,
                            Tick now)
{
    // Stores retire into the LSU/store path; the warp does not wait
    // for memory (no data dependency).
    WarpCtx &warp = st_.warps[warp_id];
    const Tick issued = issueThrough(warp, now);
    const int active = activeLanes(warp, op);
    if (active == 0) {
        finishOp(warp_id, issued);
        return;
    }
    const auto bytes =
        static_cast<std::uint64_t>(active) * op.esize * op.stride;
    const auto sectors = (bytes + 31) / 32;
    Tick &lsu = st_.lsu_free[warp.sm];
    const Tick post_start = std::max(issued, lsu);
    lsu = post_start + sectors * cfg_.lsu_ii;
    const Tick bw_start = std::max(lsu, st_.mem_bw_free);
    st_.mem_bw_free = bw_start + static_cast<Tick>(
        static_cast<double>(bytes) / cfg_.mem_bytes_per_cycle + 1.0);
    // Commit (device-wide visibility at the L2) happens a fixed half
    // round trip after posting; a device fence must wait for it
    // (Fig 14). Deliberately decoupled from the DRAM bandwidth queue
    // so fence overhead stays flat under load, matching the paper's
    // measurements.
    warp.last_store_commit = lsu + cfg_.mem_rt / 2;
    stats_.inc(sim::Probe::GpuStoreSectors, sectors);
    finishOp(warp_id, lsu);
}

void
GpuMachine::execAtomicSameAddr(int warp_id, const DecodedGpuOp &op,
                               Tick now)
{
    WarpCtx &warp = st_.warps[warp_id];
    const Tick issued = issueThrough(warp, now);
    const int active = activeLanes(warp, op);
    if (active == 0) {
        finishOp(warp_id, issued);
        return;
    }

    Tick &lsu = st_.lsu_free[warp.sm];
    const std::uint64_t line = resolveAddr(warp, op, 0) >> sector_shift;
    GateSlots &gate = st_.sm_line_gate[smLineKey(warp.sm, line)];

    // Reduction-style op on one address: the JIT aggregates the
    // warp's lanes into a single request (Fig 9). The SM keeps
    // sm_atomic_depth such requests in flight; the next one stalls
    // the LSU until a slot frees up, which is the per-SM knee of
    // Fig 9.
    const int requests = op.aggregated ? 1 : active;
    if (op.aggregated)
        stats_.inc(sim::Probe::GpuAtomicAggregated);
    else
        stats_.inc(sim::Probe::GpuAtomicUnaggregated);
    // One in flight per warp, sm_atomic_depth in flight per SM:
    // per-warp throughput is flat until the SM window fills (Fig 9:
    // constant up to two warps per SM).
    const Tick slot_free =
        cfg_.sm_atomic_depth >= 2 ? gate.oldest : gate.newest;
    const Tick post_start =
        std::max({issued, lsu, slot_free, warp.own_atomic_gate});
    const Tick post_done =
        post_start + static_cast<Tick>(requests) * cfg_.lsu_ii;
    lsu = post_done;
    Tick &lf = st_.line_free[line];
    const Tick svc_start = std::max(post_done, lf);
    const Tick svc_done =
        svc_start + static_cast<Tick>(requests) * op.addr_ii;
    lf = svc_done;
    stats_.record(sim::HistProbe::GpuAtomicWaitTicks,
                  svc_start - post_done);
    gate.oldest = gate.newest;
    // The gate paces on the posting time plus a fixed round trip,
    // NOT on the (possibly queued) service time -- pacing on service
    // would compound queue delays into a positive feedback across
    // SMs.
    gate.newest = post_done + op.gate_delay;
    warp.own_atomic_gate = gate.newest;
    // Fire-and-forget with a bounded in-flight window.
    const Tick window_ok =
        svc_done > cfg_.ff_window ? svc_done - cfg_.ff_window : 0;
    finishOp(warp_id, std::max(post_done, window_ok));
}

void
GpuMachine::execAtomicCasLike(int warp_id, const DecodedGpuOp &op,
                              Tick now)
{
    // CAS / exchange: never aggregated, one outstanding per SM;
    // lanes pipeline in small groups and the warp waits for its last
    // lane's round trip (Fig 11, 13).
    WarpCtx &warp = st_.warps[warp_id];
    const Tick issued = issueThrough(warp, now);
    const int active = activeLanes(warp, op);
    if (active == 0) {
        finishOp(warp_id, issued);
        return;
    }

    Tick &lsu = st_.lsu_free[warp.sm];
    const std::uint64_t line = resolveAddr(warp, op, 0) >> sector_shift;
    GateSlots &gate = st_.sm_line_gate[smLineKey(warp.sm, line)];

    stats_.inc(sim::Probe::GpuAtomicCasLike);
    // Every lane past the winner re-queues through the serialized
    // CAS pipeline: the conflict cohort behind one op.
    if (active > 1) {
        stats_.inc(sim::Probe::GpuCasConflicts,
                   static_cast<std::uint64_t>(active - 1));
    }
    const int groups =
        (active + cfg_.cas_pipeline_lanes - 1) / cfg_.cas_pipeline_lanes;
    const Tick post_start = std::max({issued, lsu, gate.newest});
    const Tick post_done =
        post_start + static_cast<Tick>(active) * cfg_.lsu_ii;
    lsu = post_done;
    Tick &lf = st_.line_free[line];
    const Tick svc_start = std::max(post_done, lf);
    const Tick svc_done =
        svc_start + static_cast<Tick>(groups) * cfg_.cas_group_ii;
    lf = svc_done;
    stats_.record(sim::HistProbe::GpuAtomicWaitTicks,
                  svc_start - post_done);
    gate.oldest = gate.newest;
    gate.newest = svc_done;
    finishOp(warp_id, svc_done + cfg_.atomic_rt);
}

void
GpuMachine::execAtomicPerThread(int warp_id, const DecodedGpuOp &op,
                                Tick now)
{
    // Per-thread addresses: one request per lane, hashed across the
    // L2 atomic units (Fig 10, 12).
    WarpCtx &warp = st_.warps[warp_id];
    const Tick issued = issueThrough(warp, now);
    const int active = activeLanes(warp, op);
    if (active == 0) {
        finishOp(warp_id, issued);
        return;
    }

    stats_.inc(sim::Probe::GpuAtomicPerThread,
               static_cast<std::uint64_t>(active));
    Tick &lsu = st_.lsu_free[warp.sm];
    const Tick post_start = std::max(issued, lsu);
    const Tick post_done =
        post_start + static_cast<Tick>(active) * cfg_.lsu_ii;
    lsu = post_done;

    // Group the lanes' sectors. A warp has at most warp_size lanes,
    // so a stack-local array replaces the per-call hash map; the
    // per-unit reservation below is order-independent (each unit's
    // final time telescopes to max(post_done, start) + sum(counts)),
    // so first-touch order gives identical results.
    SYNCPERF_ASSERT(active <= max_lanes);
    std::uint64_t line_key[max_lanes];
    int line_count[max_lanes];
    int nlines = 0;
    for (int lane = 0; lane < active; ++lane) {
        const std::uint64_t line =
            resolveAddr(warp, op, lane) >> sector_shift;
        int i = 0;
        while (i < nlines && line_key[i] != line)
            ++i;
        if (i == nlines) {
            line_key[i] = line;
            line_count[i] = 0;
            ++nlines;
        }
        ++line_count[i];
    }

    Tick last_svc = post_done;
    for (int i = 0; i < nlines; ++i) {
        Tick &unit =
            st_.unit_free[line_key[i] % static_cast<std::uint64_t>(
                                         cfg_.l2_atomic_units)];
        const Tick svc_start = std::max(post_done, unit);
        const Tick svc_done =
            svc_start + static_cast<Tick>(line_count[i]) * op.unit_ii;
        unit = svc_done;
        last_svc = std::max(last_svc, svc_done);
    }

    if (op.value_returning) {
        finishOp(warp_id, last_svc + cfg_.atomic_rt);
        return;
    }
    const Tick window_ok =
        last_svc > cfg_.ff_window ? last_svc - cfg_.ff_window : 0;
    finishOp(warp_id, std::max(post_done, window_ok));
}

void
GpuMachine::execSharedAtomic(int warp_id, const DecodedGpuOp &op,
                             Tick now)
{
    WarpCtx &warp = st_.warps[warp_id];
    const Tick issued = issueThrough(warp, now);
    const int active = activeLanes(warp, op);
    if (active == 0) {
        finishOp(warp_id, issued);
        return;
    }

    Tick &unit = st_.smem_free[warp.sm];
    const Tick svc_start = std::max(issued, unit);
    const Tick svc_done =
        svc_start + static_cast<Tick>(active) * cfg_.smem_addr_ii;
    unit = svc_done;
    stats_.inc(sim::Probe::GpuSmemAtomic,
               static_cast<std::uint64_t>(active));

    if (op.value_returning) {
        finishOp(warp_id, svc_done + cfg_.smem_rt);
        return;
    }
    const Tick window_ok =
        svc_done > cfg_.smem_ff_window ? svc_done - cfg_.smem_ff_window
                                       : 0;
    finishOp(warp_id, std::max(issued + cfg_.issue_ii, window_ok));
}

void
GpuMachine::execSyncThreads(int warp_id, const DecodedGpuOp &, Tick now)
{
    arriveSyncThreads(warp_id, issueThrough(st_.warps[warp_id], now));
}

void
GpuMachine::execGridSync(int warp_id, const DecodedGpuOp &, Tick now)
{
    arriveGridSync(warp_id, issueThrough(st_.warps[warp_id], now));
}

void
GpuMachine::arriveSyncThreads(int warp_id, Tick when)
{
    WarpCtx &warp = st_.warps[warp_id];
    BlockState &block = st_.blocks[warp.block];
    block.sync.arrive(warp_id, when);
    if (block.sync.count() < block.warps)
        return;

    // Hardware barrier: arrival/release processing is per warp.
    const Tick release =
        block.sync.last + cfg_.syncthreads_base +
        static_cast<Tick>(block.warps) * cfg_.syncthreads_per_warp;
    stats_.inc(sim::Probe::GpuSyncthreads);
    stats_.record(sim::HistProbe::GpuBarrierSpreadTicks,
                  block.sync.last - block.sync.first);

    const auto waiters = std::exchange(block.sync, {}).waiters;

    for (int w : waiters) {
        st_.warps[w].resume = true;
        eq_.schedule(release, [this, w] {
            st_.warps[w].resume = false;
            finishOp(w, eq_.now());
        }, w);
    }
}

void
GpuMachine::arriveGridSync(int warp_id, Tick when)
{
    WarpCtx &warp = st_.warps[warp_id];
    if (!st_.pending_blocks.empty()) {
        fatal("grid-wide sync in block {} would deadlock: {} blocks are "
              "not resident (use a cooperative launch that fits the "
              "device)", warp.block, st_.pending_blocks.size());
    }
    st_.grid.arrive(warp_id, when);
    if (st_.grid.count() < static_cast<int>(st_.warps.size()))
        return;

    // Arrival counting happens through L2 atomics, serialized per
    // block; release is a device-wide broadcast.
    const Tick release =
        st_.grid.last + cfg_.grid_sync_base +
        static_cast<Tick>(st_.blocks.size()) * cfg_.grid_sync_per_block;
    stats_.inc(sim::Probe::GpuGridSync);
    stats_.record(sim::HistProbe::GpuBarrierSpreadTicks,
                  st_.grid.last - st_.grid.first);

    const auto waiters = std::exchange(st_.grid, {}).waiters;
    for (int w : waiters) {
        st_.warps[w].resume = true;
        eq_.schedule(release, [this, w] {
            st_.warps[w].resume = false;
            finishOp(w, eq_.now());
        }, w);
    }
}

void
GpuMachine::step(int warp_id)
{
    WarpCtx &warp = st_.warps[warp_id];
    SYNCPERF_ASSERT(!warp.done);
    const Tick now = eq_.now();

    const std::vector<DecodedGpuOp> &code = *warp.code;
    if (code.empty() || warp.pc >= code.size()) {
        advancePhase(warp_id, now);
        return;
    }

    const DecodedGpuOp &op = code[warp.pc];
    if (warp.rep_left == 0)
        warp.rep_left = op.repeat;

    (this->*op.handler)(warp_id, op, now);
}

void
GpuMachine::finishOp(int warp_id, Tick done)
{
    WarpCtx &warp = st_.warps[warp_id];
    if (--warp.rep_left > 0) {
        eq_.schedule(done, [this, warp_id] { step(warp_id); }, warp_id);
        return;
    }
    ++warp.pc;

    if (warp.pc < warp.code->size()) {
        eq_.schedule(done, [this, warp_id] { step(warp_id); }, warp_id);
        return;
    }
    warp.pc = 0;
    // Timed boundary: the batcher may jump whole steady-state
    // periods here, shifting this warp's continuation with them.
    if (warp.phase == Phase::Timed)
        done += lb_.boundary(warp_id, done);
    if ((warp.phase == Phase::Warmup || warp.phase == Phase::Timed) &&
        --warp.iters_left > 0) {
        eq_.schedule(done, [this, warp_id] { step(warp_id); }, warp_id);
        return;
    }
    lb_.actorLeft(warp_id);
    advancePhase(warp_id, done);
}

void
GpuMachine::advancePhase(int warp_id, Tick done)
{
    WarpCtx &warp = st_.warps[warp_id];
    switch (warp.phase) {
      case Phase::Prologue:
        if (warmup_iterations_ > 0 && !kernel_->body.empty()) {
            warp.phase = Phase::Warmup;
            warp.code = &image_->body;
            warp.iters_left = warmup_iterations_;
            eq_.schedule(done, [this, warp_id] { step(warp_id); },
                         warp_id);
            return;
        }
        warp.phase = Phase::Timed;
        warp.code = &image_->body;
        warp.start = done;
        warp.iters_left = kernel_->body.empty() ? 0 : kernel_->body_iters;
        if (warp.iters_left == 0) {
            advancePhase(warp_id, done);
            return;
        }
        eq_.schedule(done, [this, warp_id] { step(warp_id); }, warp_id);
        return;

      case Phase::Warmup: {
        // Align the block, then stamp clock64() (Listing 3 line 11).
        warp.phase = Phase::Timed;
        warp.iters_left = kernel_->body_iters;
        // The alignment __syncthreads() reuses the block barrier; the
        // start stamp is taken at its release.
        BlockState &block = st_.blocks[warp.block];
        block.sync.arrive(warp_id, done);
        if (block.sync.count() < block.warps)
            return;
        const Tick release =
            block.sync.last + cfg_.syncthreads_base +
            static_cast<Tick>(block.warps) * cfg_.syncthreads_per_warp;
        const auto waiters = std::exchange(block.sync, {}).waiters;
        // The captured absolute tick is safe under loop batching:
        // this one-shot event's boundary-relative offset shrinks
        // between any two trigger boundaries, so it can never be
        // part of equal fingerprints and is never shifted.
        for (int w : waiters) {
            eq_.schedule(release, [this, w, release] {
                st_.warps[w].start = release;
                step(w);
            }, w);
        }
        return;
      }

      case Phase::Timed:
        warp.end = done;
        warp.phase = Phase::Epilogue;
        warp.code = &image_->epilogue;
        if (kernel_->epilogue.empty()) {
            warpDone(warp_id, done);
            return;
        }
        eq_.schedule(done, [this, warp_id] { step(warp_id); }, warp_id);
        return;

      case Phase::Epilogue:
        warpDone(warp_id, done);
        return;
    }
}

void
GpuMachine::warpDone(int warp_id, Tick done)
{
    WarpCtx &warp = st_.warps[warp_id];
    warp.done = true;
    if (warp.end == 0)
        warp.end = done;

    BlockState &block = st_.blocks[warp.block];
    if (++block.done_warps < block.warps)
        return;

    // Block retired: release its SM slot and launch a pending block.
    st_.sm_free_threads[block.sm] += block.threads;
    --st_.sm_blocks[block.sm];
    stats_.inc(sim::Probe::GpuBlocksRetired);
    tryLaunchBlocks(done);
}

void
GpuMachine::tryLaunchBlocks(Tick when)
{
    while (!st_.pending_blocks.empty()) {
        const int block_id = st_.pending_blocks.front();
        const BlockState &pending = st_.blocks[block_id];
        int best_sm = -1;
        for (int sm = 0; sm < cfg_.sm_count; ++sm) {
            if (st_.sm_free_threads[sm] >= pending.threads &&
                st_.sm_blocks[sm] < cfg_.max_blocks_per_sm) {
                if (best_sm < 0 ||
                    st_.sm_free_threads[sm] > st_.sm_free_threads[best_sm]) {
                    best_sm = sm;
                }
            }
        }
        if (best_sm < 0)
            return;
        st_.pending_blocks.pop_front();
        launchBlock(block_id, best_sm, when);
    }
}

void
GpuMachine::launchBlock(int block_id, int sm, Tick when)
{
    BlockState &block = st_.blocks[block_id];
    block.sm = sm;
    st_.sm_free_threads[sm] -= block.threads;
    ++st_.sm_blocks[sm];

    const Tick start = when + cfg_.block_launch_overhead;
    for (int w = 0; w < block.warps; ++w) {
        const int warp_id = block.first_warp + w;
        WarpCtx &warp = st_.warps[warp_id];
        warp.sm = sm;
        warp.sched = st_.sm_next_sched[sm];
        st_.sm_next_sched[sm] =
            (st_.sm_next_sched[sm] + 1) % cfg_.schedulers_per_sm;
        eq_.schedule(start, [this, warp_id] { step(warp_id); }, warp_id);
    }
    stats_.inc(sim::Probe::GpuBlocksLaunched);
}

GpuMachine::DecodedGpuOp
GpuMachine::decodeOp(const GpuOp &op) const
{
    DecodedGpuOp d;
    d.repeat = op.repeat;
    d.stride = op.stride;
    d.pred = op.pred;
    d.amode = op.amode;
    d.base_addr = op.base_addr;
    d.esize = dataTypeSize(op.dtype);
    d.value_returning =
        op.aop == AtomicOp::Cas || op.aop == AtomicOp::Exch;
    switch (op.kind) {
      case GpuOpKind::Alu:
        d.handler = &GpuMachine::execAlu;
        d.lat = cfg_.alu_latency;
        return d;
      case GpuOpKind::DivergentAlu:
        d.handler = &GpuMachine::execDivergentAlu;
        d.uops = std::max(1, op.diverge_paths);
        d.lat = static_cast<Tick>(d.uops) * cfg_.alu_latency;
        return d;
      case GpuOpKind::SyncWarp:
        d.handler = &GpuMachine::execSyncWarp;
        d.lat = cfg_.syncwarp_latency;
        return d;
      case GpuOpKind::Shfl:
        d.handler = &GpuMachine::execShfl;
        d.uops = dataTypeSize(op.dtype) > 4 ? 2 : 1;
        d.lat = cfg_.shfl_latency;
        return d;
      case GpuOpKind::Vote:
        d.handler = &GpuMachine::execVote;
        d.lat = cfg_.vote_latency;
        return d;
      case GpuOpKind::ReduceSync:
        if (cfg_.reduce_latency == 0) {
            fatal("__reduce_*_sync requires compute capability >= 8.0 "
                  "({} is cc {})", cfg_.name, cfg_.compute_capability);
        }
        d.handler = &GpuMachine::execReduceSync;
        return d;
      case GpuOpKind::Fence:
        switch (op.scope) {
          case FenceScope::Block:
            d.handler = &GpuMachine::execFenceBlock;
            d.lat = cfg_.fence_block;
            return d;
          case FenceScope::System:
            d.handler = &GpuMachine::execFenceSystem;
            d.lat = cfg_.fence_system;
            return d;
          case FenceScope::Device:
            break;
        }
        d.handler = &GpuMachine::execFenceDevice;
        d.lat = cfg_.fence_device;
        return d;
      case GpuOpKind::GlobalLoad:
        d.handler = &GpuMachine::execGlobalLoad;
        return d;
      case GpuOpKind::GlobalStore:
        d.handler = &GpuMachine::execGlobalStore;
        return d;
      case GpuOpKind::GlobalAtomic:
        if (op.amode != AddressMode::PerThread) {
            if (d.value_returning) {
                d.handler = &GpuMachine::execAtomicCasLike;
            } else {
                d.handler = &GpuMachine::execAtomicSameAddr;
                d.aggregated = cfg_.enable_warp_aggregation;
                d.addr_ii = cfg_.addrIi(op.dtype);
                d.gate_delay = gateDelay(op.dtype);
            }
            return d;
        }
        d.handler = &GpuMachine::execAtomicPerThread;
        d.unit_ii = cfg_.unitIi(op.dtype);
        return d;
      case GpuOpKind::SharedAtomic:
        d.handler = &GpuMachine::execSharedAtomic;
        return d;
      case GpuOpKind::SyncThreads:
        d.handler = &GpuMachine::execSyncThreads;
        return d;
      case GpuOpKind::GridSync:
        d.handler = &GpuMachine::execGridSync;
        return d;
    }
    panic("unhandled GPU op kind");
}

void
GpuMachine::decodeSequence(const std::vector<GpuOp> &ops,
                           std::vector<DecodedGpuOp> &out) const
{
    out.clear();
    out.reserve(ops.size());
    for (const GpuOp &op : ops)
        out.push_back(decodeOp(op));
}

GpuRunResult
GpuMachine::run(const GpuKernel &kernel, LaunchConfig launch,
                int warmup_iterations, std::uint64_t decode_key)
{
    SYNCPERF_ASSERT(launch.blocks >= 1);
    SYNCPERF_ASSERT(launch.threads_per_block >= 1 &&
                    launch.threads_per_block <= cfg_.max_threads_per_block);
    SYNCPERF_ASSERT(kernel.body_iters >= 1 || kernel.body.empty());

    kernel_ = &kernel;
    warmup_iterations_ = warmup_iterations;

    eq_.reset();
    stats_.clear();
    sim::resetState(st_);
    // A cached image skips decoding; key 0 decodes into the machine's
    // own scratch image. Either way the warps execute the image's
    // sequences in place.
    image_ = &st_.cold;
    if (decode_key != 0) {
        const auto it = images_.find(decode_key);
        SYNCPERF_ASSERT(it != images_.end(),
                        "run() with an unmaterialized decode key");
        image_ = it->second.get();
    } else {
        decodeImageInto(kernel, st_.cold);
    }
    const auto has_load = [](const std::vector<DecodedGpuOp> &code) {
        for (const DecodedGpuOp &op : code)
            if (op.handler == &GpuMachine::execGlobalLoad)
                return true;
        return false;
    };
    st_.mem_bw_live = has_load(image_->prologue) ||
                      has_load(image_->body) || has_load(image_->epilogue);
    st_.blocks.assign(launch.blocks, BlockState{});
    st_.sm_free_threads.assign(cfg_.sm_count, cfg_.max_threads_per_sm);
    st_.sm_blocks.assign(cfg_.sm_count, 0);
    st_.sm_next_sched.assign(cfg_.sm_count, 0);
    st_.sched_free.assign(
        static_cast<std::size_t>(cfg_.sm_count) * cfg_.schedulers_per_sm,
        0);
    st_.lsu_free.assign(cfg_.sm_count, 0);
    st_.smem_free.assign(cfg_.sm_count, 0);
    st_.reduce_free.assign(cfg_.sm_count, 0);
    st_.unit_free.assign(cfg_.l2_atomic_units, 0);

    const int warps_per_block = cfg_.warpsPerBlock(launch.threads_per_block);
    for (int b = 0; b < launch.blocks; ++b) {
        BlockState &block = st_.blocks[b];
        block.warps = warps_per_block;
        block.threads = launch.threads_per_block;
        block.first_warp = static_cast<int>(st_.warps.size());
        for (int w = 0; w < warps_per_block; ++w) {
            const int lane0 = w * cfg_.warp_size;
            st_.warps.push_back(
                {.block = b,
                 .warp_in_block = w,
                 .lanes = std::min(cfg_.warp_size,
                                   launch.threads_per_block - lane0),
                 .first_tid = b * launch.threads_per_block + lane0,
                 .code = &image_->prologue});
        }
        st_.pending_blocks.push_back(b);
    }
    lb_.reset(static_cast<int>(st_.warps.size()),
              kernel.body.empty()
                  ? 0
                  : static_cast<std::uint64_t>(kernel.body_iters) *
                        st_.warps.size());
    tryLaunchBlocks(0);

    const Tick end = eq_.run();

    GpuRunResult result;
    result.total_cycles = end;
    result.thread_cycles.reserve(
        static_cast<std::size_t>(launch.blocks) * launch.threads_per_block);
    for (const auto &warp : st_.warps) {
        SYNCPERF_ASSERT(warp.done, "warp did not finish (deadlock?)");
        const Tick elapsed = warp.end >= warp.start
            ? warp.end - warp.start : 0;
        for (int lane = 0; lane < warp.lanes; ++lane)
            result.thread_cycles.push_back(elapsed);
    }

    // Counters and histograms were recorded in place through the
    // interned O(1) probes; only the queue's high-water mark is
    // stamped once per run.
    stats_.inc(sim::Probe::EqMaxDepth,
               static_cast<std::uint64_t>(eq_.maxPending()));
    return result;
}

const GpuMachine::OpHandler *
GpuMachine::handlerTable(std::size_t &count)
{
    // Image fingerprints fold a handler's index in this table, so
    // equal handlers always hash to equal words.
    static constexpr OpHandler table[] = {
        &GpuMachine::execAlu,           // 0
        &GpuMachine::execDivergentAlu,  // 1
        &GpuMachine::execSyncWarp,      // 2
        &GpuMachine::execShfl,          // 3
        &GpuMachine::execVote,          // 4
        &GpuMachine::execReduceSync,    // 5
        &GpuMachine::execFenceBlock,    // 6
        &GpuMachine::execFenceDevice,   // 7
        &GpuMachine::execFenceSystem,   // 8
        &GpuMachine::execGlobalLoad,    // 9
        &GpuMachine::execGlobalStore,   // 10
        &GpuMachine::execAtomicSameAddr,  // 11
        &GpuMachine::execAtomicCasLike,   // 12
        &GpuMachine::execAtomicPerThread, // 13
        &GpuMachine::execSharedAtomic,  // 14
        &GpuMachine::execSyncThreads,   // 15
        &GpuMachine::execGridSync,      // 16
    };
    count = std::size(table);
    return table;
}

void
GpuMachine::decodeImageInto(const GpuKernel &kernel,
                            DecodedImage &img) const
{
    decodeSequence(kernel.prologue, img.prologue);
    decodeSequence(kernel.body, img.body);
    decodeSequence(kernel.epilogue, img.epilogue);
    img.fingerprint = fingerprintOf(img);
}

std::uint64_t
GpuMachine::fingerprintOf(const DecodedImage &img)
{
    // FNV-1a over every field of the decoded arrays: two kernels
    // share a fingerprint iff their decoded forms -- what run()
    // actually executes -- are identical.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto fold = [&h](std::uint64_t w) {
        h = (h ^ w) * 0x100000001b3ULL;
    };
    std::size_t n_handlers = 0;
    const OpHandler *table = handlerTable(n_handlers);
    const auto fold_seq = [&](const std::vector<DecodedGpuOp> &code) {
        fold(code.size());
        for (const DecodedGpuOp &op : code) {
            std::size_t id = 0;
            while (id < n_handlers && table[id] != op.handler)
                ++id;
            SYNCPERF_ASSERT(id < n_handlers,
                            "decoded handler missing from the rebind "
                            "table");
            fold(id);
            fold(static_cast<std::uint64_t>(op.repeat));
            fold(static_cast<std::uint64_t>(op.uops));
            fold(static_cast<std::uint64_t>(op.stride));
            fold(static_cast<std::uint64_t>(op.pred));
            fold(static_cast<std::uint64_t>(op.amode));
            fold(op.aggregated ? 1 : 0);
            fold(op.value_returning ? 1 : 0);
            fold(op.base_addr);
            fold(op.esize);
            fold(op.lat);
            fold(op.addr_ii);
            fold(op.unit_ii);
            fold(op.gate_delay);
        }
    };
    fold_seq(img.prologue);
    fold_seq(img.body);
    fold_seq(img.epilogue);
    return h;
}

void
GpuMachine::buildImage(std::uint64_t key, const GpuKernel &kernel)
{
    SYNCPERF_ASSERT(key != 0, "key 0 means undecoded");
    auto img = std::make_shared<DecodedImage>();
    img->key = key;
    decodeImageInto(kernel, *img);
    images_[key] = std::move(img);
}

void
GpuMachine::cloneFrom(const GpuMachine &tmpl)
{
    eq_.reserve(tmpl.eq_.slotCapacity());
    sim::reserveLike(st_, tmpl.st_);
    lb_.reserveLike(tmpl.lb_);
}

} // namespace syncperf::gpusim
