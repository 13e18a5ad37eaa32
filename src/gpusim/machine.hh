/**
 * @file
 * SIMT GPU timing machine.
 *
 * Executes a GpuKernel over a grid, warp-synchronously, against the
 * mechanisms the paper uses to explain its CUDA results:
 *
 * - warp-granular execution with per-scheduler issue bandwidth (the
 *   __syncwarp/__shfl_sync full-speed warp-count knees);
 * - a hardware block barrier whose cost grows with resident warps
 *   (__syncthreads), independent of block count;
 * - L2 atomic units with per-address service intervals, a pool of
 *   units indexed by 32-byte sector, and JIT warp aggregation for
 *   reduction-style atomics on a single address (atomicAdd/Max);
 * - one outstanding same-address atomic per SM (same-SM warps
 *   serialize; different SMs pipeline in the L2);
 * - value-returning atomics (CAS/exchange) that never aggregate and
 *   pipeline same-address lanes in small groups;
 * - constant-cost fences per scope, with deterministic PCIe jitter
 *   for the system scope;
 * - shared-memory (block-scoped) atomics served by a per-SM unit;
 * - block residency limits and wave-by-wave block scheduling.
 *
 * Execution uses precompiled dispatch: run() decodes the kernel's
 * three op sequences once into dense handler+operand arrays (fixed
 * latencies, micro-op counts, and per-type service intervals all
 * hoisted), and the event loop then jumps straight into per-op
 * handlers with no switch. Event ordering is identical to the
 * historical switch interpreter, so results stay bit-for-bit
 * reproducible. Per-thread atomics use the affine shape of their lane
 * addresses (gpusim/atomic_units.hh): the decode step tabulates each
 * op's lane count per L2 unit once, and a full, sector-aligned warp
 * then costs one modulo plus one reservation per distinct unit.
 *
 * Decoded kernels can further be captured as immutable
 * DecodedImages keyed by the caller's config hash: run() with a key
 * executes the image's sequences in place instead of re-decoding
 * (core/machine_pool orchestrates this).
 */

#ifndef SYNCPERF_GPUSIM_MACHINE_HH
#define SYNCPERF_GPUSIM_MACHINE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "gpusim/atomic_units.hh"
#include "gpusim/gpu_config.hh"
#include "gpusim/kernel.hh"
#include "sim/event_queue.hh"
#include "sim/loop_batch.hh"
#include "sim/stat.hh"

namespace syncperf::gpusim
{

/** Outcome of one GpuMachine::run() invocation. */
struct GpuRunResult
{
    /**
     * clock64() delta of the timed region for every thread of the
     * grid, in GPU cycles (all lanes of a warp share one value).
     */
    std::vector<sim::Tick> thread_cycles;

    /** Tick at which the last block finished (kernel runtime). */
    sim::Tick total_cycles = 0;
};

/**
 * The machine. One instance simulates one kernel launch at a time;
 * run() fully re-initializes, so an instance may be reused for
 * independent launches (reseed() between launches restores the
 * fresh-machine jitter stream while keeping warm buffers).
 */
class GpuMachine : private sim::LoopBatcher::Host
{
  public:
    /**
     * @param cfg Device parameters (see the Table I presets).
     * @param seed Seed for the deterministic jitter stream.
     */
    explicit GpuMachine(GpuConfig cfg, std::uint64_t seed = 1);

    /** One decoded op: handler plus hoisted operands. */
    struct DecodedGpuOp
    {
        /** Receives the queue's now tick; finishes or blocks. */
        void (GpuMachine::*handler)(int warp_id, const DecodedGpuOp &op,
                                    Tick now) = nullptr;
        int repeat = 1;
        int uops = 1;        ///< scheduler slots (paths, shfl uops)
        int stride = 1;      ///< elements, for PerThread addressing
        Predicate pred = Predicate::All;
        AddressMode amode = AddressMode::SingleShared;
        bool aggregated = false;      ///< warp aggregation applies
        bool value_returning = false; ///< CAS/exchange result needed
        std::uint64_t base_addr = 0;
        std::uint64_t esize = 4;  ///< dataTypeSize(dtype), hoisted
        Tick lat = 0;             ///< fixed latency term, hoisted
        Tick addr_ii = 0;         ///< cfg.addrIi(dtype), hoisted
        Tick unit_ii = 0;         ///< cfg.unitIi(dtype), hoisted
        Tick gate_delay = 0;      ///< gateDelay(dtype), hoisted
        /** PerThread atomics: this op's slice of
         * DecodedImage::unit_table. */
        std::uint32_t units_at = 0;
        std::uint32_t units_n = 0;
    };

    /**
     * An immutable decoded kernel, captured once and replayed by any
     * number of launches. The key is whatever digest the caller used
     * to derive it -- the machine only stores and compares it.
     */
    struct DecodedImage
    {
        std::uint64_t key = 0;
        std::vector<DecodedGpuOp> prologue;
        std::vector<DecodedGpuOp> body;
        std::vector<DecodedGpuOp> epilogue;

        /**
         * Per-unit lane counts of every PerThread atomic for a full
         * warp with lane 0 on a sector boundary (appendUnitTable), one
         * slice per op. A pure function of the operands folded below
         * and the machine's config, so it is not folded itself.
         */
        std::vector<UnitShare> unit_table;

        std::span<const UnitShare>
        unitShares(const DecodedGpuOp &op) const
        {
            return {unit_table.data() + op.units_at, op.units_n};
        }

        /**
         * Content digest of the decoded form (handler ids, operands,
         * hoisted costs -- everything run() executes, and nothing it
         * does not, so kernels whose raw data types decode to the
         * same costs share a fingerprint). Equal fingerprints mean
         * equal walks for equal (seed, geometry, body_iters,
         * warmup): the campaign lane planner's agreement test.
         */
        std::uint64_t fingerprint = 0;
    };

    /**
     * Launch @p kernel with geometry @p launch.
     *
     * Mirrors the paper's Listing 3: each thread executes the
     * prologue, @p warmup_iterations untimed body repetitions, a
     * block-wide __syncthreads(), reads clock64(), executes
     * body_iters timed body repetitions, reads clock64() again, and
     * finally runs the epilogue.
     *
     * @param warmup_iterations May be zero for application kernels
     *        (reductions); the timed region then starts right after
     *        the prologue without an extra sync.
     * @param decode_key Non-zero selects a previously materialized
     *        DecodedImage (hasImage(decode_key) must hold): the warps
     *        execute its sequences in place and the decode step is
     *        skipped entirely. Zero (the default) decodes @p kernel
     *        first. Results are bit-identical either way.
     */
    GpuRunResult run(const GpuKernel &kernel, LaunchConfig launch,
                     int warmup_iterations = 2,
                     std::uint64_t decode_key = 0);

    /** Whether a decoded image for @p key is installed. */
    bool hasImage(std::uint64_t key) const
    {
        return images_.find(key) != images_.end();
    }

    /** Fingerprint of the image cached under @p key (0 if absent). */
    std::uint64_t
    imageFingerprint(std::uint64_t key) const
    {
        const auto it = images_.find(key);
        return it == images_.end() ? 0 : it->second->fingerprint;
    }

    /**
     * Decode @p kernel (exactly as a key-0 run() would) and store
     * the result as the image for @p key (key must be non-zero).
     */
    void buildImage(std::uint64_t key, const GpuKernel &kernel);

    /** Drop every installed image (pool lease hygiene). */
    void clearImages() { images_.clear(); }

    /**
     * Adopt the warm capacity of @p tmpl: every internal container
     * reserves to the template's high-water size, so the first run()
     * skips the growth reallocations a cold machine pays. No dynamic
     * state is copied -- run() fully re-initializes, and the clone's
     * results are bit-identical to a freshly constructed machine's.
     */
    void cloneFrom(const GpuMachine &tmpl);

    /**
     * Restart the jitter stream as if the machine had been freshly
     * constructed with @p seed: a reused machine produces the exact
     * cycle counts a new GpuMachine(cfg, seed) would.
     */
    void reseed(std::uint64_t seed);

    /** Activity counters from the most recent run. */
    const sim::StatSet &stats() const { return stats_; }

    const GpuConfig &config() const { return cfg_; }

    /**
     * Enable/disable steady-state loop batching (default on). The
     * run's results are bit-identical either way -- batching only
     * skips re-deriving state the detector has proven periodic
     * (docs/performance.md, "Loop batching").
     */
    void setLoopBatch(bool on) { lb_.setEnabled(on); }

    /** Loop-batching activity of the most recent run. */
    const sim::LoopBatchCounters &loopBatch() const
    {
        return lb_.counters();
    }

    /**
     * Pin the loop-batching horizon at @p when for every subsequent
     * run(): no batch window jumps across the pin, and boundaries at
     * or past it single-step (the fault-injection / test hook;
     * sim::EventQueue::no_tick, the default, unpins). Results stay
     * bit-identical -- the pin only shrinks what may be batched.
     */
    void setBatchHorizonPin(Tick when) { lb_.setHorizonPin(when); }

    /** The machine's event queue (test hook for horizon pinning). */
    sim::EventQueue &eventQueue() { return eq_; }

  private:
    enum class Phase : std::uint8_t
    {
        Prologue,
        Warmup,
        Timed,
        Epilogue,
    };

    /** One warp's execution cursor. */
    struct WarpCtx
    {
        int block = 0;          ///< global block id
        int warp_in_block = 0;
        int sm = -1;
        int sched = 0;          ///< scheduler partition on the SM
        int lanes = 32;         ///< active thread lanes
        int first_tid = 0;      ///< global id of lane 0

        Phase phase = Phase::Prologue;
        const std::vector<DecodedGpuOp> *code = nullptr;
        std::size_t pc = 0;
        int rep_left = 0;
        long iters_left = 0;

        Tick start = 0;
        Tick end = 0;
        bool done = false;

        /** A barrier-release continuation is queued for this warp
         * (distinguishes its pending event from a plain step for the
         * loop-batch fingerprint). */
        bool resume = false;

        /** Commit time of this warp's most recent global store (the
         * point a device-scope fence must wait for). */
        Tick last_store_commit = 0;

        /** A warp keeps one aggregated same-address atomic in
         * flight; the next waits for this round-trip point. */
        Tick own_atomic_gate = 0;

        template <class S, class V>
        static void visit(S &w, V &&v)
        {
            auto &[block, warp_in_block, sm, sched, lanes, first_tid,
                   phase, code, pc, rep_left, iters_left, start, end,
                   done, resume, last_store_commit, own_atomic_gate] = w;
            // Geometry, the batcher's own counter and the frozen
            // clock64() outputs.
            v(sim::fixed, block, warp_in_block, lanes, first_tid, code,
              iters_left, start, end);
            v(sim::identity, pc, rep_left, sm, sched, phase, done, resume);
            // Read only by this warp's later ops: dead below its own
            // next event. Without that floor a store-heavy warp's
            // commit stamp flickers between dead and live across
            // boundaries, spoiling every fingerprint.
            v(sim::actor_maxreg, last_store_commit, own_atomic_gate);
        }
    };

    /** Pipelined outstanding-request window for per-SM atomic gating. */
    struct GateSlots
    {
        Tick newest = 0;
        Tick oldest = 0;

        template <class S, class V>
        static void visit(S &g, V &&v)
        {
            auto &[newest, oldest] = g;
            v(sim::maxreg, newest, oldest);
        }
    };

    struct BlockState
    {
        int sm = -1;
        int warps = 0;
        int threads = 0;
        int first_warp = 0;     ///< index into State::warps
        int done_warps = 0;
        sim::Arrivals sync;     ///< __syncthreads rendezvous

        template <class S, class V>
        static void visit(S &b, V &&v)
        {
            auto &[sm, warps, threads, first_warp, done_warps, sync] = b;
            v(sim::fixed, warps, threads, first_warp);
            v(sim::identity, sm, done_warps);
            v(sim::records, sync);
        }
    };

    /** Everything one run() mutates: the state table whose visit
     * drives the batcher's fingerprint and shift, the per-run reset
     * and cloneFrom's reserves (sim/state_codec.hh). */
    struct State
    {
        std::vector<WarpCtx> warps;
        std::vector<BlockState> blocks;
        std::deque<int> pending_blocks;
        std::vector<int> sm_free_threads;
        std::vector<int> sm_blocks;
        std::vector<int> sm_next_sched;

        // Resource reservations.
        std::vector<Tick> sched_free;       ///< sm * schedulers + sched
        std::vector<Tick> lsu_free;         ///< per SM
        std::vector<Tick> smem_free;        ///< per SM
        std::vector<Tick> reduce_free;      ///< per SM (__reduce_*_sync)
        std::vector<Tick> unit_free;        ///< L2 atomic units
        std::unordered_map<std::uint64_t, Tick> line_free;
        std::unordered_map<std::uint64_t, GateSlots> sm_line_gate;
        Tick mem_bw_free = 0;               ///< DRAM queue tail

        /** Whether the launched program can read mem_bw_free (it
         * holds a global load). */
        bool mem_bw_live = false;

        /** Grid-wide barrier rendezvous (cooperative launch). */
        sim::Arrivals grid;

        /** Key 0's decoded kernel (decode-time buffers). */
        DecodedImage cold;

        template <class S, class V>
        static void visit(S &s, V &&v)
        {
            auto &[warps, blocks, pending_blocks, sm_free_threads,
                   sm_blocks, sm_next_sched, sched_free, lsu_free,
                   smem_free, reduce_free, unit_free, line_free,
                   sm_line_gate, mem_bw_free, mem_bw_live, grid, cold] = s;
            v(sim::actors, warps);
            v(sim::records, blocks, sm_line_gate, grid);
            v(sim::identity, pending_blocks, sm_free_threads, sm_blocks,
              sm_next_sched);
            v(sim::maxreg, sched_free, lsu_free, smem_free, reduce_free,
              unit_free, line_free);
            // The DRAM queue tail is fire-and-forget: stores push it
            // forward without waiting, so under a store-heavy body it
            // runs ahead of the clock without bound. Only a global
            // load reads it; a program without one leaves it
            // outcome-dead for the whole run.
            v(sim::maxregLiveWhen(mem_bw_live), mem_bw_free);
            v(sim::fixed, mem_bw_live);
            v(sim::warm, cold);
        }
    };

    /** Issue an instruction through the warp's scheduler. */
    Tick issueThrough(WarpCtx &warp, Tick ready, int uops = 1);

    Tick gateDelay(DataType t) const;

    DecodedGpuOp decodeOp(const GpuOp &op) const;
    void decodeSequence(const std::vector<GpuOp> &ops,
                        std::vector<DecodedGpuOp> &out) const;

    /** Decode @p kernel into @p img (exactly as a key-0 run would). */
    void decodeImageInto(const GpuKernel &kernel, DecodedImage &img) const;

    /** Digest over the decoded sequences. */
    static std::uint64_t fingerprintOf(const DecodedImage &img);

    /**
     * The stable handler-id table: image fingerprints fold index i
     * for handler table[i].
     */
    using OpHandler = void (GpuMachine::*)(int, const DecodedGpuOp &,
                                           Tick);
    static const OpHandler *handlerTable(std::size_t &count);

    void step(int warp_id);
    void finishOp(int warp_id, Tick done);
    void advancePhase(int warp_id, Tick done);
    void arriveSyncThreads(int warp_id, Tick when);
    void arriveGridSync(int warp_id, Tick when);
    void tryLaunchBlocks(Tick when);
    void launchBlock(int block_id, int sm, Tick when);
    void warpDone(int warp_id, Tick done);

    // --- Decoded-op handlers (one per timing path) ---
    void execAlu(int warp_id, const DecodedGpuOp &op, Tick now);
    void execDivergentAlu(int warp_id, const DecodedGpuOp &op, Tick now);
    void execSyncWarp(int warp_id, const DecodedGpuOp &op, Tick now);
    void execShfl(int warp_id, const DecodedGpuOp &op, Tick now);
    void execVote(int warp_id, const DecodedGpuOp &op, Tick now);
    void execReduceSync(int warp_id, const DecodedGpuOp &op, Tick now);
    void execFenceBlock(int warp_id, const DecodedGpuOp &op, Tick now);
    void execFenceDevice(int warp_id, const DecodedGpuOp &op, Tick now);
    void execFenceSystem(int warp_id, const DecodedGpuOp &op, Tick now);
    void execGlobalLoad(int warp_id, const DecodedGpuOp &op, Tick now);
    void execGlobalStore(int warp_id, const DecodedGpuOp &op, Tick now);
    void execAtomicSameAddr(int warp_id, const DecodedGpuOp &op,
                            Tick now);
    void execAtomicCasLike(int warp_id, const DecodedGpuOp &op,
                           Tick now);
    void execAtomicPerThread(int warp_id, const DecodedGpuOp &op,
                             Tick now);
    void execSharedAtomic(int warp_id, const DecodedGpuOp &op, Tick now);
    void execSyncThreads(int warp_id, const DecodedGpuOp &op, Tick now);
    void execGridSync(int warp_id, const DecodedGpuOp &op, Tick now);

    int activeLanes(const WarpCtx &warp, const DecodedGpuOp &op) const;
    /** The address lane 0 of @p warp accesses under @p op; PerThread
     * lane i adds i * stride * esize. */
    std::uint64_t lane0Addr(const WarpCtx &warp,
                            const DecodedGpuOp &op) const;

    // --- Steady-state loop batching (sim::LoopBatcher::Host) ---
    // The batcher decides when and how far to jump; both halves the
    // machine supplies are walks over its state table (State::visit).

    void encodeState(sim::StateEncoder &enc) const override
    {
        State::visit(st_, enc);
    }
    void shiftTimes(Tick delta) override
    {
        State::visit(st_, sim::StateShifter(delta));
    }
    long &itersLeft(int warp_id) override
    {
        return st_.warps[warp_id].iters_left;
    }

    GpuConfig cfg_;
    Pcg32 rng_;
    sim::EventQueue eq_;
    sim::StatSet stats_;

    const GpuKernel *kernel_ = nullptr;
    const DecodedImage *image_ = nullptr;  ///< the run's decoded kernel
    int warmup_iterations_ = 0;

    State st_;

    /** Installed decoded images, keyed by the caller's digest. */
    std::unordered_map<std::uint64_t, std::shared_ptr<const DecodedImage>>
        images_;

    /** Steady-state loop batching; warps are its actors. */
    sim::LoopBatcher lb_{*this, eq_, stats_, rng_};
};

} // namespace syncperf::gpusim

#endif // SYNCPERF_GPUSIM_MACHINE_HH
