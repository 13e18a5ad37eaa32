/**
 * @file
 * Cycle-approximate multicore CPU machine.
 *
 * Executes one CpuProgram per software thread against a line-granular
 * coherence model. The mechanisms implemented here are the ones the
 * paper uses to explain its OpenMP results:
 *
 * - exclusive cache-line ownership with a serialized per-line
 *   occupancy quantum (contended atomics collapse as 1/T);
 * - 64-byte line granularity (false sharing at small strides);
 * - SMT siblings sharing an L1 (no false sharing within a core, mild
 *   issue-slot contention);
 * - local vs remote (cross-complex/socket) transfer latencies;
 * - per-type atomic RMW costs (integer fast, floating point slow);
 * - store-buffer drain for fences, expensive only when the pending
 *   store's line has been stolen (false sharing);
 * - a spin-then-futex barrier whose OS wake constant dominates at
 *   high thread counts (the paper's plateau);
 * - FIFO lock handoff for critical sections.
 *
 * Execution uses precompiled dispatch: run() decodes every program
 * once into a dense handler+operand array (config costs hoisted,
 * cache lines and locks interned to dense indices), and the event
 * loop then jumps straight into per-op handlers with no switch and
 * no hash lookups. Event ordering is identical to the historical
 * switch interpreter, so results stay bit-for-bit reproducible.
 *
 * Decoded programs can further be captured as immutable
 * DecodedImages keyed by the caller's config hash: run() with a key
 * skips decode and interning entirely (core/machine_pool
 * orchestrates this).
 */

#ifndef SYNCPERF_CPUSIM_MACHINE_HH
#define SYNCPERF_CPUSIM_MACHINE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/dtype.hh"
#include "common/rng.hh"
#include "cpusim/affinity.hh"
#include "cpusim/cpu_config.hh"
#include "cpusim/program.hh"
#include "sim/event_queue.hh"
#include "sim/loop_batch.hh"
#include "sim/stat.hh"

namespace syncperf::cpusim
{

/** Outcome of one CpuMachine::run() invocation. */
struct CpuRunResult
{
    /** Timed-region duration of each software thread, in cycles. */
    std::vector<sim::Tick> thread_cycles;

    /** Tick at which the last thread finished. */
    sim::Tick total_cycles = 0;
};

/**
 * The machine. One instance simulates one program launch at a time;
 * run() fully re-initializes, so an instance may be reused for
 * independent launches (reseed() between launches restores the
 * fresh-machine jitter stream while keeping warm buffers).
 */
class CpuMachine : private sim::LoopBatcher::Host
{
  public:
    /**
     * @param cfg Topology and timing parameters.
     * @param affinity Software-to-hardware thread placement policy.
     * @param seed Seed for the deterministic jitter stream.
     */
    CpuMachine(CpuConfig cfg, Affinity affinity, std::uint64_t seed = 1);

    /** One decoded op: handler plus hoisted operands. */
    struct DecodedOp
    {
        /** Receives the post-issue start tick; finishes or blocks. */
        void (CpuMachine::*handler)(int tid, const DecodedOp &op,
                                    Tick start) = nullptr;
        int line = -1;      ///< interned cache-line index
        int lock = -1;      ///< interned lock index
        Tick alu_cost = 0;  ///< aluCost(kind, dtype), hoisted
    };

    /**
     * Immutable decoded form of one program set: the dense
     * handler+operand arrays plus the interned line/lock universe
     * they index. Built once per decode key by buildImage() and
     * shared by reference across launches, so a warm machine re-runs
     * a known program set without re-decoding.
     */
    struct DecodedImage
    {
        std::uint64_t key = 0;
        int n_lines = 0;    ///< interned cache-line universe size
        int n_locks = 0;    ///< interned lock universe size
        std::vector<std::vector<DecodedOp>> code; ///< one per thread

        /**
         * Content digest of the decoded form (handler ids, interned
         * operands, hoisted costs -- everything run() executes, and
         * nothing it does not, so raw addresses or data types that
         * decode to the same image share a fingerprint). Equal
         * fingerprints mean equal walks for equal (seed, iterations,
         * warmup): the campaign lane planner's agreement test.
         */
        std::uint64_t fingerprint = 0;
    };

    /**
     * Execute one program per software thread.
     *
     * Mirrors the paper's Listing 2: every thread performs
     * @p warmup_iterations of its body, joins an alignment barrier,
     * then executes prog.iterations timed body repetitions.
     *
     * @param programs One program per software thread (team size =
     *                 programs.size()).
     * @param warmup_iterations Untimed body repetitions before the
     *                          alignment barrier.
     * @param decode_key 0 decodes @p programs from scratch (the cold
     *                   path); a nonzero key reuses the cached image
     *                   built by buildImage() under that key,
     *                   skipping decode and interning. The caller
     *                   guarantees the image was built from an
     *                   identical (config, programs) pair; results
     *                   are bit-identical to the cold path.
     */
    CpuRunResult run(const std::vector<CpuProgram> &programs,
                     int warmup_iterations = 2,
                     std::uint64_t decode_key = 0);

    /** True when an image is cached under @p key. */
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

    /** Decode @p programs and cache the image under @p key (!= 0). */
    void buildImage(std::uint64_t key,
                    const std::vector<CpuProgram> &programs);

    /** Drop every cached image (machine-pool lease hygiene). */
    void clearImages() { images_.clear(); }

    /**
     * Adopt @p tmpl's warmed capacity -- the sized event-queue slot
     * table and container reserves -- without copying any dynamic
     * state, so a freshly constructed machine skips the incremental
     * allocations of its first run. O(dirty bytes): nothing decoded
     * or simulated is transferred, and results are unaffected.
     */
    void cloneFrom(const CpuMachine &tmpl);

    /**
     * Restart the jitter stream as if the machine had been freshly
     * constructed with @p seed: a reused machine produces the exact
     * cycle counts a new CpuMachine(cfg, affinity, seed) would.
     */
    void reseed(std::uint64_t seed);

    /** Activity counters from the most recent run. */
    const sim::StatSet &stats() const { return stats_; }

    const CpuConfig &config() const { return cfg_; }

    /** The placement computed for the last run's team. */
    const std::vector<HwPlace> &places() const { return places_; }

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
    /** Coherence state of one cache line. */
    struct Line
    {
        int owner_core = -1;       ///< exclusive owner, or -1
        bool exclusive = false;
        std::uint64_t copies = 0;  ///< bitmask of cores with a copy
        Tick free_at = 0;          ///< next exclusive-service slot
    };

    /** One blocked lock acquirer, with the tick it blocked at. */
    struct LockWaiter
    {
        int tid;
        Tick since;
    };

    /** FIFO lock used for critical sections. */
    struct LockState
    {
        bool held = false;
        std::deque<LockWaiter> waiters;
    };

    /** Per-thread execution cursor. */
    struct ThreadCtx
    {
        const std::vector<DecodedOp> *code = nullptr;
        HwPlace place;
        long iters_left = 0;
        std::size_t pc = 0;
        bool timed = false;
        bool done = false;
        /** A barrier-release/lock-grant continuation is pending for
         * this thread (distinguishes its queued event from a plain
         * step for the loop-batch fingerprint). */
        bool resume = false;
        Tick start_tick = 0;
        Tick end_tick = 0;
        int pending_store_line = -1;  ///< interned index
        bool has_pending_store = false;
    };

    /** Dense index for the cache line containing @p addr. */
    int internLine(std::uint64_t addr);
    int internLock(int lock_id);
    DecodedOp decodeOp(const CpuOp &op);

    /** Decode @p programs into @p img (fresh interning universe). */
    void decodeImageInto(const std::vector<CpuProgram> &programs,
                         DecodedImage &img);

    /** Digest over the decoded arrays. */
    static std::uint64_t fingerprintOf(const DecodedImage &img);

    /** Stable handler order: image fingerprints fold a handler's
     * index in this table. */
    using OpHandler = void (CpuMachine::*)(int, const DecodedOp &,
                                           Tick);
    static const OpHandler *handlerTable(std::size_t &count);

    Tick transferLatency(const Line &line, const HwPlace &to);

    /** Reserve a slot at the machine-wide ordering point. */
    Tick coherencePointSlot(Tick ready);
    Tick aluCost(CpuOpKind kind, DataType dtype) const;
    Tick barrierLatency(int team_size);

    /** Run ops for thread @p tid starting at the queue's now(). */
    void step(int tid);

    /** Advance past the current op and schedule the next step. */
    void finishOp(int tid, Tick done);

    /** Handle team-wide barrier arrival; returns true if blocked. */
    void arriveBarrier(int tid, Tick when);

    // --- Decoded-op handlers (one per CpuOpKind family) ---
    void execLoad(int tid, const DecodedOp &op, Tick start);
    void execStore(int tid, const DecodedOp &op, Tick start);
    void execAtomicStore(int tid, const DecodedOp &op, Tick start);
    void execAtomicRmw(int tid, const DecodedOp &op, Tick start);
    void execFence(int tid, const DecodedOp &op, Tick start);
    void execBarrier(int tid, const DecodedOp &op, Tick start);
    void execLockAcquire(int tid, const DecodedOp &op, Tick start);
    void execLockRelease(int tid, const DecodedOp &op, Tick start);
    void execAlu(int tid, const DecodedOp &op, Tick start);

    /** Acquire exclusive ownership for a store-family op. */
    Tick acquireExclusive(Line &line, const HwPlace &place, Tick start,
                          Tick alu_cost, bool ordering_point);

    // --- Steady-state loop batching (sim::LoopBatcher::Host) ---
    // The batcher decides when and how far to jump; the machine
    // supplies its state encoding (max-registers below the liveness
    // floor canonicalize to one dead value) and the register shift.

    void encodeState(Tick base,
                     std::vector<std::uint64_t> &out) const override;
    void shiftTimes(Tick delta) override;
    long &itersLeft(int tid) override { return threads_[tid].iters_left; }

    CpuConfig cfg_;
    Affinity affinity_;
    Pcg32 rng_;
    sim::EventQueue eq_;
    sim::StatSet stats_;

    std::vector<ThreadCtx> threads_;
    std::vector<HwPlace> places_;
    std::vector<Tick> core_free_;
    std::vector<std::vector<DecodedOp>> decoded_;
    std::vector<Line> lines_;
    std::vector<LockState> locks_;
    std::unordered_map<std::uint64_t, int> line_index_;
    std::unordered_map<int, int> lock_index_;
    Tick coherence_point_free_ = 0;

    /** Decoded images by key; shared so clones stay O(dirty bytes). */
    std::unordered_map<std::uint64_t,
                       std::shared_ptr<const DecodedImage>>
        images_;

    std::vector<int> warm_left_;

    // Team-wide barrier (CpuOpKind::Barrier) rendezvous state.
    int barrier_arrivals_ = 0;
    Tick barrier_first_arrival_ = 0;
    Tick barrier_last_arrival_ = 0;
    std::vector<int> barrier_waiters_;

    // Alignment join between warmup and the timed region.
    int align_arrivals_ = 0;
    Tick align_last_ = 0;
    std::vector<int> align_waiters_;

    /** Steady-state loop batching; threads are its actors. */
    sim::LoopBatcher lb_{*this, eq_, stats_, rng_};
};

} // namespace syncperf::cpusim

#endif // SYNCPERF_CPUSIM_MACHINE_HH
