/**
 * @file
 * The steady-state loop batcher shared by the CPU and GPU machines.
 *
 * Both machines detect when a measured loop has settled into a
 * periodic steady state and then advance whole periods algebraically
 * (docs/performance.md, "Loop batching"). The policy -- which actor
 * drives the check, when to try, which earlier boundary closes a
 * cycle, and how far to jump -- lives here once. A machine supplies
 * only what is specific to it: the encoding of its dynamic state, the
 * shift of its absolute-time registers, and its actors' remaining
 * iteration counts (LoopBatcher::Host).
 *
 * The counters describe how much of a run's timed work was covered
 * by jumps; the targets aggregate them into the campaign's
 * deterministic metrics and the --explain batch-ratio annotations.
 * They never feed the simulated results: batching changes
 * wall-clock only.
 */

#ifndef SYNCPERF_SIM_LOOP_BATCH_HH
#define SYNCPERF_SIM_LOOP_BATCH_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "sim/event_queue.hh"
#include "sim/stat.hh"
#include "sim/types.hh"

namespace syncperf::sim
{

/** Per-run loop-batching activity of one machine. */
struct LoopBatchCounters
{
    /** Timed iterations advanced algebraically (summed over actors). */
    std::uint64_t batched_iters = 0;

    /** Batch windows applied (each covers >= 1 period). */
    std::uint64_t windows = 0;

    /**
     * Trigger-boundary checks that did not batch: fingerprint
     * mismatch (contention pattern shifted, randomness consumed, a
     * phase boundary inside the horizon) or a window too short to be
     * worth jumping. Any run with at least two timed iterations
     * records at least one -- the boundaries nearest the loop end
     * can never batch past it.
     */
    std::uint64_t fallbacks = 0;

    /** Timed iterations the run's programs asked for in total. */
    std::uint64_t total_iters = 0;

    void
    merge(const LoopBatchCounters &o)
    {
        batched_iters += o.batched_iters;
        windows += o.windows;
        fallbacks += o.fallbacks;
        total_iters += o.total_iters;
    }
};

/**
 * Period detector and jumper for one machine's measured loops.
 *
 * The machine calls boundary() at every timed body-iteration
 * boundary of an actor (a CPU thread or GPU warp). The first actor
 * with room to batch becomes the trigger; at its boundaries the
 * batcher encodes the whole machine state and looks for an equal
 * encoding among the last ring_size anchors. A match proves the
 * dynamics periodic with the anchors' tick distance as the period,
 * so K whole periods are applied at once: pending events and live
 * registers shift by K periods, every actor's iteration counter
 * drops by K times its per-period progress, and the activity
 * counters replay K copies of the period's deltas. Results are
 * bit-identical to single-stepping.
 */
class LoopBatcher
{
  public:
    /** The machine-specific half of batching. */
    class Host
    {
      public:
        /**
         * Encode the complete dynamic machine state relative to the
         * boundary tick @p base: live timing registers as exact
         * offsets, provably dead ones canonicalized, the pending
         * event set in execution order, and the rng state verbatim.
         * Equal encodings at two boundaries must prove the dynamics
         * periodic with the boundaries' tick distance as the period.
         */
        virtual void encodeState(Tick base,
                                 std::vector<std::uint64_t> &out) const = 0;

        /** Add @p delta to every live absolute-time register kept
         * outside the event queue. */
        virtual void shiftTimes(Tick delta) = 0;

        /** Timed iterations left for @p actor, counting the one whose
         * boundary is being checked. */
        virtual long &itersLeft(int actor) = 0;

      protected:
        ~Host() = default;
    };

    /** Anchors kept for matching. One degenerates to adjacent-
     * boundary matching; several let contended regimes that rotate
     * through P contenders -- and so only recur every P boundaries --
     * still close their cycle. */
    static constexpr int ring_size = 8;

    /** Bind to the machine's state codec, queue, counters and jitter
     * stream (all owned by the machine, which outlives the batcher). */
    LoopBatcher(Host &host, EventQueue &eq, StatSet &stats,
                const Pcg32 &rng)
        : host_(host), eq_(eq), stats_(stats), rng_(rng)
    {
    }

    LoopBatcher(const LoopBatcher &) = delete;
    LoopBatcher &operator=(const LoopBatcher &) = delete;

    /** Enable/disable batching (default on); see the machines'
     * setLoopBatch(). */
    void setEnabled(bool on) { enabled_ = on; }

    /** Pin the horizon at @p when for every subsequent run (no_tick
     * unpins); see the machines' setBatchHorizonPin(). */
    void setHorizonPin(Tick when) { pin_ = when; }

    /** Activity of the most recent run. */
    const LoopBatchCounters &counters() const { return counters_; }

    /**
     * Start a run of @p actors actors asking for @p total_iters timed
     * iterations in total. Call after the event queue's reset (the
     * sticky horizon pin is re-applied to it) and before any
     * boundary.
     */
    void reset(int actors, std::uint64_t total_iters);

    /**
     * Timed body-iteration boundary of @p actor at tick @p done,
     * before its iteration counter is decremented. Returns the tick
     * shift of the jump taken (0 when the boundary single-steps);
     * the caller adds it to the actor's continuation tick.
     */
    Tick
    boundary(int actor, Tick done)
    {
        if (!enabled_)
            return 0;
        // An actor this close to its loop exit can never complete the
        // anchor-then-match sequence with k >= 1 (margin 2), so
        // encoding at its boundaries is pure overhead: its tail
        // single-steps, and the trigger role stays -- or becomes --
        // vacant for an actor with room to batch (e.g. the next wave
        // of a multi-wave launch).
        if (host_.itersLeft(actor) < 4) {
            actorLeft(actor);
            return 0;
        }
        if (trigger_ < 0)
            trigger_ = actor;
        if (actor != trigger_)
            return 0;
        // Backoff: a boundary whose last attempt fell back rarely
        // matches the very next one, and every attempt costs a
        // whole-machine encode. Exponentially spaced retries keep
        // hopeless (contended) regimes near single-step speed; a
        // skipped boundary only forgoes a jump, so results are
        // unchanged.
        if (skip_ > 0) {
            --skip_;
            return 0;
        }
        return attempt(done);
    }

    /**
     * @p actor left its timed loop (or is about to). If it was the
     * trigger, let a remaining actor drive any tail batching. The
     * backoff state deliberately survives the handoff: the machine's
     * regime did not change with the trigger.
     */
    void
    actorLeft(int actor)
    {
        if (actor == trigger_) {
            trigger_ = -1;
            ring_n_ = 0;
        }
    }

    /** Adopt @p tmpl's warmed buffer capacities (no state). */
    void reserveLike(const LoopBatcher &tmpl);

  private:
    /** One fully-encoded trigger boundary the matcher can prove a
     * period against: a later boundary whose fingerprint equals an
     * anchor's closed a cycle, however many boundaries apart they
     * are (distances are measured in ticks and per-actor iterations,
     * not anchor slots, so backoff gaps between anchors cost
     * nothing). */
    struct Anchor
    {
        std::uint64_t hash = 0;   ///< fast reject before comparing fp
        std::vector<std::uint64_t> fp;
        Tick boundary = 0;
        std::uint64_t rng = 0;
        std::vector<long> iters;  ///< per-actor iters_left at boundary
        StatSnapshot stats;
    };

    /** The encode-match-jump half of boundary(). */
    Tick attempt(Tick done);

    /** Count a fallback and lengthen the backoff. */
    void fallBack();

    /** Record the boundary at @p done (fingerprint in fp_, which is
     * recycled) as the newest anchor, evicting the oldest. */
    void pushAnchor(Tick done);

    Host &host_;
    EventQueue &eq_;
    StatSet &stats_;
    const Pcg32 &rng_;

    bool enabled_ = true;
    Tick pin_ = EventQueue::no_tick;  ///< sticky, re-applied by reset()
    int actors_ = 0;
    int trigger_ = -1;
    long skip_ = 0;       ///< boundaries left before retrying
    long penalty_ = 1;    ///< next backoff length (doubles)

    /** Ring of the most recent anchors, newest at ring_head_. */
    std::array<Anchor, ring_size> ring_;
    int ring_head_ = 0;   ///< slot of the newest anchor
    int ring_n_ = 0;      ///< valid anchors (0 = disarmed)
    std::vector<std::uint64_t> fp_;  ///< scratch for the current fp

    LoopBatchCounters counters_;
};

} // namespace syncperf::sim

#endif // SYNCPERF_SIM_LOOP_BATCH_HH
