/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events scheduled for the same tick execute in (priority, insertion
 * order), which makes every simulation in this repository
 * reproducible bit-for-bit regardless of container internals.
 *
 * The queue is the innermost loop of every simulated machine, so it
 * is a calendar queue with an allocation-free hot path:
 *
 * - Callbacks live in a small-buffer slot of a dense free-listed side
 *   table (heap fallback only for oversized captures), so the table
 *   stays as small as the peak number of in-flight events.
 * - Events within one "year" of the current bucket sit in a
 *   power-of-two ring of tick buckets: intrusive singly linked lists
 *   threaded through a per-slot node array, plus a bitmap of
 *   non-empty buckets that run() scans a word at a time. Scheduling
 *   is a push onto the bucket's list; a bucket is sorted into
 *   (tick, priority, seq) order once, when the scan reaches it, and
 *   later events for the current bucket are inserted in order.
 * - Events past the year wait in a small 4-ary overflow heap and
 *   migrate into the ring as the scan advances.
 * - The geometry (bucket count, bucket width) sizes itself from the
 *   pending population and its tick spread. It only regrows when the
 *   population outgrows the ring, the overflow heap fills, or the
 *   current bucket crowds, and reset() keeps it, so a reused machine
 *   schedules into a warm ring.
 *
 * Steady-state schedule()/run() cycles on a reused queue perform
 * zero heap allocations per event. Execution order is the total
 * order (tick, priority, schedule call order) -- unique per event --
 * so it is independent of the ring's geometry and of slot reuse, and
 * results stay reproducible bit-for-bit.
 */

#ifndef SYNCPERF_SIM_EVENT_QUEUE_HH
#define SYNCPERF_SIM_EVENT_QUEUE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace syncperf::sim
{

/**
 * Type-erased nullary callback with a small-buffer slot.
 *
 * Callables up to @ref inline_size bytes (and nothrow-movable) are
 * stored inline; larger ones fall back to a single heap allocation.
 * Move-only; supports move-only callables.
 */
class EventCallback
{
  public:
    /** Inline storage: fits every machine callback in this repo
     * (two-pointer lambdas, std::function). */
    static constexpr std::size_t inline_size = 48;

    EventCallback() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventCallback>>>
    EventCallback(F &&fn) // NOLINT(google-explicit-constructor)
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (buf_) Fn(std::forward<F>(fn));
            ops_ = &inline_ops<Fn>;
        } else {
            *reinterpret_cast<Fn **>(buf_) =
                new Fn(std::forward<F>(fn));
            ops_ = &boxed_ops<Fn>;
        }
    }

    EventCallback(EventCallback &&other) noexcept { moveFrom(other); }

    EventCallback &
    operator=(EventCallback &&other) noexcept
    {
        if (this != &other) {
            destroy();
            moveFrom(other);
        }
        return *this;
    }

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { destroy(); }

    void operator()() { ops_->invoke(buf_); }

    explicit operator bool() const { return ops_ != nullptr; }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /** Move-construct into @p dst from @p src, destroying src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= inline_size &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    template <typename Fn>
    static constexpr Ops inline_ops = {
        [](void *p) { (*static_cast<Fn *>(p))(); },
        [](void *dst, void *src) noexcept {
            auto *from = static_cast<Fn *>(src);
            ::new (dst) Fn(std::move(*from));
            from->~Fn();
        },
        [](void *p) noexcept { static_cast<Fn *>(p)->~Fn(); },
    };

    template <typename Fn>
    static constexpr Ops boxed_ops = {
        [](void *p) { (**static_cast<Fn **>(p))(); },
        [](void *dst, void *src) noexcept {
            *static_cast<Fn **>(dst) = *static_cast<Fn **>(src);
        },
        [](void *p) noexcept { delete *static_cast<Fn **>(p); },
    };

    void
    moveFrom(EventCallback &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_ != nullptr) {
            ops_->relocate(buf_, other.buf_);
            other.ops_ = nullptr;
        }
    }

    void
    destroy() noexcept
    {
        if (ops_ != nullptr) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[inline_size];
    const Ops *ops_ = nullptr;
};

/**
 * Calendar event queue with stable same-tick ordering.
 *
 * Not thread safe: each simulated machine owns one queue and runs it
 * from a single host thread.
 */
class EventQueue
{
  public:
    /** Default event priority; lower runs first within a tick. */
    static constexpr int default_priority = 0;

    /**
     * Schedule @p cb to run at absolute time @p when.
     *
     * @param when Absolute tick; must be >= now().
     * @param cb Action to execute (any nullary callable, including
     *           move-only ones).
     * @param priority Tie-break within a tick; lower runs first.
     */
    void schedule(Tick when, EventCallback cb,
                  int priority = default_priority);

    /** Schedule relative to the current time. */
    void
    scheduleIn(Tick delay, EventCallback cb,
               int priority = default_priority)
    {
        schedule(now_ + delay, std::move(cb), priority);
    }

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Pending event count. */
    std::size_t pending() const { return live_; }

    /** True when no events remain. */
    bool empty() const { return live_ == 0; }

    /**
     * Run events until the queue drains.
     *
     * @return The tick of the last executed event (or now() if none).
     */
    Tick run();

    /** Total number of events executed over the queue's lifetime. */
    std::uint64_t executed() const { return executed_; }

    /** High-water pending() mark since construction or reset(). */
    std::size_t maxPending() const { return max_pending_; }

    /** Sentinel tick: nothing pending / no horizon pin. */
    static constexpr Tick no_tick = ~Tick{0};

    /**
     * Tick of the earliest pending event, or no_tick when the queue
     * is empty: the first non-empty bucket's earliest event, or the
     * overflow heap's root when the ring is empty.
     */
    Tick earliestPending() const;

    /**
     * For each priority p in [0, out.size()), set out[p] to the tick
     * of p's earliest pending event, or no_tick when p has none
     * scheduled. Priorities outside the range are ignored. Linear in
     * the pending set (a batching-boundary query, not a hot-path
     * one). The machines use actor indices as priorities, so this
     * yields each actor's next wake-up -- the liveness floor for
     * actor-local time stamps, which only that actor's later ops can
     * read.
     */
    void earliestPendingPerPriority(std::vector<Tick> &out) const;

    /**
     * Append a canonical encoding of the pending set to @p out: the
     * pending count, then a (when - base, biased priority) pair per
     * event in execution order. Two queues with equal encodings
     * against their respective bases execute the same event pattern
     * at the same offsets, whatever their ring geometry or
     * schedule-sequence numbers.
     */
    void encodePending(Tick base, std::vector<std::uint64_t> &out) const;

    /**
     * Add @p delta to the tick of every pending event. Relative order
     * is untouched -- the packed key makes this a monotone transform
     * -- so this is how the loop batcher advances a whole
     * steady-state window in O(pending): the ring is rebuilt around
     * the shifted events. Panics, before changing anything, when a
     * shifted tick would leave the packed 40-bit range.
     */
    void shiftPending(Tick delta);

    /**
     * Pin the batching horizon at @p when: the loop batcher never
     * jumps a window past the pin. Hook for fault-injection points
     * and tests; cleared by clearHorizonPin() and reset().
     */
    void pinHorizon(Tick when) { horizon_pin_ = when; }

    /** Remove the horizon pin. */
    void clearHorizonPin() { horizon_pin_ = no_tick; }

    /** Current horizon pin, or no_tick when unpinned. */
    Tick horizonPin() const { return horizon_pin_; }

    /**
     * Return the queue to its initial state (time 0, nothing
     * pending) while keeping allocated capacity and the ring
     * geometry, so a reused machine schedules into warm buffers.
     * Pending callbacks are destroyed without running.
     */
    void reset();

    /**
     * Number of callback slots currently in use (test hook). Zero
     * whenever the queue drains, so repeated run() cycles on one
     * queue cannot accumulate stale bookkeeping.
     */
    std::size_t idWindow() const { return slots_.size() - free_.size(); }

    /**
     * Pre-size the queue for @p events concurrently pending events:
     * the slot table and the ring both grow to hold that many, so a
     * machine cloned from a warmed template never pays the
     * incremental grow-as-you-go allocations of its first run.
     * Execution order is (tick, priority, schedule order) --
     * independent of slot indices and ring geometry -- so this cannot
     * change any simulation result. Never shrinks.
     */
    void reserve(std::size_t events);

    /** Allocated slot-table size (the warm capacity reserve() and
     * reset() preserve); the clone path copies this from a template. */
    std::size_t slotCapacity() const { return slots_.size(); }

  private:
    /** Priority bias: int priorities in [-2^23, 2^23) map onto the
     * unsigned 24-bit field of the packed ordering key (the machines
     * use warp/thread indices as priorities, and a big reduction
     * grid holds far more than 2^16 warps). */
    static constexpr std::uint64_t priority_bias = 1ULL << 23;

    /** Bits of the packed key below the tick; schedule() asserts
     * ticks fit the 40 above (2^40 cycles is minutes of simulated
     * time at GPU clocks -- orders of magnitude beyond any run). */
    static constexpr unsigned when_shift = 24;

    /** One past the largest tick the packed key holds. */
    static constexpr Tick tick_limit = Tick{1} << (64 - when_shift);

    /** End-of-list / empty-bucket marker. */
    static constexpr std::uint32_t nil = ~std::uint32_t{0};

    /**
     * Ordering key and ring link of one slot.
     *
     * hi = tick : 40 | biased priority : 24 -- one compare orders by
     * (tick, priority). seq breaks remaining ties by schedule call
     * order, compared circularly (see before()), so the 32-bit
     * counter never wraps incorrectly while fewer than 2^31 events
     * coexist.
     */
    struct Node
    {
        std::uint64_t hi;
        std::uint32_t seq;
        std::uint32_t next; ///< next slot in the bucket, or nil
    };

    /** Ordering record: a node's key plus its slot, 16 packed bytes,
     * so overflow-heap sifts and bucket sorts compare adjacent
     * records instead of chasing scattered nodes. */
    struct Key
    {
        std::uint64_t hi;
        std::uint64_t lo; ///< seq : 32 | slot : 32

        std::uint32_t slot() const
        {
            return static_cast<std::uint32_t>(lo);
        }
    };

    /** True when @p a executes before @p b: the total order (tick,
     * priority, schedule order), unique per event. */
    static bool
    before(const Key &a, const Key &b)
    {
        if (a.hi != b.hi)
            return a.hi < b.hi;
        // Circular 32-bit comparison of the schedule seqs: exact as
        // long as coexisting events span < 2^31 schedule calls.
        return static_cast<std::int32_t>(
                   static_cast<std::uint32_t>(a.lo >> 32) -
                   static_cast<std::uint32_t>(b.lo >> 32)) < 0;
    }

    /** Place a keyed node, at or past the current bucket, into its
     * ring bucket (unsorted) or the overflow heap. */
    void place(std::uint32_t slot);

    /** Insert into the current bucket, which the scan has sorted. */
    void insertSorted(std::uint32_t slot);

    /** Push onto the overflow heap. */
    void farPush(std::uint32_t slot);

    /** Pop the overflow heap's root. */
    std::uint32_t farPop();

    /** Move overflow events that now fall within the year into the
     * ring. */
    void migrate();

    /** Sort bucket @p idx into execution order (the scan reached
     * it). */
    void sortBucket(std::size_t idx);

    /** Ring index of the first non-empty bucket at or after the
     * current one; the ring must hold an event. */
    std::size_t firstBucket() const;

    /** Unlink and return the earliest pending event's slot. */
    std::uint32_t popNext();

    /** Empty every ring bucket. */
    void clearRing();

    /** Call @p fn(idx) for every non-empty ring bucket, in year
     * order: from the current bucket around the ring. */
    template <typename F>
    void
    forEachBucket(F &&fn) const
    {
        const auto visit = [&](std::size_t w, std::uint64_t bits) {
            for (; bits != 0; bits &= bits - 1) {
                fn(w << 6 |
                   static_cast<std::size_t>(std::countr_zero(bits)));
            }
        };
        const std::size_t words = bitmap_.size();
        if (words == 0)
            return;
        const std::size_t start = base_ & mask_;
        const std::uint64_t from_start = ~std::uint64_t{0}
                                         << (start & 63);
        visit(start >> 6, bitmap_[start >> 6] & from_start);
        for (std::size_t i = 1; i < words; ++i) {
            const std::size_t w = ((start >> 6) + i) & (words - 1);
            visit(w, bitmap_[w]);
        }
        // The start word's low bits are the year's last buckets.
        visit(start >> 6, bitmap_[start >> 6] & ~from_start);
    }

    /** Call @p fn(slot) for every pending event: the ring's buckets
     * in year order (each unsorted unless current), then the
     * overflow heap in heap order. */
    template <typename F>
    void
    forEachPending(F &&fn) const
    {
        forEachBucket([&](std::size_t idx) {
            for (std::uint32_t n = heads_[idx]; n != nil;
                 n = nodes_[n].next) {
                fn(n);
            }
        });
        for (const Key &k : far_)
            fn(k.slot());
    }

    /** Ordering record of @p slot's node. */
    Key
    keyOf(std::uint32_t slot) const
    {
        return Key{nodes_[slot].hi,
                   static_cast<std::uint64_t>(nodes_[slot].seq) << 32 |
                       slot};
    }

    /**
     * Re-place every pending event with its tick advanced by @p delta
     * into a ring of @p buckets buckets (a power of two, never fewer
     * than today) of 2^@p shift ticks each, whose year starts at the
     * bucket of @p anchor -- a tick no pending event precedes.
     */
    void rebuild(std::size_t buckets, unsigned shift, Tick anchor,
                 Tick delta);

    /** Re-derive the geometry from the pending set, growing the ring
     * to at least twice @p population buckets; the year covers all
     * but the farthest sixteenth of pending events. */
    void regrid(std::size_t population);

    std::vector<EventCallback> slots_;
    std::vector<Node> nodes_;         ///< parallel to slots_
    std::vector<std::uint32_t> free_; ///< reusable slot indices

    std::vector<std::uint32_t> heads_; ///< bucket list heads (ring)
    std::vector<std::uint64_t> bitmap_; ///< non-empty buckets
    std::vector<Key> far_; ///< 4-ary min-heap of events past the year
    std::size_t mask_ = 0;  ///< heads_.size() - 1
    unsigned shift_ = 0;    ///< log2 of the bucket width in ticks
    Tick base_ = 0;         ///< absolute index of the current bucket
    bool base_sorted_ = false; ///< current bucket in execution order
    std::size_t ring_live_ = 0; ///< events in the ring
    std::size_t grow_at_ = 0;   ///< population that regrows the ring
    /** Insertion steps spent in the sorted current bucket since the
     * last regrid, against executed() at that point: a crowded
     * current bucket means the buckets are too wide. */
    std::uint64_t crowd_ = 0;
    std::uint64_t crowd_mark_ = 0;

    std::uint32_t next_seq_ = 0; ///< schedule-order tie-break
    Tick now_ = 0;
    std::size_t live_ = 0;
    std::size_t max_pending_ = 0;
    std::uint64_t executed_ = 0;
    Tick horizon_pin_ = no_tick;
    /** Reused buffer of bucket sorts, rebuilds, regrids and
     * encodePending(). */
    mutable std::vector<Key> scratch_;
};

} // namespace syncperf::sim

#endif // SYNCPERF_SIM_EVENT_QUEUE_HH
