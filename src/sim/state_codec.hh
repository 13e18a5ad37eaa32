/**
 * @file
 * The machines' state tables and the walkers derived from them.
 *
 * Each simulator keeps its per-run dynamic state in one aggregate
 * `State`. A static `visit(s, v)` on it -- and on every record type
 * it holds -- names each member exactly once, as `v(class, member...)`
 * with its field class (docs/performance.md, "One state table per
 * machine"). The
 * batcher's fingerprint (StateEncoder) and time shift (StateShifter),
 * run()'s zeroing (resetState) and cloneFrom's reserve (reserveLike)
 * are walks over that one listing. A member is a scalar, a vector or
 * deque of them, or a hash map of them; `records` and `actors` take
 * records, or containers of them, walked through the record's visit.
 *
 * Every visit opens with a structured binding over all members of its
 * record, so a member added without a table entry fails to compile.
 */

#ifndef SYNCPERF_SIM_STATE_CODEC_HH
#define SYNCPERF_SIM_STATE_CODEC_HH

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/event_queue.hh"

namespace syncperf::sim
{

// Field classes; Identity, MaxReg and Stamp carry a guard.
struct Identity { bool on = true; };   ///< verbatim; dead while !on
struct MaxReg { bool on = true; bool actor = false; };  ///< see encoder
struct Stamp { bool on = true; };      ///< exact offset; 0 while !on
struct Fixed {};    ///< geometry, outputs, counters: not encoded
struct Warm {};     ///< decode-time buffers: not even reset
struct Records {};  ///< records, walked through their own visit
struct Actors {};   ///< records indexed by event-queue priority

inline constexpr Identity identity;
inline constexpr MaxReg maxreg;
inline constexpr MaxReg actor_maxreg{true, true};
inline constexpr Stamp past;
inline constexpr Fixed fixed;
inline constexpr Warm warm;
inline constexpr Records records;
inline constexpr Actors actors;

constexpr Identity identityWhen(bool on) { return {on}; }
constexpr MaxReg maxregLiveWhen(bool on) { return {on}; }
constexpr Stamp rendezvous(bool on) { return {on}; }

namespace state_detail
{

template <class T>
concept Map = requires { typename T::mapped_type; };

template <class T>
concept Range = !Map<T> && requires(T &t) { t.begin(); };

} // namespace state_detail

/**
 * The boundary fingerprint: appends a state table's encoding,
 * relative to the boundary tick, to a word vector.
 *
 * Liveness floor: a max-register at or below both the boundary and
 * every pending event can never win another max() against a future
 * time, so it is canonicalized to one dead value; above the floor it
 * is encoded as its exact offset from the boundary. An actor's own
 * stamps are read only by its later ops, which issue no earlier than
 * the actor's own next event -- a tighter floor.
 */
class StateEncoder
{
  public:
    /** The canonical value of a register nothing can observe. */
    static constexpr std::uint64_t dead = std::uint64_t{1} << 63;

    /** Buffers reused across encodes (kept warm by the batcher). */
    struct Scratch
    {
        std::vector<std::uint64_t> keys;  ///< hash-map keys, sorted
        std::vector<Tick> actor_next;     ///< per-actor next events
    };

    StateEncoder(const EventQueue &eq, Tick base,
                 std::vector<std::uint64_t> &out, Scratch &scratch)
        : eq_(eq), base_(base),
          floor_(std::min(eq.earliestPending(), base)),
          actor_floor_(floor_), out_(out), scratch_(scratch)
    {
    }

    template <class C, class... T>
    void
    operator()(C c, const T &...v)
    {
        if constexpr (std::is_same_v<C, Identity>) {
            (pack(c, v), ...);
            flush();
        } else if constexpr (!std::is_same_v<C, Fixed> &&
                             !std::is_same_v<C, Warm>) {
            (put(c, v), ...);
        }
    }

  private:
    /** Identity scalars of one entry share words, each at a bit
     * offset fixed by the types before it, so equal words still mean
     * equal fields (and the anchor ring stays small). */
    template <class T>
    void
    pack(Identity c, const T &v)
    {
        if constexpr (std::is_scalar_v<T>) {
            constexpr int bits = std::is_same_v<T, bool> ? 1
                                                         : 8 * sizeof(T);
            if (!c.on || used_ + bits > 64)
                flush();
            if (!c.on) {
                out_.push_back(dead);
                return;
            }
            const auto x = static_cast<std::uint64_t>(v);
            word_ |= (bits == 64 ? x : x & ((std::uint64_t{1} << bits) - 1))
                     << used_;
            used_ += bits;
        } else {
            flush();
            put(c, v);
        }
    }

    void
    flush()
    {
        if (used_ > 0)
            out_.push_back(word_);
        word_ = 0;
        used_ = 0;
    }

    template <class C, class T>
    void
    put(C c, const T &v)
    {
        if constexpr (state_detail::Map<T>) {
            // Key order: iteration order is not part of the state.
            auto &keys = scratch_.keys;
            const std::size_t mark = keys.size();
            for (const auto &entry : v)
                keys.push_back(entry.first);
            std::sort(keys.begin() + static_cast<std::ptrdiff_t>(mark),
                      keys.end());
            out_.push_back(v.size());
            for (std::size_t i = mark; i < mark + v.size(); ++i) {
                out_.push_back(keys[i]);
                put(c, v.find(keys[i])->second);
            }
            keys.resize(mark);
        } else if constexpr (std::is_same_v<C, Actors>) {
            auto &next = scratch_.actor_next;
            next.resize(v.size());
            eq_.earliestPendingPerPriority(next);
            out_.push_back(v.size());
            for (std::size_t i = 0; i < v.size(); ++i) {
                actor_floor_ = next[i] == EventQueue::no_tick
                                   ? floor_
                                   : std::max(floor_, next[i]);
                T::value_type::visit(v[i], *this);
            }
            actor_floor_ = floor_;
        } else if constexpr (state_detail::Range<T>) {
            out_.push_back(v.size());
            for (const auto &e : v)
                put(c, e);
        } else if constexpr (std::is_same_v<C, Records>) {
            T::visit(v, *this);
        } else if constexpr (std::is_same_v<C, Identity>) {
            out_.push_back(c.on ? static_cast<std::uint64_t>(v) : dead);
        } else if constexpr (std::is_same_v<C, MaxReg>) {
            const Tick floor = c.actor ? actor_floor_ : floor_;
            out_.push_back(c.on && v > floor ? v - base_ : dead);
        } else {
            static_assert(std::is_same_v<C, Stamp>);
            out_.push_back(c.on ? v - base_ : 0);
        }
    }

    const EventQueue &eq_;
    Tick base_;
    Tick floor_;
    Tick actor_floor_;  ///< the walked actor's floor (else floor_)
    std::uint64_t word_ = 0;  ///< identity scalars packed so far
    int used_ = 0;            ///< bits of word_ in use
    std::vector<std::uint64_t> &out_;
    Scratch &scratch_;
};

/** The batch jump: moves every live absolute tick by a delta.
 * Max-registers shift even when dead or outcome-dead; rendezvous
 * stamps only while their round is open. */
class StateShifter
{
  public:
    explicit StateShifter(Tick delta) : delta_(delta) {}

    template <class C, class... T>
    void
    operator()(C c, T &...v)
    {
        if constexpr (!std::is_same_v<C, Identity> &&
                      !std::is_same_v<C, Fixed> &&
                      !std::is_same_v<C, Warm>)
            (shift(c, v), ...);
    }

  private:
    template <class C, class T>
    void
    shift(C c, T &v)
    {
        if constexpr (state_detail::Map<T>) {
            for (auto &entry : v)
                shift(c, entry.second);
        } else if constexpr (state_detail::Range<T>) {
            for (auto &e : v)
                shift(c, e);
        } else if constexpr (std::is_same_v<C, Records> ||
                             std::is_same_v<C, Actors>) {
            T::visit(v, *this);
        } else if (!std::is_same_v<C, Stamp> || c.on) {
            v += delta_;
        }
    }

    Tick delta_;
};

/** The start of a run: zero every scalar and empty every container
 * (assigning {} keeps a container's capacity), except warm buffers. */
template <class State>
void
resetState(State &s)
{
    State::visit(s, []<class C>(C, auto &...v) {
        if constexpr (!std::is_same_v<C, Warm>)
            ((v = {}), ...);
    });
}

/** Reserve every container of @p dst to @p src's warm capacity
 * (cloneFrom); no state is copied. */
template <class State>
void
reserveLike(State &dst, const State &src)
{
    // Both walks list the same members in the same order; hash maps
    // reserve by size, members without a reserve() by nothing.
    std::vector<std::size_t> caps;
    State::visit(src, [&caps](auto, const auto &...v) {
        const auto cap = [](const auto &m) -> std::size_t {
            if constexpr (requires { m.capacity(); })
                return m.capacity();
            else if constexpr (requires { m.bucket_count(); })
                return m.size();
            else
                return 0;
        };
        (caps.push_back(cap(v)), ...);
    });
    auto cap = caps.begin();
    State::visit(dst, [&cap](auto, auto &...v) {
        const auto reserve = [](auto &m, std::size_t n) {
            if constexpr (requires { m.reserve(n); })
                m.reserve(n);
        };
        (reserve(v, *cap++), ...);
    });
}

/**
 * One round of a barrier: its waiters in arrival order and the first
 * and last arrival ticks. Both stamps are live while the round is
 * open -- first feeds a min, and last can still win its max when
 * issue contention reorders arrivals.
 */
struct Arrivals
{
    std::vector<int> waiters;
    Tick first = 0;
    Tick last = 0;

    int count() const { return static_cast<int>(waiters.size()); }

    void
    arrive(int who, Tick when)
    {
        first = waiters.empty() ? when : std::min(first, when);
        last = std::max(last, when);
        waiters.push_back(who);
    }

    template <class S, class V>
    static void visit(S &a, V &&v)
    {
        auto &[waiters, first, last] = a;
        v(identity, waiters);
        v(rendezvous(!waiters.empty()), first, last);
    }
};

} // namespace syncperf::sim

#endif // SYNCPERF_SIM_STATE_CODEC_HH
