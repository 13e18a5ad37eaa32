/**
 * @file
 * Unit tests for the discrete-event queue.
 */

#include <gtest/gtest.h>

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <set>
#include <vector>

#include "common/logging.hh"
#include "sim/event_queue.hh"

namespace syncperf::sim
{
namespace
{

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickOrderedByPriorityThenInsertion)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(1); }, 1);
    eq.schedule(5, [&] { order.push_back(0); }, 0);
    eq.schedule(5, [&] { order.push_back(2); }, 1);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(10, [&] {
        eq.scheduleIn(5, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 15u);
}

TEST(EventQueue, EventsMaySpawnEvents)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 5)
            eq.scheduleIn(1, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.now(), 4u);
    EXPECT_EQ(eq.executed(), 5u);
}

TEST(EventQueue, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    ScopedLogCapture capture;
    EXPECT_THROW(eq.schedule(5, [] {}), LogDeathException);
}

TEST(EventQueue, PendingCountsLiveEvents)
{
    EventQueue eq;
    eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, MoveOnlyCallbacksAreSupported)
{
    EventQueue eq;
    int seen = 0;
    auto payload = std::make_unique<int>(41);
    eq.schedule(3, [&seen, p = std::move(payload)] { seen = *p + 1; });
    eq.run();
    EXPECT_EQ(seen, 42);
}

TEST(EventQueue, LargeCapturesFallBackToTheHeap)
{
    EventQueue eq;
    std::array<std::uint64_t, 16> big{};
    big.fill(7);
    std::uint64_t sum = 0;
    eq.schedule(1, [big, &sum] {
        for (auto v : big)
            sum += v;
    });
    eq.run();
    EXPECT_EQ(sum, 112u);
}

TEST(EventQueue, IdWindowIsTrimmedWhenDrained)
{
    // A reused machine runs many schedule/run cycles on one queue;
    // the slot bookkeeping must not accumulate across them.
    EventQueue eq;
    for (int cycle = 0; cycle < 100; ++cycle) {
        for (int i = 0; i < 10; ++i)
            eq.scheduleIn(static_cast<Tick>(i), [] {});
        eq.run();
        EXPECT_EQ(eq.idWindow(), 0u);
        EXPECT_EQ(eq.pending(), 0u);
    }
    EXPECT_EQ(eq.executed(), 100u * 10u);
}

TEST(EventQueue, ResetRestoresInitialStateButKillsOldHandles)
{
    // Events pending at the reset are killed: their callbacks are
    // destroyed and never run.
    EventQueue eq;
    bool stale_ran = false;
    eq.schedule(10, [] {});
    eq.run();
    eq.schedule(20, [&] { stale_ran = true; });
    eq.reset();
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.idWindow(), 0u);

    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(1); });
    eq.schedule(1, [&] { order.push_back(0); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(eq.now(), 5u);
    EXPECT_FALSE(stale_ran);
}

// ------------------------------------------------------------------
// Batching-boundary queries (the loop batcher's safety boundary; see
// docs/performance.md, "Loop batching").
// ------------------------------------------------------------------

TEST(EventQueue, ResetClearsHorizonPin)
{
    EventQueue eq;
    EXPECT_EQ(eq.horizonPin(), EventQueue::no_tick);
    eq.pinHorizon(25);
    EXPECT_EQ(eq.horizonPin(), 25u);
    eq.clearHorizonPin();
    EXPECT_EQ(eq.horizonPin(), EventQueue::no_tick);
    // Running the queue keeps the pin; only reset() clears it.
    eq.pinHorizon(123);
    eq.schedule(200, [] {});
    eq.run();
    EXPECT_EQ(eq.horizonPin(), 123u);
    eq.reset();
    EXPECT_EQ(eq.horizonPin(), EventQueue::no_tick);
}

TEST(EventQueue, EarliestPendingPerPriorityTracksEachActor)
{
    EventQueue eq;
    std::vector<Tick> floors(3);

    eq.earliestPendingPerPriority(floors);
    for (Tick t : floors)
        EXPECT_EQ(t, EventQueue::no_tick);

    eq.schedule(40, [] {}, 0);
    eq.schedule(10, [] {}, 0);
    eq.schedule(20, [] {}, 1);
    // Priority 2 has nothing scheduled; priority 7 is outside the
    // caller's window and must be ignored, not written out of range.
    eq.schedule(1, [] {}, 7);

    eq.earliestPendingPerPriority(floors);
    EXPECT_EQ(floors[0], 10u);
    EXPECT_EQ(floors[1], 20u);
    EXPECT_EQ(floors[2], EventQueue::no_tick);
}

TEST(EventQueue, ShiftPendingPreservesOrderAndRelativeGaps)
{
    EventQueue eq;
    std::vector<std::pair<int, Tick>> seen;
    eq.schedule(10, [&] { seen.emplace_back(1, eq.now()); });
    eq.schedule(25, [&] { seen.emplace_back(3, eq.now()); });
    // Same tick, distinct priorities: order within the tick must
    // survive the shift (the packed key makes it a monotone
    // transform).
    eq.schedule(10, [&] { seen.emplace_back(2, eq.now()); }, 7);

    eq.shiftPending(1000);
    eq.run();
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0], (std::pair<int, Tick>{1, 1010u}));
    EXPECT_EQ(seen[1], (std::pair<int, Tick>{2, 1010u}));
    EXPECT_EQ(seen[2], (std::pair<int, Tick>{3, 1025u}));
}

TEST(EventQueue, ShiftPastTheTickRangePanicsBeforeShifting)
{
    // The packed key holds 40 tick bits: a shift that would carry a
    // pending event past them must panic, not wrap it into the past.
    EventQueue eq;
    constexpr Tick last = (Tick{1} << 40) - 10;
    eq.schedule(5, [] {}, 1);
    eq.schedule(last, [] {}, 2);
    {
        ScopedLogCapture capture;
        EXPECT_THROW(eq.shiftPending(10), LogDeathException);
        EXPECT_THROW(eq.shiftPending(Tick{1} << 41), LogDeathException);
    }
    // The failed shifts changed nothing; one that fits still works.
    EXPECT_EQ(eq.earliestPending(), 5u);
    eq.shiftPending(9);
    std::vector<Tick> floors(3);
    eq.earliestPendingPerPriority(floors);
    EXPECT_EQ(floors[1], 14u);
    EXPECT_EQ(floors[2], last + 9);
}

TEST(EventQueue, EncodePendingIsCanonicalAcrossInsertionHistory)
{
    // Two queues holding the same logical pending set -- built in
    // different insertion orders, one in a ring pre-sized for many
    // more events -- must encode identically relative to their
    // bases.
    EventQueue a;
    EventQueue b;
    a.schedule(10, [] {}, 1);
    a.schedule(20, [] {}, 2);
    a.schedule(30, [] {}, 1);

    b.reserve(4096);
    b.schedule(30, [] {}, 1);
    b.schedule(10, [] {}, 1);
    b.schedule(20, [] {}, 2);

    std::vector<std::uint64_t> enc_a;
    std::vector<std::uint64_t> enc_b;
    a.encodePending(0, enc_a);
    b.encodePending(0, enc_b);
    EXPECT_EQ(enc_a, enc_b);

    // A uniformly shifted set encodes identically against the
    // shifted base: this is what makes equal fingerprints imply a
    // periodic window.
    b.shiftPending(500);
    enc_b.clear();
    b.encodePending(500, enc_b);
    EXPECT_EQ(enc_a, enc_b);
}

// ------------------------------------------------------------------
// Differential test: random programs run in lockstep against a
// sorted (tick, priority, seq) reference. Seeded from gtest's random
// seed, which is 0 unless the run shuffles, so a plain run checks a
// fixed slice and `--gtest_shuffle --gtest_repeat=N
// --gtest_random_seed=0` checks N fresh ones.
// ------------------------------------------------------------------

/** One pending event of the reference, in execution order. */
struct RefEvent
{
    Tick when;
    int priority;
    std::uint64_t seq; ///< schedule call order
    std::uint64_t id;

    auto operator<=>(const RefEvent &) const = default;
};

/** Shape of one random program. */
struct Profile
{
    int max_log_delta;   ///< deltas are log-uniform in [0, 2^this]...
    unsigned far_one_in; ///< ...but one in this many (0: none) is
    int far_log_delta;   ///< uniform in [2^max_log_delta, 2^this]
    int initial;         ///< events scheduled before run()
    int budget;          ///< events scheduled in total
};

/**
 * A random program driven through one queue. Every event checks,
 * when it fires, that it is the reference's earliest pending event,
 * then schedules 0-2 successors (some at its own tick, at lower and
 * higher priorities), and now and then probes the batching queries,
 * shifts the pending set, or moves the horizon pin.
 */
class Program
{
  public:
    Program(EventQueue &eq, std::uint64_t seed, Profile profile)
        : eq_(eq), rng_(seed), profile_(profile)
    {
    }

    void
    run()
    {
        for (int i = 0; i < profile_.initial; ++i)
            schedule(eq_.now() + delta(), priority());
        checkQueries(); // no bucket sorted yet
        const Tick end = eq_.run();
        EXPECT_EQ(end, eq_.now());
        EXPECT_TRUE(ref_.empty());
        EXPECT_TRUE(eq_.empty());
        EXPECT_EQ(eq_.idWindow(), 0u);
        EXPECT_EQ(fired_, scheduled_);
    }

    bool failed() const { return failed_; }

  private:
    /** Ticks stay well inside the packed 40-bit range. */
    static constexpr Tick tick_cap = Tick{1} << 38;

    bool coin(unsigned one_in) { return rng_() % one_in == 0; }

    Tick
    delta()
    {
        const Tick far_end = Tick{1} << profile_.far_log_delta;
        const Tick near_end = Tick{1} << profile_.max_log_delta;
        if (profile_.far_one_in != 0 && coin(profile_.far_one_in))
            return near_end + rng_() % (far_end - near_end + 1);
        const auto bits =
            static_cast<int>(rng_() % (profile_.max_log_delta + 1));
        return bits == 0 ? 0 : rng_() & ((Tick{1} << bits) - 1);
    }

    int priority() { return static_cast<int>(rng_() % 12) - 3; }

    void
    schedule(Tick when, int priority)
    {
        if (scheduled_ == profile_.budget || when >= tick_cap)
            return;
        const std::uint64_t id = scheduled_++;
        ref_.insert(RefEvent{when, priority, seq_++, id});
        eq_.schedule(when, [this, id] { fire(id); }, priority);
    }

    void
    fire(std::uint64_t id)
    {
        ++fired_;
        if (failed_)
            return;
        if (ref_.empty() || ref_.begin()->id != id ||
            ref_.begin()->when != eq_.now()) {
            ADD_FAILURE() << "event " << id << " ran at tick "
                          << eq_.now() << "; the reference expected "
                          << (ref_.empty() ? ~0ULL : ref_.begin()->id);
            failed_ = true;
            return;
        }
        const int prio = ref_.begin()->priority;
        ref_.erase(ref_.begin());

        if (coin(16))
            checkQueries();
        if (coin(64)) {
            shift(delta() >> 8);
            checkQueries(); // the shifted ring is unsorted
        }
        if (coin(64)) {
            const Tick pin = coin(2) ? EventQueue::no_tick
                                     : eq_.now() + delta();
            eq_.pinHorizon(pin);
            EXPECT_EQ(eq_.horizonPin(), pin);
        }

        const int children = static_cast<int>(rng_() % 4);
        for (int c = 0; c < (children == 3 ? 1 : children); ++c)
            schedule(eq_.now() + delta(), priority());
        if (coin(8)) {
            schedule(eq_.now(), prio - 1);
            schedule(eq_.now(), prio + 1);
        }
    }

    void
    shift(Tick d)
    {
        eq_.shiftPending(d);
        std::set<RefEvent> shifted;
        for (RefEvent e : ref_) {
            e.when += d;
            shifted.insert(e);
        }
        ref_.swap(shifted);
    }

    void
    checkQueries()
    {
        EXPECT_EQ(eq_.earliestPending(),
                  ref_.empty() ? EventQueue::no_tick : ref_.begin()->when);

        std::vector<Tick> floors(6);
        eq_.earliestPendingPerPriority(floors);
        std::vector<Tick> want(6, EventQueue::no_tick);
        for (const RefEvent &e : ref_) {
            if (e.priority >= 0 && e.priority < 6 &&
                want[static_cast<std::size_t>(e.priority)] ==
                    EventQueue::no_tick) {
                want[static_cast<std::size_t>(e.priority)] = e.when;
            }
        }
        EXPECT_EQ(floors, want);

        const Tick base = eq_.now();
        std::vector<std::uint64_t> got{0xfeed};
        eq_.encodePending(base, got);
        std::vector<std::uint64_t> expect{0xfeed, ref_.size()};
        for (const RefEvent &e : ref_) {
            expect.push_back(e.when - base);
            expect.push_back(
                static_cast<std::uint64_t>(e.priority + (1 << 23)));
        }
        EXPECT_EQ(got, expect);
    }

    EventQueue &eq_;
    std::mt19937_64 rng_;
    Profile profile_;
    std::set<RefEvent> ref_;
    std::uint64_t seq_ = 0;
    int scheduled_ = 0;
    int fired_ = 0;
    bool failed_ = false;
};

/** Profiles from dense same-tick bursts to GPU-like wide deltas. */
constexpr std::array<Profile, 7> profiles = {{
    {30, 0, 0, 64, 3000},      // log-uniform over the whole range
    {10, 256, 14, 512, 8000},  // a few events past the year: migration
    {2, 0, 0, 1024, 3000},     // crowded buckets, mostly same-tick ties
    {18, 100, 30, 2048, 6000}, // GPU-shaped: thousands of chains
    {8, 0, 0, 16, 2000},
    {0, 0, 0, 300, 600},       // every event at one tick
    {12, 4, 30, 1, 500},       // a lone chain, often far
}};

std::uint64_t
differentialSeed()
{
    return static_cast<std::uint64_t>(
        testing::UnitTest::GetInstance()->random_seed());
}

TEST(EventQueueDifferential, FreshQueuesMatchSortedReference)
{
    const std::uint64_t seed = differentialSeed();
    SCOPED_TRACE(testing::Message() << "gtest random seed " << seed);
    for (std::size_t p = 0; p < profiles.size(); ++p) {
        SCOPED_TRACE(testing::Message() << "profile " << p);
        EventQueue eq;
        Program prog(eq, seed * 1000 + p, profiles[p]);
        prog.run();
        if (prog.failed())
            return;
    }
}

TEST(EventQueueDifferential, ReusedQueueMatchesSortedReference)
{
    // One queue runs every profile in turn, so each program starts
    // in the geometry the previous one grew (wide buckets meeting
    // dense ties and the reverse), with reserve() and reset() --
    // dropping a pending set -- in between.
    const std::uint64_t seed = differentialSeed();
    SCOPED_TRACE(testing::Message() << "gtest random seed " << seed);
    std::mt19937_64 rng(seed);
    EventQueue eq;
    for (int round = 0; round < 2; ++round) {
        for (std::size_t p = 0; p < profiles.size(); ++p) {
            SCOPED_TRACE(testing::Message()
                         << "round " << round << ", profile " << p);
            if (rng() % 3 == 0)
                eq.reserve(rng() % 5000);
            if (rng() % 3 == 0) {
                bool dropped_ran = false;
                for (int i = 0; i < 50; ++i) {
                    eq.schedule(eq.now() + rng() % 100000,
                                [&dropped_ran] { dropped_ran = true; });
                }
                eq.reset();
                eq.run();
                EXPECT_FALSE(dropped_ran);
            }
            Program prog(eq, rng(), profiles[p]);
            prog.run();
            if (prog.failed())
                return;
            eq.reset();
        }
    }
}

} // namespace
} // namespace syncperf::sim
