/**
 * @file
 * google-benchmark micro-suite for sim::EventQueue, the innermost
 * loop of every simulated machine.
 *
 * Besides measuring schedule/execute throughput, the suite enforces
 * the queue's central performance contract: steady-state
 * schedule()/run() cycles on a reused queue perform ZERO heap
 * allocations per event for callbacks that fit the small-buffer
 * slot. The global operator new below counts every allocation; the
 * steady-state benchmarks fail (SkipWithError) if any occur inside
 * the measured region. Run with --benchmark_min_time=0.01 for a
 * quick pass/fail check, e.g. from CI or a sanitizer build.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/event_queue.hh"

// -------------------------------------------------------------------
// Allocation counting: replace the global allocator with a counting
// shim. Only the diff across the measured region matters, so the
// benchmark library's own allocations outside it are harmless.
// -------------------------------------------------------------------

namespace
{

std::atomic<std::uint64_t> g_alloc_count{0};

std::uint64_t
allocCount()
{
    return g_alloc_count.load(std::memory_order_relaxed);
}

} // namespace

// GCC pairs the inlined std::free below with new-expressions at call
// sites and warns; the pairing is correct (our operator new mallocs).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t size)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

namespace
{

using namespace syncperf::sim;

constexpr int batch = 256;

/** Report per-event stats and fail the benchmark when the measured
 * region allocated at all. */
void
finish(benchmark::State &state, std::uint64_t events,
       std::uint64_t allocs)
{
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
    state.counters["allocs_per_event"] = benchmark::Counter(
        static_cast<double>(allocs) / static_cast<double>(events));
    if (allocs != 0) {
        state.SkipWithError(
            "steady-state event scheduling allocated on the heap");
    }
}

/**
 * Batch schedule-then-drain, the machines' launch pattern: after one
 * warm-up drain has grown the heap/slot/free-list storage to the
 * peak in-flight size, every later cycle must reuse it.
 */
void
BM_ScheduleDrainSteadyState(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t sink = 0;

    auto cycle = [&] {
        for (int i = 0; i < batch; ++i) {
            eq.scheduleIn(static_cast<Tick>(i % 7),
                          [&sink, i] { sink += static_cast<unsigned>(i); },
                          i % 3);
        }
        eq.run();
    };

    cycle(); // warm-up: grows all internal buffers

    const std::uint64_t before = allocCount();
    std::uint64_t events = 0;
    for (auto _ : state) {
        cycle();
        events += batch;
    }
    const std::uint64_t allocs = allocCount() - before;

    benchmark::DoNotOptimize(sink);
    finish(state, events, allocs);
}
BENCHMARK(BM_ScheduleDrainSteadyState);

/**
 * Self-rescheduling chains, the machines' per-warp tick pattern:
 * each callback schedules its successor, so slots are recycled
 * through the free list while the queue never drains mid-run.
 */
void
BM_SelfRescheduleSteadyState(benchmark::State &state)
{
    constexpr int chains = 64;
    EventQueue eq;
    std::uint64_t sink = 0;
    std::uint64_t remaining = 0;

    const auto seed = [&](std::uint64_t steps) {
        remaining = steps;
        for (int c = 0; c < chains; ++c) {
            struct Step
            {
                EventQueue *eq;
                std::uint64_t *sink;
                std::uint64_t *remaining;
                int chain;

                void
                operator()() const
                {
                    ++*sink;
                    // Check-then-decrement: the budget is shared
                    // across chains, so a bare decrement would
                    // underflow once the other pending chains drain.
                    if (*remaining > 0) {
                        --*remaining;
                        eq->scheduleIn(1 + chain % 3, *this, chain);
                    }
                }
            };
            eq.scheduleIn(1, Step{&eq, &sink, &remaining, c}, c);
        }
        eq.run();
    };

    seed(4 * chains); // warm-up

    const std::uint64_t before = allocCount();
    const std::uint64_t executed_before = eq.executed();
    for (auto _ : state)
        seed(4 * chains);
    const std::uint64_t events = eq.executed() - executed_before;
    const std::uint64_t allocs = allocCount() - before;

    benchmark::DoNotOptimize(sink);
    finish(state, events, allocs);
}
BENCHMARK(BM_SelfRescheduleSteadyState);

/**
 * The GPU machine's shape: one self-rescheduling chain per resident
 * warp (4,096, the thorough rtx_4090 sweep's peak queue depth) with
 * the delta mix of that sweep -- ~2% same-tick, ~33% up to 2^12
 * ticks, ~64% from 2^12 to 2^18, and ~1% far events past 2^18 --
 * so the pending set is thousands deep and spread over a wide tick
 * range, unlike the shallow, narrow legs above.
 */
void
BM_WideDeltaSteadyState(benchmark::State &state)
{
    constexpr int chains = 4096;
    constexpr std::uint64_t steps = 32 * chains;
    EventQueue eq;
    std::uint64_t sink = 0;
    std::uint64_t remaining = 0;
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL;

    struct Step
    {
        EventQueue *eq;
        std::uint64_t *sink;
        std::uint64_t *remaining;
        std::uint64_t *rng;
        int chain;

        /** xorshift64: deterministic and allocation-free. */
        std::uint64_t
        next() const
        {
            std::uint64_t x = *rng;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            return *rng = x;
        }

        /** Log-uniform in [2^lo, 2^hi). */
        Tick
        logUniform(unsigned lo, unsigned hi) const
        {
            const std::uint64_t r = next();
            const unsigned bits = lo + static_cast<unsigned>(r % (hi - lo));
            return (Tick{1} << bits) + ((r >> 8) & ((Tick{1} << bits) - 1));
        }

        Tick
        delta() const
        {
            const std::uint64_t pick = next() % 1000;
            if (pick < 21)
                return 0;
            if (pick < 21 + 326)
                return logUniform(0, 12);
            if (pick < 21 + 326 + 642)
                return logUniform(12, 18);
            return logUniform(18, 22);
        }

        void
        operator()() const
        {
            ++*sink;
            if (*remaining > 0) {
                --*remaining;
                eq->scheduleIn(delta(), *this, chain);
            }
        }
    };

    const auto seed = [&] {
        remaining = steps;
        for (int c = 0; c < chains; ++c) {
            const Step step{&eq, &sink, &remaining, &rng, c};
            eq.scheduleIn(step.delta(), step, c);
        }
        eq.run();
        eq.reset();
    };

    seed(); // warm-up: grows the slot table and the queue's geometry

    const std::uint64_t before = allocCount();
    const std::uint64_t executed_before = eq.executed();
    for (auto _ : state)
        seed();
    const std::uint64_t events = eq.executed() - executed_before;
    const std::uint64_t allocs = allocCount() - before;

    benchmark::DoNotOptimize(sink);
    finish(state, events, allocs);
}
BENCHMARK(BM_WideDeltaSteadyState);

/**
 * Contrast case: captures larger than EventCallback::inline_size buy
 * one boxed allocation per event by design. No zero-alloc assertion
 * -- the counter documents the cost of outgrowing the small buffer.
 */
void
BM_ScheduleDrainOversizedCapture(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t sink = 0;

    struct Fat
    {
        std::uint64_t pad[8]; // 64 bytes > inline_size (48)
    };

    auto cycle = [&] {
        for (int i = 0; i < batch; ++i) {
            Fat fat{};
            fat.pad[0] = static_cast<std::uint64_t>(i);
            eq.scheduleIn(1, [&sink, fat] { sink += fat.pad[0]; });
        }
        eq.run();
    };

    cycle();

    const std::uint64_t before = allocCount();
    std::uint64_t events = 0;
    for (auto _ : state) {
        cycle();
        events += batch;
    }
    const std::uint64_t allocs = allocCount() - before;

    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
    state.counters["allocs_per_event"] = benchmark::Counter(
        static_cast<double>(allocs) / static_cast<double>(events));
}
BENCHMARK(BM_ScheduleDrainOversizedCapture);

} // namespace

BENCHMARK_MAIN();
