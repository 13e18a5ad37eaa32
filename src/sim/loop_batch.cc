#include "sim/loop_batch.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace syncperf::sim
{

namespace
{

/** FNV-1a over the fingerprint words: cheap reject so a boundary is
 * compared word-for-word against at most the anchors whose hash
 * collides (in practice, the one that matches). */
std::uint64_t
fpHash(const std::vector<std::uint64_t> &fp)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint64_t w : fp) {
        h ^= w;
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

void
LoopBatcher::reset(int actors, std::uint64_t total_iters)
{
    actors_ = actors;
    trigger_ = -1;
    ring_n_ = 0;
    skip_ = 0;
    penalty_ = 1;
    if (pin_ != EventQueue::no_tick)
        eq_.pinHorizon(pin_); // the queue's reset cleared any pin
    counters_ = LoopBatchCounters{};
    counters_.total_iters = total_iters;
}

void
LoopBatcher::fallBack()
{
    ++counters_.fallbacks;
    skip_ = penalty_;
    penalty_ = std::min<long>(penalty_ * 2, 256);
}

void
LoopBatcher::pushAnchor(Tick done)
{
    ring_head_ = (ring_head_ + 1) % ring_size;
    ring_n_ = std::min(ring_n_ + 1, ring_size);
    Anchor &a = ring_[static_cast<std::size_t>(ring_head_)];
    a.fp.swap(fp_); // recycle the evicted anchor's buffer
    a.hash = fpHash(a.fp);
    a.boundary = done;
    a.rng = rng_.state();
    a.iters.resize(static_cast<std::size_t>(actors_));
    for (int i = 0; i < actors_; ++i)
        a.iters[i] = host_.itersLeft(i);
    stats_.snapshot(a.stats);
}

Tick
LoopBatcher::attempt(Tick done)
{
    // Randomness consumed since the newest anchor (a jittered op in
    // the body) makes every stored anchor unmatchable: the rng word
    // is part of the fingerprint and the stream only ever advances.
    // Drop them and back off without paying for an encode.
    if (ring_n_ > 0 &&
        rng_.state() != ring_[static_cast<std::size_t>(ring_head_)].rng) {
        ring_n_ = 0;
        fallBack();
        return 0;
    }

    fp_.assign(1, rng_.state());
    StateEncoder enc(eq_, done, fp_, enc_scratch_);
    host_.encodeState(enc);
    eq_.encodePending(done, fp_);
    const std::uint64_t hash = fpHash(fp_);

    // Newest-first: contended regimes rotate through their P
    // contenders before the machine state recurs, so the cycle often
    // closes against an anchor several boundaries back -- a match at
    // any distance proves a period just as rigorously as an adjacent
    // one, because the tick and iteration deltas below are measured
    // from the matched anchor itself.
    const Anchor *match = nullptr;
    for (int back = 0; back < ring_n_; ++back) {
        const Anchor &cand = ring_[static_cast<std::size_t>(
            (ring_head_ - back + ring_size) % ring_size)];
        if (cand.hash == hash && cand.fp == fp_) {
            match = &cand;
            break;
        }
    }
    if (match == nullptr) {
        if (ring_n_ > 0)
            fallBack();
        pushAnchor(done);
        return 0;
    }

    // Equal fingerprints: the machine's dynamics are periodic with
    // period delta. Every actor must keep at least one whole
    // post-jump iteration to execute for real: iters_left still
    // counts the just-finished iteration, so a margin of 2 leaves
    // phase transitions -- and the run's final event times -- to
    // ordinary single-stepping.
    const Tick delta = done - match->boundary;
    SYNCPERF_ASSERT(delta > 0, "duplicate trigger boundary tick");
    long k = std::numeric_limits<long>::max();
    std::uint64_t per_period = 0;
    for (int i = 0; i < actors_; ++i) {
        const long d = match->iters[i] - host_.itersLeft(i);
        if (d <= 0)
            continue;
        per_period += static_cast<std::uint64_t>(d);
        k = std::min(k, (host_.itersLeft(i) - 2) / d);
    }
    if (k == std::numeric_limits<long>::max())
        k = 0;
    // A horizon pin is an opaque foreign event: never jump past it.
    if (eq_.horizonPin() != EventQueue::no_tick) {
        const Tick pin = eq_.horizonPin();
        k = pin > done
            ? std::min(k, static_cast<long>((pin - done) / delta))
            : 0;
    }
    if (k < 1) {
        fallBack();
        // Anchor afresh so a later boundary measures a short period.
        pushAnchor(done);
        return 0;
    }

    const Tick shift = delta * static_cast<Tick>(k);
    eq_.shiftPending(shift);
    host_.shiftTimes(shift);
    for (int i = 0; i < actors_; ++i) {
        const long d = match->iters[i] - host_.itersLeft(i);
        host_.itersLeft(i) -= k * d;
    }
    stats_.applyPeriods(match->stats, static_cast<std::uint64_t>(k));
    counters_.batched_iters += static_cast<std::uint64_t>(k) * per_period;
    ++counters_.windows;
    penalty_ = 1; // a jump proves the steady state: retry eagerly

    // The post-jump boundary has the matched fingerprint by
    // construction (fp_ still holds it); anchor it so the next
    // boundary can batch again without re-proving periodicity from
    // scratch. Older anchors stay valid -- they are other phases of
    // the same cycle, described by their own historical tick and
    // iteration counts.
    pushAnchor(done + shift);
    return shift;
}

void
LoopBatcher::reserveLike(const LoopBatcher &tmpl)
{
    fp_.reserve(tmpl.fp_.capacity());
    enc_scratch_.keys.reserve(tmpl.enc_scratch_.keys.capacity());
    enc_scratch_.actor_next.reserve(
        tmpl.enc_scratch_.actor_next.capacity());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
        ring_[i].fp.reserve(tmpl.ring_[i].fp.capacity());
        ring_[i].iters.reserve(tmpl.ring_[i].iters.capacity());
    }
}

} // namespace syncperf::sim
