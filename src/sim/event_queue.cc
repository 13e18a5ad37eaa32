/**
 * @file
 * Implementation of the calendar event queue.
 */

#include "event_queue.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace syncperf::sim
{

namespace
{

/** Smallest ring; a whole number of bitmap words. */
constexpr std::size_t min_buckets = 64;

/** Largest ring (4 MiB of list heads); past it the year only widens. */
constexpr std::size_t max_buckets = std::size_t{1} << 20;

} // namespace

void
EventQueue::schedule(Tick when, EventCallback cb, int priority)
{
    SYNCPERF_ASSERT(when >= now_, "cannot schedule into the past");
    SYNCPERF_ASSERT(
        static_cast<std::uint64_t>(priority + priority_bias) <
            (priority_bias << 1),
        "event priority out of the packed 24-bit range");
    SYNCPERF_ASSERT(when < tick_limit, "tick out of the packed 40-bit range");

    std::uint32_t slot;
    if (free_.empty()) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
        nodes_.emplace_back();
    } else {
        slot = free_.back();
        free_.pop_back();
    }
    slots_[slot] = std::move(cb);
    const std::uint64_t prio_key =
        (static_cast<std::uint64_t>(priority) + priority_bias) &
        ((priority_bias << 1) - 1);
    nodes_[slot] = Node{when << when_shift | prio_key, next_seq_++, nil};

    if (++live_ > grow_at_)
        regrid(live_);
    if (live_ > max_pending_)
        max_pending_ = live_;

    const Tick b = when >> shift_;
    if (b == base_ && base_sorted_) {
        insertSorted(slot);
        return;
    }
    // Only a schedule right after shiftPending() can precede the
    // year: re-anchor the ring at it.
    if (b < base_)
        rebuild(heads_.size(), shift_, when, 0);
    place(slot);
    if (far_.size() > (live_ >> 3) + 16)
        regrid(live_); // the year is too short for this spread
}

void
EventQueue::place(std::uint32_t slot)
{
    const Tick b = (nodes_[slot].hi >> when_shift) >> shift_;
    if (b - base_ > mask_) {
        farPush(slot);
        return;
    }
    const std::size_t idx = b & mask_;
    if (heads_[idx] == nil)
        bitmap_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    nodes_[slot].next = heads_[idx];
    heads_[idx] = slot;
    ++ring_live_;
}

void
EventQueue::insertSorted(std::uint32_t slot)
{
    const std::size_t idx = base_ & mask_;
    if (heads_[idx] == nil)
        bitmap_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    const Key key = keyOf(slot);
    std::uint32_t *at = &heads_[idx];
    std::uint64_t steps = 0;
    while (*at != nil && before(keyOf(*at), key)) {
        at = &nodes_[*at].next;
        ++steps;
    }
    nodes_[slot].next = *at;
    *at = slot;
    ++ring_live_;
    // Long walks through the current bucket mean the buckets are too
    // wide for today's event density.
    crowd_ += steps;
    if (crowd_ > 4 * (executed_ - crowd_mark_ + heads_.size()))
        regrid(live_);
}

void
EventQueue::farPush(std::uint32_t slot)
{
    const Key e = keyOf(slot);
    far_.push_back(e);
    std::size_t i = far_.size() - 1;
    while (i > 0) {
        const std::size_t parent = (i - 1) >> 2;
        if (!before(e, far_[parent]))
            break;
        far_[i] = far_[parent];
        i = parent;
    }
    far_[i] = e;
}

std::uint32_t
EventQueue::farPop()
{
    const std::uint32_t top = far_[0].slot();
    const Key e = far_.back();
    far_.pop_back();
    const std::size_t n = far_.size();
    if (n == 0)
        return top;
    std::size_t i = 0;
    for (;;) {
        const std::size_t first = (i << 2) + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        const std::size_t end = first + 4 < n ? first + 4 : n;
        for (std::size_t c = first + 1; c < end; ++c) {
            if (before(far_[c], far_[best]))
                best = c;
        }
        if (!before(far_[best], e))
            break;
        far_[i] = far_[best];
        i = best;
    }
    far_[i] = e;
    return top;
}

void
EventQueue::migrate()
{
    const Tick end = base_ + heads_.size();
    while (!far_.empty() && ((far_[0].hi >> when_shift) >> shift_) < end)
        place(farPop());
}

void
EventQueue::sortBucket(std::size_t idx)
{
    // Sort the keys, not the slots: every compare then reads two
    // adjacent records instead of two scattered nodes.
    scratch_.clear();
    for (std::uint32_t n = heads_[idx]; n != nil; n = nodes_[n].next)
        scratch_.push_back(keyOf(n));
    std::sort(scratch_.begin(), scratch_.end(),
              [](const Key &a, const Key &b) { return before(a, b); });
    std::uint32_t *at = &heads_[idx];
    for (const Key &e : scratch_) {
        *at = e.slot();
        at = &nodes_[e.slot()].next;
    }
    *at = nil;
}

std::size_t
EventQueue::firstBucket() const
{
    const std::size_t start = base_ & mask_;
    std::size_t w = start >> 6;
    std::uint64_t bits = bitmap_[w] & (~std::uint64_t{0} << (start & 63));
    // Wrapping back to the start word reaches the year's last
    // buckets, which sit below start in it.
    while (bits == 0) {
        w = (w + 1) & (bitmap_.size() - 1);
        bits = bitmap_[w];
    }
    return w << 6 | static_cast<std::size_t>(std::countr_zero(bits));
}

std::uint32_t
EventQueue::popNext()
{
    if (ring_live_ == 0) {
        // Nothing within the year: jump it to the earliest far event.
        base_ = (far_[0].hi >> when_shift) >> shift_;
        base_sorted_ = false;
        migrate();
    }
    const std::size_t idx = firstBucket();
    const std::size_t start = base_ & mask_;
    if (idx != start) {
        base_ += (idx - start) & mask_;
        base_sorted_ = false;
        migrate(); // lands past idx: far events lie beyond the old year
    }
    if (!base_sorted_) {
        if (nodes_[heads_[idx]].next != nil)
            sortBucket(idx);
        base_sorted_ = true;
    }
    const std::uint32_t n = heads_[idx];
    heads_[idx] = nodes_[n].next;
    if (heads_[idx] == nil)
        bitmap_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    --ring_live_;
    return n;
}

Tick
EventQueue::run()
{
    while (live_ != 0) {
        const std::uint32_t n = popNext();
        --live_;
        now_ = nodes_[n].hi >> when_shift;
        ++executed_;
        // Move out and free before invoking: the callback may schedule
        // new events, reusing this very slot or reallocating slots_.
        EventCallback action = std::move(slots_[n]);
        free_.push_back(n);
        action();
    }
    return now_;
}

Tick
EventQueue::earliestPending() const
{
    if (live_ == 0)
        return no_tick;
    if (ring_live_ == 0)
        return far_[0].hi >> when_shift;
    // Every far event lies past the year, so the first non-empty
    // bucket holds the earliest event; only the current bucket is
    // sorted.
    const std::size_t idx = firstBucket();
    if (idx == (base_ & mask_) && base_sorted_)
        return nodes_[heads_[idx]].hi >> when_shift;
    std::uint64_t best = ~std::uint64_t{0};
    for (std::uint32_t n = heads_[idx]; n != nil; n = nodes_[n].next)
        best = std::min(best, nodes_[n].hi);
    return best >> when_shift;
}

void
EventQueue::earliestPendingPerPriority(std::vector<Tick> &out) const
{
    std::fill(out.begin(), out.end(), no_tick);
    forEachPending([&](std::uint32_t n) {
        const std::uint64_t hi = nodes_[n].hi;
        const std::int64_t prio =
            static_cast<std::int64_t>(hi & ((priority_bias << 1) - 1)) -
            static_cast<std::int64_t>(priority_bias);
        if (prio < 0 || prio >= static_cast<std::int64_t>(out.size()))
            return;
        Tick &best = out[static_cast<std::size_t>(prio)];
        best = std::min(best, hi >> when_shift);
    });
}

void
EventQueue::encodePending(Tick base, std::vector<std::uint64_t> &out) const
{
    // Execution order, not storage order: ring buckets follow each
    // other in year order and every far event follows the ring, so
    // sorting each bucket, and the far events, on its own suffices.
    const auto sortFrom = [this](std::size_t from) {
        std::sort(scratch_.begin() + static_cast<std::ptrdiff_t>(from),
                  scratch_.end(),
                  [](const Key &a, const Key &b) { return before(a, b); });
    };
    scratch_.clear();
    forEachBucket([&](std::size_t idx) {
        const std::size_t from = scratch_.size();
        for (std::uint32_t n = heads_[idx]; n != nil; n = nodes_[n].next)
            scratch_.push_back(keyOf(n));
        sortFrom(from);
    });
    const std::size_t from = scratch_.size();
    scratch_.insert(scratch_.end(), far_.begin(), far_.end());
    sortFrom(from);
    out.push_back(scratch_.size());
    for (const Key &e : scratch_) {
        // The offset is signed-in-two's-complement: pending events
        // may precede the caller's base tick.
        out.push_back(static_cast<std::uint64_t>((e.hi >> when_shift) -
                                                 base));
        out.push_back(e.hi & ((priority_bias << 1) - 1));
    }
}

void
EventQueue::shiftPending(Tick delta)
{
    if (live_ == 0)
        return;
    Tick last = 0;
    forEachPending([&](std::uint32_t n) {
        last = std::max(last, nodes_[n].hi >> when_shift);
    });
    SYNCPERF_ASSERT(delta < tick_limit - last,
                    "shifted tick out of the packed 40-bit range");
    // Every pending event is at or after now_, so the shifted set
    // starts at or after now_ + delta: anchor the year there.
    rebuild(heads_.size(), shift_, now_ + delta, delta);
}

void
EventQueue::rebuild(std::size_t buckets, unsigned shift, Tick anchor,
                    Tick delta)
{
    scratch_.clear();
    forEachPending([&](std::uint32_t n) { scratch_.push_back(keyOf(n)); });
    if (buckets != heads_.size()) {
        heads_.assign(buckets, nil);
        bitmap_.assign(buckets >> 6, 0);
        mask_ = buckets - 1;
    } else {
        clearRing();
    }
    far_.clear();
    ring_live_ = 0;
    shift_ = shift;
    base_ = anchor >> shift;
    // Buckets fill in storage order; each is sorted once the scan
    // reaches it.
    base_sorted_ = false;
    for (const Key &k : scratch_) {
        nodes_[k.slot()].hi += delta << when_shift;
        place(k.slot());
    }
}

void
EventQueue::regrid(std::size_t population)
{
    std::size_t buckets = std::max(
        heads_.size(),
        std::bit_ceil(std::max(min_buckets, population << 1)));
    buckets = std::min(buckets, max_buckets);
    grow_at_ = buckets == max_buckets ? ~std::size_t{0} : buckets >> 1;
    crowd_ = 0;
    crowd_mark_ = executed_;
    // Size every buffer for the most events this ring holds (the far
    // heap regrids past an eighth of them), so no later schedule()
    // or bucket sort allocates.
    const std::size_t most = buckets >> 1;
    far_.reserve((most >> 3) + 17);
    scratch_.reserve(most);

    // No pending event precedes the current bucket or now_.
    const Tick anchor = std::max(now_, base_ << shift_);
    unsigned shift = shift_;
    scratch_.clear();
    forEachPending([&](std::uint32_t n) { scratch_.push_back(keyOf(n)); });
    if (!scratch_.empty()) {
        // Bucket width: half the ring spans all but the farthest
        // sixteenth of the pending set, so the rest land in the ring
        // at about one event per bucket.
        const std::size_t n = scratch_.size();
        const auto q =
            scratch_.begin() + static_cast<std::ptrdiff_t>(n - 1 - n / 16);
        std::nth_element(
            scratch_.begin(), q, scratch_.end(),
            [](const Key &a, const Key &b) { return a.hi < b.hi; });
        const Tick reach = (q->hi >> when_shift) - anchor;
        shift = 0;
        while ((reach >> shift) >= (buckets >> 1))
            ++shift;
    }
    if (buckets != heads_.size() || shift != shift_)
        rebuild(buckets, shift, anchor, 0);
}

void
EventQueue::clearRing()
{
    for (std::size_t w = 0; w < bitmap_.size(); ++w) {
        for (std::uint64_t bits = bitmap_[w]; bits != 0; bits &= bits - 1)
            heads_[w << 6 | static_cast<std::size_t>(
                                std::countr_zero(bits))] = nil;
        bitmap_[w] = 0;
    }
}

void
EventQueue::reserve(std::size_t events)
{
    if (slots_.size() < events) {
        const auto old = static_cast<std::uint32_t>(slots_.size());
        slots_.resize(events);
        nodes_.resize(events);
        // New slots are free; descending order so the lowest fresh
        // index is handed out first (matching reset()'s warm-fill
        // convention). Slot indices never influence execution order,
        // so this cannot perturb results.
        for (std::uint32_t i = static_cast<std::uint32_t>(events);
             i-- > old;) {
            free_.push_back(i);
        }
    }
    if (events > grow_at_)
        regrid(events);
}

void
EventQueue::reset()
{
    clearRing();
    far_.clear();
    free_.clear();
    // Every slot is reclaimed, its callback destroyed unrun.
    // Descending order so the next cycle fills slots from index 0
    // with warm memory.
    for (std::uint32_t i = static_cast<std::uint32_t>(slots_.size());
         i-- > 0;) {
        slots_[i] = EventCallback{};
        free_.push_back(i);
    }
    ring_live_ = 0;
    base_ = 0;
    base_sorted_ = false;
    crowd_ = 0;
    crowd_mark_ = executed_;
    now_ = 0;
    live_ = 0;
    max_pending_ = 0;
    horizon_pin_ = no_tick;
}

} // namespace syncperf::sim
