#include "sim/event.hh"

#include <algorithm>
#include <bit>

#include "sim/log.hh"

namespace fugu
{

Event::~Event()
{
    if (queue_ && slot_ != kNoEventSlot)
        queue_->deschedule(this);
}

EventQueue::EventQueue() : ring_(kRingSize), ringHead_(kRingSize, 0) {}

std::uint32_t
EventQueue::allocSlot(Event *ev, bool owned)
{
    std::uint32_t idx;
    if (freeSlotHead_ != kNoEventSlot) {
        idx = freeSlotHead_;
        freeSlotHead_ = slots_[idx].nextFree;
        --freeSlotCount_;
    } else {
        idx = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    SlotRec &s = slots_[idx];
    s.event = ev;
    s.owned = owned;
    s.nextFree = kNoEventSlot;
    return idx;
}

void
EventQueue::prepareBulk(std::size_t n)
{
    if (freeSlotCount_ < n)
        slots_.reserve(slots_.size() + (n - freeSlotCount_));
    if (lambdaFree_.size() < n) {
        std::size_t need = n - lambdaFree_.size();
        lambdaStore_.reserve(lambdaStore_.size() + need);
        lambdaFree_.reserve(n);
        while (need-- > 0) {
            lambdaStore_.push_back(
                std::make_unique<LambdaEvent>("bulk"));
            lambdaFree_.push_back(lambdaStore_.back().get());
        }
    }
    // Worst case every entry lands in the far band.
    heap_.reserve(heap_.size() + n);
}

namespace
{
constexpr std::size_t kHeapArity = 4;
} // namespace

void
EventQueue::heapSiftUp(std::size_t i)
{
    HeapEntry e = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / kHeapArity;
        if (!before(e, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = e;
}

void
EventQueue::heapSiftDown(std::size_t i)
{
    const std::size_t n = heap_.size();
    HeapEntry e = heap_[i];
    for (;;) {
        const std::size_t first = i * kHeapArity + 1;
        if (first >= n)
            break;
        const std::size_t last = std::min(first + kHeapArity, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c) {
            if (before(heap_[c], heap_[best]))
                best = c;
        }
        if (!before(heap_[best], e))
            break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = e;
}

void
EventQueue::heapPush(HeapEntry e)
{
    heap_.push_back(e);
    heapSiftUp(heap_.size() - 1);
}

void
EventQueue::heapPopFront()
{
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty())
        heapSiftDown(0);
}

void
EventQueue::heapRebuild()
{
    if (heap_.size() < 2)
        return;
    for (std::size_t i = (heap_.size() - 2) / kHeapArity + 1; i-- > 0;)
        heapSiftDown(i);
}

void
EventQueue::push(Event *ev, Cycle when, bool owned)
{
    fugu_assert(when >= now_, "event '", ev->name(),
                "' scheduled in the past (", when, " < ", now_, ")");
    ev->when_ = when;
    ev->queue_ = this;
    std::uint32_t idx = allocSlot(ev, owned);
    ev->slot_ = idx;
    ++live_;
    // ringBase_ <= now_ <= when always holds, so a window hit only
    // needs the upper bound. Bucket FIFO order is schedule order.
    if (when < ringBase_ + kRingSize) {
        const std::uint32_t b = when & (kRingSize - 1);
        occ_[b >> 6] |= std::uint64_t{1} << (b & 63);
        ring_[b].push_back(BucketEntry{idx, slots_[idx].gen});
        slots_[idx].inRing = true;
        ++ringCount_;
    } else {
        heapPush(HeapEntry{when, nextSeq_++, idx, slots_[idx].gen});
        slots_[idx].inRing = false;
    }
}

void
EventQueue::schedule(Event *ev, Cycle when)
{
    fugu_assert(!ev->scheduled(), "event '", ev->name(),
                "' scheduled twice");
    push(ev, when, false);
}

void
EventQueue::reschedule(Event *ev, Cycle when)
{
    if (ev->scheduled())
        deschedule(ev);
    push(ev, when, false);
}

void
EventQueue::deschedule(Event *ev)
{
    if (ev->slot_ == kNoEventSlot)
        return;
    const bool inRing = slots_[ev->slot_].inRing;
    freeSlot(ev->slot_);
    ev->slot_ = kNoEventSlot;
    fugu_assert(live_ > 0);
    --live_;
    if (inRing) {
        ++ringStale_;
        ringSweepIfNeeded();
    } else {
        ++stale_;
        compactIfNeeded();
    }
}

void
EventQueue::cancelFn(const EventHandle &handle)
{
    if (handle.slot >= slots_.size())
        return;
    SlotRec &s = slots_[handle.slot];
    if (s.gen != handle.gen || !s.event)
        return; // fired, cancelled, or slot since reused
    Event *ev = s.event;
    const bool owned = s.owned;
    const bool inRing = s.inRing;
    freeSlot(handle.slot);
    ev->slot_ = kNoEventSlot;
    fugu_assert(live_ > 0);
    --live_;
    if (owned)
        releaseLambda(static_cast<LambdaEvent *>(ev));
    if (inRing) {
        ++ringStale_;
        ringSweepIfNeeded();
    } else {
        ++stale_;
        compactIfNeeded();
    }
}

LambdaEvent *
EventQueue::acquireLambda(const char *name)
{
    if (lambdaFree_.empty()) {
        lambdaStore_.push_back(std::make_unique<LambdaEvent>(name));
        return lambdaStore_.back().get();
    }
    LambdaEvent *ev = lambdaFree_.back();
    lambdaFree_.pop_back();
    ev->name_ = name;
    return ev;
}

void
EventQueue::releaseLambda(LambdaEvent *ev)
{
    ev->fn_.reset(); // drop captures promptly
    lambdaFree_.push_back(ev);
}

void
EventQueue::skipStale()
{
    while (!heap_.empty() && !entryLive(heap_.front())) {
        heapPopFront();
        fugu_assert(stale_ > 0);
        --stale_;
    }
}

void
EventQueue::compactIfNeeded()
{
    // Lazy cancellation leaves dead entries behind; sweep them once
    // they outnumber live ones so a long run's heap stays O(live).
    if (stale_ < 64 || stale_ * 2 < heap_.size())
        return;
    std::erase_if(heap_,
                  [this](const HeapEntry &e) { return !entryLive(e); });
    heapRebuild();
    stale_ = 0;
}

void
EventQueue::ringSweepIfNeeded()
{
    // Ring analogue of compactIfNeeded: without it, reschedule churn
    // on near-future events would grow bucket vectors without bound.
    if (ringStale_ < 64 || ringStale_ * 2 < ringCount_)
        return;
    for (unsigned w = 0; w < kOccWords; ++w) {
        std::uint64_t word = occ_[w];
        while (word != 0) {
            const unsigned b =
                w * 64 + static_cast<unsigned>(std::countr_zero(word));
            word &= word - 1;
            std::vector<BucketEntry> &bucket = ring_[b];
            std::size_t wr = 0;
            for (std::size_t r = ringHead_[b]; r < bucket.size(); ++r) {
                if (slots_[bucket[r].slot].gen == bucket[r].gen)
                    bucket[wr++] = bucket[r];
            }
            ringCount_ -= bucket.size() - ringHead_[b] - wr;
            bucket.resize(wr); // keeps capacity: no realloc churn
            ringHead_[b] = 0;
            if (wr == 0)
                occ_[w] &= ~(std::uint64_t{1} << (b & 63));
        }
    }
    ringStale_ = 0;
}

bool
EventQueue::bucketLive(std::uint32_t b)
{
    std::vector<BucketEntry> &bucket = ring_[b];
    std::uint32_t h = ringHead_[b];
    const std::size_t sz = bucket.size();
    while (h < sz && slots_[bucket[h].slot].gen != bucket[h].gen) {
        ++h;
        fugu_assert(ringStale_ > 0);
        --ringStale_;
        --ringCount_;
    }
    if (h == sz) { // bucket fully consumed/cancelled
        bucket.clear();
        ringHead_[b] = 0;
        occ_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
        return false;
    }
    ringHead_[b] = h;
    return true;
}

bool
EventQueue::findNext(NextEvent &nx)
{
    // Pushes never target cycles < now_, and every bucket the clock
    // has passed was drained, so the scan can start at now_.
    const Cycle rel = now_ - ringBase_;
    if (rel < kRingSize) {
        std::size_t w = rel >> 6;
        std::uint64_t word = occ_[w] & (~std::uint64_t{0} << (rel & 63));
        for (;;) {
            while (word == 0) {
                if (++w >= kOccWords)
                    break;
                word = occ_[w];
            }
            if (w >= kOccWords)
                break;
            const std::uint32_t b =
                static_cast<std::uint32_t>(w * 64) +
                static_cast<std::uint32_t>(std::countr_zero(word));
            word &= word - 1;
            // Drop the bucket's stale prefix before committing to it.
            if (!bucketLive(b))
                continue;
            nx = NextEvent{ringBase_ + b, true, b};
            return true;
        }
    }
    skipStale();
    if (heap_.empty())
        return false;
    nx = NextEvent{heap_.front().when, false, 0};
    return true;
}

bool
EventQueue::completeInPlace(Cycle when)
{
    RunFrame *f = run_;
    if (!f || f->stopped || when > f->until ||
        when - ringBase_ >= kRingSize)
        return false;
    // Every heap entry lies past the window, so only ring buckets
    // [now_, when] can hold something due first. Stale-only buckets
    // are cleared on the way: the clock may pass them.
    const Cycle lo = now_ - ringBase_;
    const Cycle hi = when - ringBase_;
    for (std::size_t w = lo >> 6; w <= (hi >> 6); ++w) {
        std::uint64_t word = occ_[w];
        if (w == (lo >> 6))
            word &= ~std::uint64_t{0} << (lo & 63);
        if (w == (hi >> 6))
            word &= ~std::uint64_t{0} >> (63 - (hi & 63));
        for (; word != 0; word &= word - 1) {
            const std::uint32_t b =
                static_cast<std::uint32_t>(w * 64) +
                static_cast<std::uint32_t>(std::countr_zero(word));
            if (bucketLive(b))
                return false;
        }
    }
    // The question run() would ask after the event now firing.
    if (f->ask(f->stop)) {
        f->stopped = true;
        return false;
    }
    now_ = when;
    ++f->inPlace;
    ++inPlaceTotal_;
    return true;
}

void
EventQueue::migrateWindow()
{
    const Cycle nb = now_ & ~Cycle{kRingSize - 1};
    // The fired far-band event had when >= ringBase_ + kRingSize, so
    // the window always moves forward (and the old ring is empty:
    // findNext fell through to the heap only after draining it).
    fugu_assert(nb >= ringBase_ + kRingSize);
    ringBase_ = nb;
    // Heap entries pop in (when, seq) order, and no bucket in the new
    // window can already hold entries (see push()), so migration
    // preserves global firing order.
    while (!heap_.empty() && heap_.front().when < nb + kRingSize) {
        const HeapEntry e = heap_.front();
        heapPopFront();
        if (slots_[e.slot].gen != e.gen) {
            fugu_assert(stale_ > 0);
            --stale_;
            continue;
        }
        const std::uint32_t b = e.when & (kRingSize - 1);
        occ_[b >> 6] |= std::uint64_t{1} << (b & 63);
        ring_[b].push_back(BucketEntry{e.slot, e.gen});
        slots_[e.slot].inRing = true;
        ++ringCount_;
    }
}

void
EventQueue::fireNext(const NextEvent &nx)
{
    std::uint32_t slot;
    if (nx.fromRing) {
        std::vector<BucketEntry> &bucket = ring_[nx.bucket];
        slot = bucket[ringHead_[nx.bucket]].slot; // liveness checked
        ++ringHead_[nx.bucket];
        --ringCount_;
        now_ = nx.when;
    } else {
        const HeapEntry e = heap_.front();
        heapPopFront();
        slot = e.slot;
        now_ = e.when;
        migrateWindow();
    }
    fireSlot(slot);
}

bool
EventQueue::runOne()
{
    NextEvent nx;
    if (!findNext(nx))
        return false;
    fireNext(nx);
    return true;
}

Cycle
EventQueue::nextTime()
{
    NextEvent nx;
    return findNext(nx) ? nx.when : kMaxCycle;
}

std::uint64_t
EventQueue::run(Cycle until, std::uint64_t max_events)
{
    if (max_events == 0)
        return 0;
    return run(until, [left = max_events]() mutable {
        return --left == 0; // cut short: the clock stays at the last event
    });
}

} // namespace fugu
