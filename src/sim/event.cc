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

void
EventQueue::prepareBulk(std::size_t n)
{
    if (freeSlotCount_ < n)
        slots_.reserve(slots_.size() + (n - freeSlotCount_));
    if (lambdaFree_.size() < n) {
        std::size_t need = n - lambdaFree_.size();
        lambdaStore_.reserve(lambdaStore_.size() + need);
        lambdaFree_.reserve(n);
        while (need-- > 0)
            lambdaFree_.push_back(newLambda("bulk"));
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
EventQueue::push(Event *ev, Cycle when)
{
    fugu_assert(when >= now_, "event '", ev->name(),
                "' scheduled in the past (", when, " < ", now_, ")");
    ev->when_ = when;
    ev->queue_ = this;
    ++live_;
    // ringBase_ <= now_ <= when always holds, so a window hit only
    // needs the upper bound. Bucket FIFO order is schedule order.
    if (when < ringBase_ + kRingSize)
        linkTail(ev, when & (kRingSize - 1));
    else
        pushFar(ev, when);
}

void
EventQueue::pushFar(Event *ev, Cycle when)
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
    s.nextFree = kNoEventSlot;
    ev->slot_ = idx;
    heapPush(HeapEntry{when, nextSeq_++, idx, s.gen});
}

void
EventQueue::schedule(Event *ev, Cycle when)
{
    fugu_assert(!ev->scheduled(), "event '", ev->name(),
                "' scheduled twice");
    push(ev, when);
}

void
EventQueue::reschedule(Event *ev, Cycle when)
{
    if (ev->scheduled())
        deschedule(ev);
    push(ev, when);
}

void
EventQueue::deschedule(Event *ev)
{
    const std::uint32_t slot = ev->slot_;
    if (slot == kNoEventSlot)
        return;
    ev->slot_ = kNoEventSlot;
    ++ev->gen_;
    fugu_assert(live_ > 0);
    --live_;
    if (slot == kRingSlot) {
        unlink(ev);
    } else {
        freeSlot(slot);
        ++stale_;
        compactIfNeeded();
    }
}

void
EventQueue::cancelFn(const EventHandle &handle)
{
    Event *ev = handle.event_;
    if (!ev || ev->gen_ != handle.gen_ || !ev->scheduled())
        return; // fired, cancelled, or since reused
    fugu_assert(ev->owned_ && ev->queue_ == this);
    deschedule(ev);
    releaseLambda(static_cast<LambdaEvent *>(ev));
}

LambdaEvent *
EventQueue::newLambda(const char *name)
{
    lambdaStore_.push_back(std::make_unique<LambdaEvent>(name));
    LambdaEvent *ev = lambdaStore_.back().get();
    ev->owned_ = true;
    return ev;
}

LambdaEvent *
EventQueue::acquireLambda(const char *name)
{
    if (lambdaFree_.empty())
        return newLambda(name);
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
EventQueue::compactHeap()
{
    std::erase_if(heap_,
                  [this](const HeapEntry &e) { return !entryLive(e); });
    heapRebuild();
    stale_ = 0;
}

std::size_t
EventQueue::heapSize() const
{
    std::size_t n = heap_.size();
    for (std::uint32_t b = 0; b < kRingSize; ++b) {
        const bool marked = (occ_[b >> 6] >> (b & 63)) & 1;
        fugu_assert(marked == (ring_[b].head != nullptr),
                    "ring bucket ", b, " occupancy bit ", marked,
                    " disagrees with its list");
        for (const Event *ev = ring_[b].head; ev; ev = ev->next_)
            ++n;
    }
    return n;
}

bool
EventQueue::findNext(NextEvent &nx)
{
    // Pushes never target cycles < now_, and every bucket the clock
    // has passed was drained, so the scan can start at now_. A set
    // bit is a live event: no bucket is ever left empty but marked.
    const Cycle rel = now_ - ringBase_;
    if (rel < kRingSize) {
        std::size_t w = rel >> 6;
        std::uint64_t word = occ_[w] & (~std::uint64_t{0} << (rel & 63));
        while (word == 0 && ++w < kOccWords)
            word = occ_[w];
        if (word != 0) {
            const std::uint32_t b =
                static_cast<std::uint32_t>(w * 64) +
                static_cast<std::uint32_t>(std::countr_zero(word));
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
EventQueue::ringBusy(Cycle lo, Cycle hi) const
{
    std::size_t w = lo >> 6;
    std::uint64_t word = occ_[w] & (~std::uint64_t{0} << (lo & 63));
    for (const std::size_t last = hi >> 6; w < last; word = occ_[++w]) {
        if (word != 0)
            return true;
    }
    return (word & (~std::uint64_t{0} >> (63 - (hi & 63)))) != 0;
}

bool
EventQueue::completeInPlace(Cycle when)
{
    // Every heap entry lies past the window and every set occupancy
    // bit is a live event, so nothing is due first exactly when no
    // bit in [now_, when] is set.
    RunFrame *f = run_;
    bool clear = f && !f->stopped && when <= f->until &&
                 when - ringBase_ < kRingSize &&
                 !ringBusy(now_ - ringBase_, when - ringBase_);
    // The question run() would ask after the event now firing.
    if (clear && f->ask(f->stop)) {
        f->stopped = true;
        clear = false;
    }
    if (!clear) {
        ++inPlaceRefused_;
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
        if (!entryLive(e)) {
            fugu_assert(stale_ > 0);
            --stale_;
            continue;
        }
        Event *ev = slots_[e.slot].event;
        freeSlot(e.slot);
        linkTail(ev, e.when & (kRingSize - 1));
    }
}

void
EventQueue::fireNext(const NextEvent &nx)
{
    Event *ev;
    if (nx.fromRing) {
        ev = popHead(nx.bucket);
        now_ = nx.when;
    } else {
        const HeapEntry e = heap_.front(); // live: findNext skipped stale
        heapPopFront();
        ev = slots_[e.slot].event;
        freeSlot(e.slot);
        now_ = e.when;
        migrateWindow();
    }
    fire(ev);
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
