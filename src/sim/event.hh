/**
 * @file
 * Discrete-event simulation kernel: Event and EventQueue.
 *
 * Events fire in (cycle, insertion sequence) order, so events at the
 * same cycle fire in schedule order, which makes runs fully
 * deterministic. The queue is a two-band calendar queue:
 *
 *  - Near band: a ring of kRingSize per-cycle FIFO buckets covering
 *    [ringBase, ringBase + kRingSize) with a two-level occupancy
 *    bitmap. Nearly all simulator traffic (coroutine resumes, spend
 *    ends, network arrivals) schedules a few cycles out, so both
 *    schedule and pop are O(1) with zero comparisons.
 *  - Far band: a 4-ary min-heap. When the clock crosses into a new
 *    window, pending heap entries inside it migrate to the ring in
 *    (cycle, seq) order, which keeps firing order identical to a
 *    single global priority queue.
 *
 * The near band is exact: each bucket is an intrusive doubly linked
 * FIFO list threaded through the events themselves, and descheduling
 * unlinks the event in O(1) and clears the bucket's occupancy bit when
 * it empties. A set bit therefore always means a live event, so
 * finding the next event and the in-place check read only the bitmap.
 * The far band stays lazy: descheduling frees the event's slot in a
 * generation-counted slot pool, and the stale heap entry is skipped
 * when reached, or swept out wholesale once stale entries dominate, so
 * memory stays proportional to live events even under unbounded
 * reschedule churn. An Event may be destroyed while scheduled; its
 * destructor deschedules it safely.
 *
 * The scheduling fast path is allocation-free in steady state:
 * one-shot callables (scheduleFn) are stored inline in pooled
 * LambdaEvents (only a callable larger than SmallFn::kInlineBytes
 * falls back to the heap), near-band schedules touch no container,
 * and cancellation handles are plain {event, generation} pairs
 * instead of shared_ptr control blocks.
 *
 * Inside run(), an event the firing event would schedule as its very
 * last act can complete in place instead (completeInPlace): when
 * nothing else is due first, the clock simply moves to it. The Cpu
 * ends spends and takes same-cycle hops this way (DESIGN §13).
 */

#ifndef FUGU_SIM_EVENT_HH
#define FUGU_SIM_EVENT_HH

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/log.hh"
#include "sim/types.hh"

namespace fugu
{

class EventQueue;

/** Sentinel slot index meaning "not scheduled". */
inline constexpr std::uint32_t kNoEventSlot = 0xffffffffu;

/** Slot index of an event linked into a near-band bucket. */
inline constexpr std::uint32_t kRingSlot = 0xfffffffeu;

/**
 * An occurrence scheduled at a future cycle. Subclass and implement
 * process(), or use EventQueue::scheduleFn for one-shot lambdas.
 */
class Event
{
  public:
    /** @p name is kept by pointer: it must outlive the event. */
    explicit Event(const char *name) : name_(name) {}
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked when the scheduled cycle is reached. */
    virtual void process() = 0;

    const char *name() const { return name_; }
    bool scheduled() const { return slot_ != kNoEventSlot; }

    /** Cycle this event will fire at. Only valid while scheduled. */
    Cycle when() const { return when_; }

  private:
    friend class EventQueue;

    const char *name_;
    Cycle when_ = 0;
    // kNoEventSlot when idle, kRingSlot while in a near-band bucket,
    // else the index of its far-band slot.
    std::uint32_t slot_ = kNoEventSlot;
    std::uint32_t gen_ = 0; // advanced on every fire and cancel
    Event *next_ = nullptr; // near-band bucket links
    Event *prev_ = nullptr;
    EventQueue *queue_ = nullptr;
    bool owned_ = false; // a pooled LambdaEvent (scheduleFn)
};

/**
 * Handle to a scheduleFn occurrence; pass to EventQueue::cancelFn,
 * the only way to cancel it (cancelFn also returns the pooled event).
 * An {event, generation} pair on a pooled LambdaEvent, which lives as
 * long as its queue: once the occurrence fires or is cancelled the
 * event's generation advances, so a stale handle is a harmless no-op
 * even after the event is reused. Default-constructed handles are
 * inert.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** The pooled event named, read-only (for tests). */
    const Event *event() const { return event_; }

  private:
    friend class EventQueue;

    EventHandle(Event *ev, std::uint32_t gen) : event_(ev), gen_(gen) {}

    Event *event_ = nullptr;
    std::uint32_t gen_ = 0;
};

/**
 * Type-erased move-only callable with inline storage. Callables up to
 * kInlineBytes live in the object itself; larger ones fall back to a
 * single heap allocation. Sized so every scheduleFn lambda in the
 * simulator stays inline — the largest captures a whole net::Packet,
 * which carries its payload inline (~88 bytes) plus this and a node id.
 */
class SmallFn
{
  public:
    static constexpr std::size_t kInlineBytes = 128;

    SmallFn() = default;
    ~SmallFn() { reset(); }

    SmallFn(const SmallFn &) = delete;
    SmallFn &operator=(const SmallFn &) = delete;

    template <typename F>
    void
    assign(F &&fn)
    {
        using Fn = std::decay_t<F>;
        reset();
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(fn));
            invoke_ = [](void *p) { (*static_cast<Fn *>(p))(); };
            destroy_ = [](void *p) { static_cast<Fn *>(p)->~Fn(); };
            fire_ = [](void *p) {
                Fn *f = static_cast<Fn *>(p);
                (*f)();
                f->~Fn();
            };
        } else {
            auto *obj = new Fn(std::forward<F>(fn));
            ::new (static_cast<void *>(buf_)) Fn *(obj);
            invoke_ = [](void *p) { (**static_cast<Fn **>(p))(); };
            destroy_ = [](void *p) { delete *static_cast<Fn **>(p); };
            fire_ = [](void *p) {
                Fn *f = *static_cast<Fn **>(p);
                (*f)();
                delete f;
            };
        }
    }

    void operator()() { invoke_(buf_); }

    /**
     * Invoke the callable and destroy it, leaving the object empty —
     * the one-shot fire path, a single indirect call. The callable
     * still occupies buf_ while running: the owner must not reuse
     * this SmallFn until the call returns (the event pool releases
     * the event only afterwards).
     */
    void
    fireAndReset()
    {
        auto fire = fire_;
        invoke_ = nullptr;
        destroy_ = nullptr;
        fire_ = nullptr;
        fire(buf_);
    }

    void
    reset()
    {
        if (destroy_)
            destroy_(buf_);
        invoke_ = nullptr;
        destroy_ = nullptr;
        fire_ = nullptr;
    }

    explicit operator bool() const { return invoke_ != nullptr; }

  private:
    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
    void (*invoke_)(void *) = nullptr;
    void (*destroy_)(void *) = nullptr;
    void (*fire_)(void *) = nullptr;
};

/**
 * Convenience event wrapping a callable; used by scheduleFn. The
 * queue keeps fired LambdaEvents on a freelist and reuses them, so
 * steady-state scheduleFn traffic does not allocate.
 */
class LambdaEvent : public Event
{
  public:
    explicit LambdaEvent(const char *name) : Event(name) {}

    void process() override { fn_(); }

  private:
    friend class EventQueue;

    SmallFn fn_;
};

/**
 * The global ordered queue of pending events plus the current cycle.
 * One EventQueue drives an entire simulated machine. EventQueues are
 * independent: separate queues may run on separate threads.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated cycle. */
    Cycle now() const { return now_; }

    /**
     * Schedule @p ev to fire at cycle @p when (>= now). The event must
     * not already be scheduled; use reschedule for that.
     */
    void schedule(Event *ev, Cycle when);

    /** Move an already (or not) scheduled event to a new cycle. */
    void reschedule(Event *ev, Cycle when);

    /** Cancel a pending event. No-op if not scheduled. */
    void deschedule(Event *ev);

    /**
     * Schedule a one-shot callable on a pooled LambdaEvent.
     * @return handle that can be passed to cancelFn.
     */
    template <typename F>
    EventHandle
    scheduleFn(F &&fn, Cycle when, const char *name = "lambda")
    {
        LambdaEvent *ev = acquireLambda(name);
        ev->fn_.assign(std::forward<F>(fn));
        push(ev, when);
        return EventHandle(ev, ev->gen_);
    }

    /** Cancel a scheduleFn event via its handle. No-op if fired. */
    void cancelFn(const EventHandle &handle);

    /**
     * Execute the next pending event, advancing the clock.
     * @return false if the queue is empty.
     */
    bool runOne();

    /**
     * Run until the queue empties, @p until is passed, or
     * @p max_events have been processed. The clock advances to
     * @p until only when the run was not cut short by @p max_events.
     * @return number of events processed.
     */
    std::uint64_t run(Cycle until = kMaxCycle,
                      std::uint64_t max_events = ~std::uint64_t(0));

    /**
     * The drain loop behind every run(): fire events in order until
     * the queue empties, @p until is passed, or @p stop() — asked
     * after every event — returns true. A stop returns right after
     * the event that caused it, even in the middle of a cycle's
     * bucket; that cycle's remaining events stay queued and fire
     * first, in schedule order, on the next call. The clock advances
     * to @p until only when the run was not stopped. Firing order and
     * the clock at every stop are exactly those of a runOne() loop.
     * Events completed in place (completeInPlace) count as processed
     * events and get their own stop() question.
     * @return number of events processed.
     */
    template <std::predicate Stop>
    std::uint64_t run(Cycle until, Stop &&stop);

    /**
     * Stand in for an event at @p when that the caller would schedule
     * as the very last action of the event now firing: if the queue
     * proves nothing else can fire first, advance the clock to
     * @p when and report the stand-in as processed instead. It holds
     * only inside run(), with @p when in the near-band window and not
     * past run()'s horizon, when no live event is due at or before
     * @p when (the rest of the current cycle's bucket included), and
     * when the run's stop() — asked here for the event now firing —
     * is false. A true stop() is remembered: run() returns right
     * after the current event without asking again, and no later
     * stand-in in that event is accepted.
     * @return true if the clock moved to @p when.
     */
    bool completeInPlace(Cycle when);

    /** Stand-ins completeInPlace() accepted over the queue's life. */
    std::uint64_t inPlaceCompletions() const { return inPlaceTotal_; }

    /**
     * Calls to completeInPlace() over the queue's life that returned
     * false: outside run(), past its horizon or the window, an event
     * due first, or stop().
     */
    std::uint64_t inPlaceRefused() const { return inPlaceRefused_; }

    /**
     * Enable/disable batched same-cycle firing in run(). On (the
     * default), run() drains every event of a ring bucket per
     * bucket touch — one occupancy-bitmap scan per simulated cycle
     * instead of one per event. Off falls back to the one-pop-per-fire
     * loop; firing order is identical either way (bucket FIFO order).
     */
    void setBatchFire(bool on) { batchFire_ = on; }
    bool batchFire() const { return batchFire_; }

    /**
     * Pre-size the lambda pool, the heap and the far-band slot pool
     * for @p n imminent schedule/scheduleFn calls so none of them
     * allocates (near-band schedules never do). Used by the parallel
     * weave to commit a whole phase's cross-shard handoffs
     * allocation-free.
     */
    void prepareBulk(std::size_t n);

    /**
     * Cycle of the next live event without firing it, or kMaxCycle
     * when the queue is empty. Non-const because locating the next
     * event drops stale (cancelled) far-band entries on the way. This
     * is what the parallel engine's weave phase uses to compute the
     * global horizon floor across shard queues.
     */
    Cycle nextTime();

    bool empty() const { return live_ == 0; }

    /** Number of live (non-cancelled) pending events. */
    std::size_t pending() const { return live_; }

    /**
     * Entries the queue actually holds, counted by walking its
     * containers (for tests): heap entries, live or stale, plus events
     * linked in ring buckets. Panics if a bucket's occupancy bit
     * disagrees with its list, so a leaked bit cannot hide.
     */
    std::size_t heapSize() const;

  private:
    /** Near-band window: covers this many cycles from ringBase_. */
    static constexpr unsigned kRingBits = 10;
    static constexpr unsigned kRingSize = 1u << kRingBits;
    static constexpr unsigned kOccWords = kRingSize / 64;

    /** Far-band slot: what a heap entry's {slot, gen} refers to. */
    struct SlotRec
    {
        Event *event = nullptr;
        std::uint32_t gen = 1; // advanced on every free
        std::uint32_t nextFree = kNoEventSlot;
    };

    /** Near-band bucket: a FIFO list linked through the events. */
    struct Bucket
    {
        Event *head = nullptr;
        Event *tail = nullptr;
    };

    struct HeapEntry
    {
        Cycle when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    /**
     * The run() in progress, as completeInPlace() needs it: the
     * horizon, the type-erased stop() and what the stand-ins add.
     */
    struct RunFrame
    {
        Cycle until;
        bool (*ask)(void *stop);
        void *stop;
        std::uint64_t inPlace = 0; // stand-ins counted in this run
        bool stopped = false;      // a stand-in's stop() said true
    };

    /** Installs a RunFrame for one run() and restores the outer one. */
    class RunScope
    {
      public:
        RunScope(EventQueue &q, RunFrame &f)
            : q_(q), outer_(std::exchange(q.run_, &f))
        {}
        ~RunScope() { q_.run_ = outer_; }
        RunScope(const RunScope &) = delete;
        RunScope &operator=(const RunScope &) = delete;

      private:
        EventQueue &q_;
        RunFrame *outer_;
    };

    /** The next event to fire, located by findNext(). */
    struct NextEvent
    {
        Cycle when;
        bool fromRing;
        std::uint32_t bucket;
    };

    /**
     * Heap order: a fires before b. The heap is 4-ary: half the
     * levels of a binary heap, and all four children of a node are
     * contiguous, which speeds up the pop-heavy migration path.
     */
    static bool
    before(const HeapEntry &a, const HeapEntry &b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    void heapSiftUp(std::size_t i);
    void heapSiftDown(std::size_t i);
    void heapPush(HeapEntry e);
    void heapPopFront();
    void heapRebuild();

    bool
    entryLive(const HeapEntry &e) const
    {
        return slots_[e.slot].gen == e.gen;
    }

    void push(Event *ev, Cycle when);

    /**
     * Give @p ev a far-band slot and push its heap entry. Out of line
     * so push() stays small on the near-band path.
     */
    void pushFar(Event *ev, Cycle when);

    void
    freeSlot(std::uint32_t idx)
    {
        SlotRec &s = slots_[idx];
        s.event = nullptr;
        ++s.gen; // invalidates the slot's heap entry
        s.nextFree = freeSlotHead_;
        freeSlotHead_ = idx;
        ++freeSlotCount_;
    }

    void
    setOcc(std::uint32_t b)
    {
        occ_[b >> 6] |= std::uint64_t{1} << (b & 63);
    }

    void
    clearOcc(std::uint32_t b)
    {
        occ_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    }

    /** Append @p ev to ring bucket @p b. */
    void
    linkTail(Event *ev, std::uint32_t b)
    {
        Bucket &bk = ring_[b];
        ev->slot_ = kRingSlot;
        ev->next_ = nullptr;
        ev->prev_ = bk.tail;
        if (bk.tail) {
            bk.tail->next_ = ev;
        } else {
            bk.head = ev;
            setOcc(b);
        }
        bk.tail = ev;
    }

    /** Take @p ev out of its ring bucket. */
    void
    unlink(Event *ev)
    {
        const std::uint32_t b = ev->when_ & (kRingSize - 1);
        Bucket &bk = ring_[b];
        if (ev->prev_)
            ev->prev_->next_ = ev->next_;
        else
            bk.head = ev->next_;
        if (ev->next_)
            ev->next_->prev_ = ev->prev_;
        else
            bk.tail = ev->prev_;
        if (!bk.head)
            clearOcc(b);
    }

    /** Unlink and return the head of non-empty ring bucket @p b. */
    Event *
    popHead(std::uint32_t b)
    {
        Bucket &bk = ring_[b];
        Event *ev = bk.head;
        bk.head = ev->next_;
        if (bk.head) {
            bk.head->prev_ = nullptr;
        } else {
            bk.tail = nullptr;
            clearOcc(b);
        }
        return ev;
    }

    /**
     * Locate the next live event (dropping stale heap entries on the
     * way) without firing it. @return false if the queue is empty.
     */
    bool findNext(NextEvent &nx);

    /** Pop and process the event located by findNext(). */
    void fireNext(const NextEvent &nx);

    /** True if any ring bucket in [@p lo, @p hi] holds an event. */
    bool ringBusy(Cycle lo, Cycle hi) const;

    /** Run @p ev, already taken out of its band. */
    void
    fire(Event *ev)
    {
        // Unschedule before processing so process() may reschedule the
        // same event.
        ev->slot_ = kNoEventSlot;
        ++ev->gen_;
        --live_;
        if (ev->owned_) {
            // Pooled one-shot: skip the virtual call, fire-and-destroy
            // the callable in one indirect call, recycle the event.
            auto *le = static_cast<LambdaEvent *>(ev);
            le->fn_.fireAndReset();
            lambdaFree_.push_back(le);
        } else {
            ev->process();
        }
    }

    /**
     * Realign the ring window to now_ (after firing a far-band event)
     * and migrate heap entries that now fall inside it.
     */
    void migrateWindow();

    /** Pop stale (cancelled/rescheduled) entries off the heap top. */
    void skipStale();

    /**
     * Lazy cancellation leaves dead heap entries behind; sweep them
     * once they outnumber live ones so a long run's heap stays O(live).
     */
    void
    compactIfNeeded()
    {
        if (stale_ >= 64 && stale_ * 2 >= heap_.size())
            compactHeap();
    }
    void compactHeap();

    LambdaEvent *newLambda(const char *name);
    LambdaEvent *acquireLambda(const char *name);
    void releaseLambda(LambdaEvent *ev);

    Cycle now_ = 0;
    std::uint64_t nextSeq_ = 0;
    bool batchFire_ = true;
    RunFrame *run_ = nullptr; // the run() in progress, if any
    std::uint64_t inPlaceTotal_ = 0;
    std::uint64_t inPlaceRefused_ = 0;
    std::size_t live_ = 0;
    std::size_t stale_ = 0; // dead entries still in heap_
    std::vector<SlotRec> slots_; // far-band slot pool
    std::uint32_t freeSlotHead_ = kNoEventSlot;
    std::size_t freeSlotCount_ = 0;

    Cycle ringBase_ = 0; // window start, kRingSize-aligned, <= now_
    Bucket ring_[kRingSize] = {};
    std::uint64_t occ_[kOccWords] = {}; // non-empty-bucket bitmap

    std::vector<HeapEntry> heap_;
    // Declared after slots_/ring_/heap_ so pooled events (whose
    // destructors deschedule) are destroyed first at queue teardown.
    std::vector<std::unique_ptr<LambdaEvent>> lambdaStore_;
    std::vector<LambdaEvent *> lambdaFree_;
};

template <std::predicate Stop>
std::uint64_t
EventQueue::run(Cycle until, Stop &&stop)
{
    using StopFn = std::remove_reference_t<Stop>;
    RunFrame frame{until,
                   [](void *s) { return (*static_cast<StopFn *>(s))(); },
                   const_cast<void *>(
                       static_cast<const void *>(std::addressof(stop)))};
    const RunScope scope(*this, frame);
    std::uint64_t n = 0;
    for (;;) {
        NextEvent nx;
        if (!findNext(nx) || nx.when > until) {
            // Drained up to the horizon: the clock advances to it.
            if (until != kMaxCycle && now_ < until)
                now_ = until;
            return n + frame.inPlace;
        }
        if (!batchFire_ || !nx.fromRing) {
            fireNext(nx);
            ++n;
            if (frame.stopped || stop())
                return n + frame.inPlace;
            continue;
        }
        // Batched drain: pop the bucket's head until it is empty, with
        // one bitmap scan per cycle instead of one per event. A fired
        // event may append same-cycle events to this bucket or unlink
        // later ones, so the head is re-read after every fire.
        const std::uint32_t b = nx.bucket;
        now_ = nx.when;
        while (ring_[b].head) {
            fire(popHead(b));
            ++n;
            if (frame.stopped || stop())
                return n + frame.inPlace; // the rest stays queued
        }
    }
}

} // namespace fugu

#endif // FUGU_SIM_EVENT_HH
