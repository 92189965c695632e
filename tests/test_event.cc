/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/event.hh"
#include "sim/log.hh"

using namespace fugu;

namespace
{

class ThrowOnError : public ::testing::Test
{
  protected:
    void SetUp() override { detail::setThrowOnError(true); }
    void TearDown() override { detail::setThrowOnError(false); }
};

using EventTest = ThrowOnError;

struct RecordingEvent : Event
{
    RecordingEvent(const char *name, std::vector<std::string> *log)
        : Event(name), log(log)
    {}

    void process() override { log->push_back(name()); }

    std::vector<std::string> *log;
};

TEST_F(EventTest, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a("a", &log), b("b", &log), c("c", &log);
    eq.schedule(&b, 20);
    eq.schedule(&a, 10);
    eq.schedule(&c, 30);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST_F(EventTest, SameCycleFiresInScheduleOrder)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a("a", &log), b("b", &log), c("c", &log);
    eq.schedule(&c, 5);
    eq.schedule(&a, 5);
    eq.schedule(&b, 5);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"c", "a", "b"}));
}

TEST_F(EventTest, DescheduleCancels)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a("a", &log), b("b", &log);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.deschedule(&a);
    EXPECT_FALSE(a.scheduled());
    EXPECT_TRUE(b.scheduled());
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"b"}));
}

TEST_F(EventTest, RescheduleMovesEvent)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a("a", &log), b("b", &log);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.reschedule(&a, 30);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"b", "a"}));
}

TEST_F(EventTest, EventMaySelfReschedule)
{
    EventQueue eq;
    int count = 0;

    struct Periodic : Event
    {
        Periodic(EventQueue *eq, int *count)
            : Event("periodic"), eq(eq), count(count)
        {}

        void
        process() override
        {
            if (++*count < 5)
                eq->schedule(this, eq->now() + 10);
        }

        EventQueue *eq;
        int *count;
    };

    Periodic p(&eq, &count);
    eq.schedule(&p, 0);
    eq.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST_F(EventTest, DestructionWhileScheduledIsSafe)
{
    EventQueue eq;
    std::vector<std::string> log;
    {
        auto a = std::make_unique<RecordingEvent>("a", &log);
        eq.schedule(a.get(), 10);
        // Destroyed while scheduled: destructor deschedules.
    }
    RecordingEvent b("b", &log);
    eq.schedule(&b, 20);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"b"}));
}

TEST_F(EventTest, ScheduleFnAndCancel)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleFn([&] { ++fired; }, 10);
    auto handle = eq.scheduleFn([&] { fired += 100; }, 20);
    eq.cancelFn(handle);
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST_F(EventTest, CancelAfterFireIsNoop)
{
    EventQueue eq;
    int fired = 0;
    auto handle = eq.scheduleFn([&] { ++fired; }, 10);
    eq.run();
    eq.cancelFn(handle); // already fired; must not crash
    EXPECT_EQ(fired, 1);
}

TEST_F(EventTest, RunUntilStopsAndAdvancesClock)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleFn([&] { ++fired; }, 10);
    eq.scheduleFn([&] { ++fired; }, 100);
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 50u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST_F(EventTest, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.scheduleFn([] {}, 100);
    eq.run();
    RecordingEvent a("a", nullptr);
    EXPECT_THROW(eq.schedule(&a, 50), SimError);
}

TEST_F(EventTest, DoubleSchedulePanics)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a("a", &log);
    eq.schedule(&a, 10);
    EXPECT_THROW(eq.schedule(&a, 20), SimError);
    eq.deschedule(&a);
}

TEST_F(EventTest, RunMaxEventsStopsEarlyAndKeepsClock)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleFn([&] { ++fired; }, 10);
    eq.scheduleFn([&] { ++fired; }, 20);
    eq.scheduleFn([&] { ++fired; }, 30);
    // Cut short by max_events: the clock must stay at the last fired
    // event, not jump to the horizon.
    EXPECT_EQ(eq.run(100, 2), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.pending(), 1u);
    // Resuming with the same horizon drains the rest and then the
    // clock advances to the horizon.
    EXPECT_EQ(eq.run(100), 1u);
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 100u);
}

TEST_F(EventTest, RunMaxEventsExactlyAtHorizonBoundary)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleFn([&] { ++fired; }, 10);
    eq.scheduleFn([&] { ++fired; }, 99);
    // max_events == number of events before the horizon: the budget
    // runs out first, so the clock stays on the last event.
    EXPECT_EQ(eq.run(50, 1), 1u);
    EXPECT_EQ(eq.now(), 10u);
    // No events left before the horizon: clock advances to it.
    EXPECT_EQ(eq.run(50, 1), 0u);
    EXPECT_EQ(eq.now(), 50u);
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 99u);
}

TEST_F(EventTest, StaleHandleOfReusedSlotDoesNotCancel)
{
    EventQueue eq;
    int a = 0, b = 0;
    auto ha = eq.scheduleFn([&] { ++a; }, 10);
    eq.cancelFn(ha);
    // The freed slot is reused immediately; the old handle must be
    // dead (generation mismatch), not alias the new event.
    auto hb = eq.scheduleFn([&] { ++b; }, 10);
    eq.cancelFn(ha); // stale: must be a no-op
    eq.run();
    EXPECT_EQ(a, 0);
    EXPECT_EQ(b, 1);
    (void)hb;
}

TEST_F(EventTest, StaleHandleOfAReusedPooledEventDoesNotCancel)
{
    // The handle names the pooled LambdaEvent itself, and the pool
    // hands the same event straight back. Whether the first occurrence
    // fired or was cancelled, in either band, and wherever the reuse
    // lands, the old handle must not cancel the new occupant.
    for (const Cycle first : {Cycle{5}, Cycle{5000}}) {
        for (const bool fired : {true, false}) {
            for (const Cycle second : {Cycle{5}, Cycle{5000}}) {
                SCOPED_TRACE(testing::Message()
                             << "first +" << first << (fired ? " fired" :
                                                        " cancelled")
                             << ", reused at +" << second);
                EventQueue eq;
                int a = 0, b = 0;
                const EventHandle ha =
                    eq.scheduleFn([&] { ++a; }, eq.now() + first);
                if (fired)
                    eq.run();
                else
                    eq.cancelFn(ha);
                const EventHandle hb =
                    eq.scheduleFn([&] { ++b; }, eq.now() + second);
                ASSERT_EQ(hb.event(), ha.event()) << "the pool reused it";
                eq.cancelFn(ha);
                EXPECT_EQ(eq.pending(), 1u);
                eq.run();
                EXPECT_EQ(a, fired ? 1 : 0);
                EXPECT_EQ(b, 1);
            }
        }
    }
}

TEST_F(EventTest, FarFutureEventsCrossTheRingWindow)
{
    // Events beyond the near-band window park in the overflow heap
    // and migrate as the window advances; order must be unaffected.
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a("a", &log), b("b", &log), c("c", &log),
        d("d", &log);
    eq.schedule(&b, 5000);
    eq.schedule(&a, 3);
    eq.schedule(&c, 200000);
    eq.schedule(&d, 5000); // same cycle as b, scheduled later
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "d", "c"}));
    EXPECT_EQ(eq.now(), 200000u);
}

TEST_F(EventTest, SameCycleOrderAcrossBandMigration)
{
    // 'a' enters the far band; a filler fire advances the window so
    // 'a' migrates to the ring; 'b' then schedules at the same cycle
    // directly into the ring. Schedule order must still hold.
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a("a", &log), b("b", &log), f("f", &log);
    eq.schedule(&a, 2000);
    eq.schedule(&f, 1990);
    eq.run(1995);
    eq.schedule(&b, 2000);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"f", "a", "b"}));
}

TEST_F(EventTest, ScheduleAfterIdleAdvancePastWindow)
{
    // run(until) may move the clock far beyond the current ring
    // window without firing anything; scheduling afterwards must
    // still work and fire at the right time.
    EventQueue eq;
    eq.run(50000);
    EXPECT_EQ(eq.now(), 50000u);
    int fired = 0;
    eq.scheduleFn([&] { ++fired; }, 50001);
    eq.scheduleFn([&] { ++fired; }, 123456);
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 123456u);
}

TEST_F(EventTest, RescheduleChurnKeepsQueueBounded)
{
    // The near band unlinks cancelled events; the far band's lazy
    // cancellation leaves dead entries behind, and its sweeps must
    // keep total held entries O(live), not O(reschedules). The seed
    // kernel grew its heap by one dead entry per reschedule forever.
    EventQueue eq;
    std::vector<std::string> log;
    std::deque<RecordingEvent> evs; // Event is pinned: no moves
    for (int i = 0; i < 16; ++i)
        evs.emplace_back("e", &log);

    // Near-band churn: targets stay inside the ring window.
    for (std::uint64_t i = 0; i < 100000; ++i)
        eq.reschedule(&evs[i % evs.size()], eq.now() + 1 + i % 500);
    EXPECT_EQ(eq.heapSize(), 16u);

    // Far-band churn: targets park in the overflow heap.
    for (std::uint64_t i = 0; i < 100000; ++i)
        eq.reschedule(&evs[i % evs.size()], eq.now() + 100000 + i);
    EXPECT_LT(eq.heapSize(), 16u + 200u);

    for (auto &ev : evs)
        eq.deschedule(&ev);
    eq.run();
    EXPECT_TRUE(eq.empty());
}

TEST_F(EventTest, NearBandChurnHoldsOnlyLiveEvents)
{
    // Random schedule/deschedule/reschedule churn inside the first
    // ring window (cycles below 1024, so the heap stays empty), with
    // firing in between: the near band is exact, so every held entry
    // is a live event.
    EventQueue eq;
    std::vector<std::string> log;
    std::deque<RecordingEvent> evs;
    for (int i = 0; i < 48; ++i)
        evs.emplace_back("e", &log);
    std::uint64_t rng = 99;
    auto rand = [&rng] {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        return rng >> 33;
    };
    for (int i = 0; i < 20000; ++i) {
        RecordingEvent &ev = evs[rand() % evs.size()];
        ASSERT_LT(eq.now(), 1024u);
        const Cycle when = eq.now() + rand() % (1024 - eq.now());
        switch (rand() % 4) {
        case 0:
            if (!ev.scheduled())
                eq.schedule(&ev, when);
            break;
        case 1:
            eq.deschedule(&ev);
            break;
        case 2:
            eq.reschedule(&ev, when);
            break;
        default:
            eq.run(eq.now() + (rand() % 16 == 0 ? 1 : 0));
            break;
        }
        ASSERT_EQ(eq.heapSize(), eq.pending()) << "after step " << i;
    }
    const std::size_t left = eq.pending();
    log.clear();
    EXPECT_EQ(eq.run(), left);
    EXPECT_EQ(log.size(), left);
    EXPECT_EQ(eq.heapSize(), 0u);
}

TEST_F(EventTest, PendingCountsLiveEvents)
{
    EventQueue eq;
    RecordingEvent a("a", nullptr), b("b", nullptr);
    std::vector<std::string> log;
    a.log = &log;
    b.log = &log;
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    EXPECT_EQ(eq.pending(), 2u);
    eq.deschedule(&a);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.empty());
}

// ---------------------------------------------------------------------
// Stop-predicate drain: run(until, stop)
// ---------------------------------------------------------------------

class EventDrainTest : public ThrowOnError,
                       public ::testing::WithParamInterface<bool>
{
};

TEST_P(EventDrainTest, StopMidBucketLeavesTheRestQueuedInOrder)
{
    EventQueue eq;
    eq.setBatchFire(GetParam());
    std::vector<int> log;
    for (int i = 0; i < 5; ++i)
        eq.scheduleFn([&log, i] { log.push_back(i); }, 10);
    eq.scheduleFn([&log] { log.push_back(5); }, 20);
    eq.scheduleFn([&log] { log.push_back(6); }, 20);

    // Stop after the third of cycle 10's five events.
    const std::uint64_t n =
        eq.run(kMaxCycle, [&log] { return log.size() == 3; });
    EXPECT_EQ(n, 3u);
    EXPECT_EQ(eq.now(), 10u) << "a stopped run keeps the clock";
    EXPECT_EQ(eq.pending(), 4u);
    EXPECT_EQ(eq.nextTime(), 10u);

    // A same-cycle event scheduled now queues behind the leftovers.
    eq.scheduleFn([&log] { log.push_back(9); }, 10);
    EXPECT_EQ(eq.run(), 5u);
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4, 9, 5, 6}));
    EXPECT_EQ(eq.now(), 20u);
}

TEST_P(EventDrainTest, StopOnTheFirstEventAndAtTheHorizon)
{
    EventQueue eq;
    eq.setBatchFire(GetParam());
    int fired = 0;
    eq.scheduleFn([&fired] { ++fired; }, 5);
    eq.scheduleFn([&fired] { ++fired; }, 5);
    eq.scheduleFn([&fired] { ++fired; }, 50);
    EXPECT_EQ(eq.run(kMaxCycle, [] { return true; }), 1u);
    EXPECT_EQ(eq.now(), 5u);
    // A stop that never fires: the horizon ends the run and the
    // clock advances to it, as with run(until).
    EXPECT_EQ(eq.run(30, [] { return false; }), 1u);
    EXPECT_EQ(eq.now(), 30u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.run(kMaxCycle, [] { return false; }), 1u);
    EXPECT_EQ(eq.now(), 50u);
}

TEST_P(EventDrainTest, FiringEventEditsTheRestOfItsOwnBucket)
{
    // a..h share cycle 10. a deschedules c, destroys e and reschedules
    // d to the same cycle (to the tail); b then deschedules h, now in
    // the middle of the list. The rest fire in schedule order.
    EventQueue eq;
    eq.setBatchFire(GetParam());
    std::vector<std::string> log;
    RecordingEvent c("c", &log), d("d", &log), f("f", &log),
        g("g", &log), h("h", &log), x("x", &log);
    auto e = std::make_unique<RecordingEvent>("e", &log);

    struct Hook : Event
    {
        explicit Hook(std::function<void()> fn)
            : Event("hook"), fn(std::move(fn))
        {}
        void process() override { fn(); }
        std::function<void()> fn;
    };
    Hook hookA([&] {
        log.push_back("a");
        eq.deschedule(&c);
        e.reset();
        eq.reschedule(&d, eq.now());
    });
    Hook hookB([&] {
        log.push_back("b");
        eq.deschedule(&h);
    });

    eq.schedule(&hookA, 10);
    eq.schedule(&hookB, 10);
    eq.schedule(&c, 10);
    eq.schedule(&d, 10);
    eq.schedule(e.get(), 10);
    eq.schedule(&f, 10);
    eq.schedule(&g, 10);
    eq.schedule(&h, 10);
    eq.schedule(&x, 11);
    EXPECT_EQ(eq.run(), 6u);
    EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "f", "g", "d", "x"}));
    EXPECT_EQ(eq.heapSize(), 0u);
    EXPECT_FALSE(c.scheduled());
    EXPECT_FALSE(h.scheduled());
}

INSTANTIATE_TEST_SUITE_P(BatchFire, EventDrainTest, ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? "On" : "Off";
                         });

/**
 * A self-extending random event storm: every fired event logs
 * (id, cycle) and, from an RNG advanced in firing order, schedules
 * children at the same cycle, a few cycles out or in the far band,
 * and cancels earlier handles. Any difference in firing order between
 * two run loops changes everything after it.
 */
struct Storm
{
    struct Fire
    {
        std::uint64_t id;
        Cycle when;
        bool operator==(const Fire &) const = default;
    };

    explicit Storm(EventQueue &q) : eq(q)
    {
        for (std::uint64_t i = 0; i < 64; ++i)
            spawn(i % 7);
    }

    std::uint64_t
    rand()
    {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        return rng >> 33;
    }

    void
    spawn(Cycle delay)
    {
        const std::uint64_t id = nextId++;
        handles.push_back(eq.scheduleFn(
            [this, id] {
                log.push_back(Fire{id, eq.now()});
                if (nextId >= kMaxEvents)
                    return;
                static constexpr Cycle kDelays[] = {0, 0, 1, 3, 9, 3000};
                const unsigned kids = 1 + rand() % 2;
                for (unsigned k = 0; k < kids; ++k)
                    spawn(kDelays[rand() % 6]);
                if (rand() % 5 == 0)
                    eq.cancelFn(handles[rand() % handles.size()]);
            },
            eq.now() + delay));
    }

    static constexpr std::uint64_t kMaxEvents = 20000;
    EventQueue &eq;
    std::uint64_t rng = 42;
    std::uint64_t nextId = 0;
    std::vector<EventHandle> handles;
    std::vector<Fire> log;
};

TEST_F(EventTest, DrainsFireIdenticallyToAStepLoop)
{
    // Reference: one runOne() per event.
    EventQueue ref_q;
    Storm ref(ref_q);
    std::uint64_t ref_n = 0;
    while (ref_q.runOne())
        ++ref_n;
    ASSERT_GT(ref.log.size(), 10000u);
    ASSERT_EQ(ref_n, ref.log.size());

    for (const bool batch : {true, false}) {
        // One full drain.
        EventQueue q;
        q.setBatchFire(batch);
        Storm s(q);
        EXPECT_EQ(q.run(), ref_n) << "batch=" << batch;
        EXPECT_EQ(s.log, ref.log) << "batch=" << batch;
        EXPECT_EQ(q.now(), ref_q.now());

        // Stop every 7 events, mid-bucket or not, then resume; the
        // clock at each stop matches the step loop's.
        EventQueue cq;
        cq.setBatchFire(batch);
        Storm c(cq);
        std::uint64_t total = 0;
        for (;;) {
            std::uint64_t k = 0;
            const std::uint64_t n =
                cq.run(kMaxCycle, [&k] { return ++k == 7; });
            total += n;
            if (n == 0)
                break;
            ASSERT_EQ(cq.now(), ref.log[total - 1].when);
        }
        EXPECT_EQ(total, ref_n) << "batch=" << batch;
        EXPECT_EQ(c.log, ref.log) << "batch=" << batch;
    }
}

// ---------------------------------------------------------------------
// Spends completed in place: completeInPlace(when)
// ---------------------------------------------------------------------

/**
 * Stands in for a coroutine that spends: each firing (the spend-end)
 * logs its cycle, then starts the next spend of the list. A spend
 * that completeInPlace() accepts ends at once, without an event.
 */
struct SpendChain : Event
{
    SpendChain(EventQueue &q, std::vector<Cycle> spends)
        : Event("spend-chain"), eq(q), spends(std::move(spends))
    {}

    void
    process() override
    {
        ends.push_back(eq.now());
        while (next < spends.size()) {
            const Cycle end = eq.now() + spends[next++];
            if (!eq.completeInPlace(end)) {
                eq.schedule(this, end);
                return;
            }
            ends.push_back(eq.now());
        }
    }

    EventQueue &eq;
    std::vector<Cycle> spends;
    std::size_t next = 0;
    std::vector<Cycle> ends;
};

TEST_F(EventTest, NothingCompletesInPlaceOutsideRun)
{
    EventQueue eq;
    SpendChain c(eq, {10, 10});
    eq.schedule(&c, 0);
    while (eq.runOne()) {
    }
    EXPECT_EQ(c.ends, (std::vector<Cycle>{0, 10, 20}));
    EXPECT_EQ(eq.inPlaceCompletions(), 0u);
    EXPECT_FALSE(eq.completeInPlace(eq.now() + 1));
    EXPECT_EQ(eq.inPlaceRefused(), 3u);
}

TEST_F(EventTest, EventDueAtTheSpendEndFiresFirst)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent x("x", &log);
    SpendChain c(eq, {10, 10});
    eq.schedule(&c, 0);
    eq.schedule(&x, 10);
    // x is due exactly when the first spend ends: that spend gets its
    // own event, which fires after x. The second ends in place.
    EXPECT_EQ(eq.run(), 4u);
    EXPECT_EQ(log, (std::vector<std::string>{"x"}));
    EXPECT_EQ(c.ends, (std::vector<Cycle>{0, 10, 20}));
    EXPECT_EQ(eq.inPlaceCompletions(), 1u);
    EXPECT_EQ(eq.inPlaceRefused(), 1u);

    // One cycle later and x no longer blocks the spend.
    EventQueue eq2;
    RecordingEvent y("y", &log);
    SpendChain d(eq2, {10});
    eq2.schedule(&d, 0);
    eq2.schedule(&y, 11);
    EXPECT_EQ(eq2.run(), 3u);
    EXPECT_EQ(eq2.inPlaceCompletions(), 1u);
    EXPECT_EQ(d.ends, (std::vector<Cycle>{0, 10}));
}

TEST_F(EventTest, SameCycleEventQueuedBehindTheSpenderBlocksIt)
{
    EventQueue eq;
    std::vector<std::string> log;
    SpendChain c(eq, {5});
    RecordingEvent x("x", &log);
    eq.schedule(&c, 0);
    eq.schedule(&x, 0); // same cycle, after the spender
    eq.run();
    EXPECT_EQ(eq.inPlaceCompletions(), 0u);
    EXPECT_EQ(c.ends, (std::vector<Cycle>{0, 5}));
}

TEST_F(EventTest, StaleOnlyBucketInsideTheSpendIsPassed)
{
    // Cycle 5's bucket is emptied before the spend [0, 10] runs: its
    // last live entry is descheduled, or moved past the spend. Either
    // way the spend completes in place.
    for (const bool moved : {false, true}) {
        SCOPED_TRACE(moved ? "moved past the spend" : "descheduled");
        EventQueue eq;
        std::vector<std::string> log;
        RecordingEvent x("x", &log), y("y", &log), z("z", &log);
        SpendChain c(eq, {10});
        eq.schedule(&c, 0);
        eq.schedule(&x, 5);
        eq.schedule(&y, 5);
        eq.deschedule(&x);
        if (moved)
            eq.reschedule(&y, 11);
        else
            eq.deschedule(&y);
        EXPECT_EQ(eq.run(10), 2u);
        EXPECT_EQ(eq.inPlaceCompletions(), 1u);
        EXPECT_EQ(eq.inPlaceRefused(), 0u);
        EXPECT_EQ(c.ends, (std::vector<Cycle>{0, 10}));
        EXPECT_EQ(eq.heapSize(), moved ? 1u : 0u)
            << "the passed bucket kept its entries";
        // A cycle that reuses the cleared bucket a window later fires
        // normally.
        eq.schedule(&z, 5 + 1024);
        eq.run();
        EXPECT_EQ(log, moved ? (std::vector<std::string>{"y", "z"})
                             : (std::vector<std::string>{"z"}));
        EXPECT_EQ(eq.now(), 5u + 1024u);
    }

    // A descheduled entry ahead of a live one in the same bucket: the
    // live one still blocks the spend and fires first.
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent u("u", &log), v("v", &log);
    SpendChain d(eq, {10});
    eq.schedule(&d, 0);
    eq.schedule(&u, 7);
    eq.schedule(&v, 7);
    eq.deschedule(&u);
    eq.run();
    EXPECT_EQ(eq.inPlaceCompletions(), 0u);
    EXPECT_EQ(log, (std::vector<std::string>{"v"}));
    EXPECT_EQ(d.ends, (std::vector<Cycle>{0, 10}));
}

TEST_F(EventTest, RunUntilNeverCompletesPastTheHorizon)
{
    EventQueue eq;
    SpendChain c(eq, {10, 10});
    eq.schedule(&c, 0);
    // The first spend ends at 10 <= 15, in place; the second would end
    // at 20 > 15, so it gets an event and the clock lands on 15.
    EXPECT_EQ(eq.run(15), 2u);
    EXPECT_EQ(eq.now(), 15u);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_EQ(c.ends, (std::vector<Cycle>{0, 10}));
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_EQ(c.ends, (std::vector<Cycle>{0, 10, 20}));
    EXPECT_EQ(eq.inPlaceCompletions(), 1u);

    // A spend ending exactly on the horizon may complete in place.
    EventQueue eq2;
    SpendChain d(eq2, {15});
    eq2.schedule(&d, 0);
    EXPECT_EQ(eq2.run(15), 2u);
    EXPECT_EQ(eq2.inPlaceCompletions(), 1u);
    EXPECT_EQ(eq2.now(), 15u);
}

TEST_F(EventTest, SpendPastTheNearBandGetsAnEvent)
{
    EventQueue eq;
    SpendChain c(eq, {2000, 3});
    eq.schedule(&c, 0);
    EXPECT_EQ(eq.run(), 3u);
    EXPECT_EQ(c.ends, (std::vector<Cycle>{0, 2000, 2003}));
    EXPECT_EQ(eq.inPlaceCompletions(), 1u); // only the 3-cycle spend
}

TEST_F(EventTest, RunMaxEventsCountsInPlaceCompletions)
{
    for (std::uint64_t max : {1u, 2u, 3u, 4u}) {
        SCOPED_TRACE(max);
        EventQueue eq;
        SpendChain c(eq, {10, 10, 10});
        eq.schedule(&c, 0);
        // Four events in all: the first firing and three spend-ends.
        EXPECT_EQ(eq.run(100, max), max);
        EXPECT_EQ(c.ends.size(), max);
        EXPECT_EQ(eq.now(), 10 * (max - 1));
        EXPECT_EQ(eq.inPlaceCompletions(), max - 1);
        // The rest runs when the run resumes.
        EXPECT_EQ(eq.run(100), 4 - max);
        EXPECT_EQ(c.ends, (std::vector<Cycle>{0, 10, 20, 30}));
        EXPECT_EQ(eq.now(), 100u);
    }
}

TEST_F(EventTest, StopIsAskedOncePerEventInPlaceOrNot)
{
    EventQueue eq;
    SpendChain c(eq, {10, 10, 10});
    eq.schedule(&c, 0);
    std::uint64_t asked = 0;
    EXPECT_EQ(eq.run(kMaxCycle, [&] { return ++asked == 0; }), 4u);
    EXPECT_EQ(asked, 4u);
    EXPECT_EQ(eq.inPlaceCompletions(), 3u);

    // A stop that says yes inside a spend's check: the spend gets
    // its event and the run returns right after the current firing,
    // with no second question.
    EventQueue eq2;
    SpendChain d(eq2, {10, 10, 10});
    eq2.schedule(&d, 0);
    asked = 0;
    EXPECT_EQ(eq2.run(kMaxCycle, [&] { return ++asked == 2; }), 2u);
    EXPECT_EQ(asked, 2u);
    EXPECT_EQ(eq2.now(), 10u);
    EXPECT_EQ(eq2.pending(), 1u);
    EXPECT_EQ(d.ends, (std::vector<Cycle>{0, 10}));
    asked = 0;
    EXPECT_EQ(eq2.run(kMaxCycle, [&] { return ++asked == 0; }), 2u);
    EXPECT_EQ(asked, 2u);
    EXPECT_EQ(d.ends, (std::vector<Cycle>{0, 10, 20, 30}));
}

/**
 * The Storm with spends: an event's last act may be a spend, whose
 * end continues the same body. The end is an event of its own unless
 * completeInPlace() accepts it; a runOne() loop never does, so it is
 * the reference every drain must match event for event.
 */
struct SpendStorm
{
    explicit SpendStorm(EventQueue &q) : eq(q)
    {
        for (std::uint64_t i = 0; i < 64; ++i)
            spawn(i % 7);
    }

    std::uint64_t
    rand()
    {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        return rng >> 33;
    }

    void
    spawn(Cycle delay)
    {
        const std::uint64_t id = nextId++;
        handles.push_back(
            eq.scheduleFn([this, id] { body(id); }, eq.now() + delay));
    }

    void
    body(std::uint64_t id)
    {
        for (;;) {
            log.push_back(Storm::Fire{id, eq.now()});
            if (nextId >= kMaxEvents)
                return;
            static constexpr Cycle kDelays[] = {0, 0, 1, 3, 9, 3000};
            if (rand() % 3 == 0)
                spawn(kDelays[rand() % 6]);
            if (rand() % 5 == 0)
                eq.cancelFn(handles[rand() % handles.size()]);
            if (rand() % 4 == 0)
                return;
            static constexpr Cycle kSpends[] = {1, 2, 4, 7, 30, 900, 1500};
            const Cycle end = eq.now() + kSpends[rand() % 7];
            const std::uint64_t sid = nextId++;
            if (!eq.completeInPlace(end)) {
                handles.push_back(
                    eq.scheduleFn([this, sid] { body(sid); }, end));
                return;
            }
            handles.emplace_back(); // fired already: cancels no-op
            id = sid;
        }
    }

    static constexpr std::uint64_t kMaxEvents = 20000;
    EventQueue &eq;
    std::uint64_t rng = 7;
    std::uint64_t nextId = 0;
    std::vector<EventHandle> handles;
    std::vector<Storm::Fire> log;
};

TEST_F(EventTest, InPlaceDrainsMatchAStepLoop)
{
    EventQueue ref_q;
    SpendStorm ref(ref_q);
    std::uint64_t ref_n = 0;
    while (ref_q.runOne())
        ++ref_n;
    ASSERT_GT(ref.log.size(), 10000u);
    ASSERT_EQ(ref_n, ref.log.size());
    ASSERT_EQ(ref_q.inPlaceCompletions(), 0u);

    for (const bool batch : {true, false}) {
        SCOPED_TRACE(batch ? "batch" : "no batch");
        EventQueue q;
        q.setBatchFire(batch);
        SpendStorm s(q);
        EXPECT_EQ(q.run(), ref_n);
        EXPECT_EQ(s.log, ref.log);
        EXPECT_EQ(q.now(), ref_q.now());
        EXPECT_GT(q.inPlaceCompletions(), ref_n / 100);
        EXPECT_LT(q.inPlaceCompletions(), ref_n);

        // Count-limited runs: each stops after exactly 7 events, in
        // place or not, with the clock where the step loop had it.
        EventQueue cq;
        cq.setBatchFire(batch);
        SpendStorm c(cq);
        std::uint64_t total = 0;
        for (;;) {
            const std::uint64_t n = cq.run(kMaxCycle, 7);
            total += n;
            if (n < 7)
                break;
            ASSERT_EQ(cq.now(), ref.log[total - 1].when);
        }
        EXPECT_EQ(total, ref_n);
        EXPECT_EQ(c.log, ref.log);

        // Horizon-limited runs: the clock lands on every horizon and
        // no spend ends past one.
        EventQueue hq;
        hq.setBatchFire(batch);
        SpendStorm h(hq);
        total = 0;
        for (Cycle until = 37; !hq.empty(); until += 37) {
            total += hq.run(until);
            ASSERT_EQ(hq.now(), until);
            ASSERT_TRUE(h.log.empty() || h.log.back().when <= until);
        }
        EXPECT_EQ(total, ref_n);
        EXPECT_EQ(h.log, ref.log);
    }
}

} // namespace
