/**
 * @file
 * Allocation tests for the event kernel: after warm-up, the
 * schedule/fire, schedule/cancel and reschedule hot paths must not
 * touch the global heap at all — pooled LambdaEvents, inline SmallFn
 * storage, near-band buckets linked through the events themselves,
 * and recycled far-band slot/heap capacity cover steady state.
 *
 * The global operator new/delete are replaced with counting versions;
 * each test warms the queue up (growing pools and vector capacity),
 * snapshots the allocation counter, runs the steady-state loop, and
 * asserts the counter did not move.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "sim/event.hh"
#include "count_new.hh"

namespace
{

using namespace fugu;

/** Chained one-shot callable with a capture the size of a Packet. */
struct Chain
{
    EventQueue *eq;
    std::uint64_t *remaining;
    std::uint64_t pad[5];

    void
    operator()() const
    {
        if (*remaining == 0)
            return;
        --*remaining;
        eq->scheduleFn(*this, eq->now() + 1, "chain");
    }
};

TEST(EventAllocTest, ScheduleFireSteadyStateIsAllocationFree)
{
    EventQueue eq;
    // Warm-up grows the lambda pool to the 64 in flight.
    std::uint64_t remaining = 70000;
    for (unsigned i = 0; i < 64; ++i)
        eq.scheduleFn(Chain{&eq, &remaining, {}}, eq.now() + 1,
                      "chain");
    eq.run();
    ASSERT_EQ(remaining, 0u);

    remaining = 20000;
    for (unsigned i = 0; i < 64; ++i)
        eq.scheduleFn(Chain{&eq, &remaining, {}}, eq.now() + 1,
                      "chain");
    const std::uint64_t before = g_newCalls.load();
    eq.run();
    EXPECT_EQ(g_newCalls.load(), before)
        << "schedule/fire steady state allocated";
    EXPECT_EQ(remaining, 0u);
}

TEST(EventAllocTest, ScheduleCancelSteadyStateIsAllocationFree)
{
    EventQueue eq;
    std::vector<EventHandle> handles(256);
    int sink = 0;
    auto round = [&] {
        for (std::size_t i = 0; i < handles.size(); ++i)
            handles[i] = eq.scheduleFn([&sink] { ++sink; },
                                       eq.now() + 100 + i, "churn");
        for (const EventHandle &h : handles)
            eq.cancelFn(h);
    };
    for (int r = 0; r < 8; ++r) // warm-up
        round();
    const std::uint64_t before = g_newCalls.load();
    for (int r = 0; r < 64; ++r)
        round();
    EXPECT_EQ(g_newCalls.load(), before)
        << "schedule/cancel steady state allocated";
    eq.run();
    EXPECT_EQ(sink, 0);
}

TEST(EventAllocTest, RescheduleChurnSteadyStateIsAllocationFree)
{
    struct Nop : Event
    {
        Nop() : Event("nop") {}
        void process() override {}
    };

    EventQueue eq;
    std::vector<Nop> evs(16);
    // Warm-up: drives both the near band (small deltas) and the far
    // band (large deltas), triggering sweeps of each.
    for (std::uint64_t i = 0; i < 20000; ++i)
        eq.reschedule(&evs[i % evs.size()],
                      eq.now() + 1 + i % 3000);
    const std::uint64_t before = g_newCalls.load();
    for (std::uint64_t i = 0; i < 20000; ++i)
        eq.reschedule(&evs[i % evs.size()],
                      eq.now() + 1 + i % 3000);
    EXPECT_EQ(g_newCalls.load(), before)
        << "reschedule steady state allocated";
    for (auto &ev : evs)
        eq.deschedule(&ev);
    eq.run();
    EXPECT_TRUE(eq.empty());
}

TEST(EventAllocTest, NearBandChurnSteadyStateIsAllocationFree)
{
    struct Nop : Event
    {
        Nop() : Event("nop") {}
        void process() override {}
    };

    EventQueue eq;
    std::vector<Nop> evs(32);
    std::vector<EventHandle> handles(64);
    int sink = 0;
    // Schedule, cancel and reschedule inside the ring window, with
    // the clock moving between rounds, so buckets fill and empty.
    auto round = [&](std::uint64_t r) {
        for (std::size_t i = 0; i < evs.size(); ++i) {
            if (!evs[i].scheduled())
                eq.schedule(&evs[i], eq.now() + (r + i) % 700);
            eq.reschedule(&evs[(i * 7 + r) % evs.size()],
                          eq.now() + (i * 13 + r) % 900);
            if ((i + r) % 3 == 0)
                eq.deschedule(&evs[(i + 5) % evs.size()]);
        }
        for (std::size_t i = 0; i < handles.size(); ++i)
            handles[i] = eq.scheduleFn([&sink] { ++sink; },
                                       eq.now() + (r * 31 + i) % 1000,
                                       "churn");
        for (std::size_t i = 0; i < handles.size(); i += 2)
            eq.cancelFn(handles[i]);
        eq.run(eq.now() + 3);
    };
    for (std::uint64_t r = 0; r < 2000; ++r) // warm-up
        round(r);
    const std::uint64_t before = g_newCalls.load();
    for (std::uint64_t r = 2000; r < 6000; ++r)
        round(r);
    EXPECT_EQ(g_newCalls.load(), before)
        << "near-band churn steady state allocated";
    for (auto &ev : evs)
        eq.deschedule(&ev);
    eq.run();
    EXPECT_GT(sink, 0);
}

TEST(EventAllocTest, PrepareBulkMakesFarBandSchedulesAllocationFree)
{
    constexpr std::size_t kN = 4096;
    EventQueue eq;
    int sink = 0;
    eq.prepareBulk(kN);
    const std::uint64_t before = g_newCalls.load();
    for (std::size_t i = 0; i < kN; ++i)
        eq.scheduleFn([&sink] { ++sink; }, eq.now() + 5000 + i % 3000,
                      "bulk");
    EXPECT_EQ(g_newCalls.load(), before)
        << "a prepared far-band schedule allocated";
    EXPECT_EQ(eq.run(), kN);
    EXPECT_EQ(sink, static_cast<int>(kN));
}

} // namespace
