/**
 * @file
 * Allocation test for the packet path: after warm-up, injecting a
 * message, carrying it across the fabric, delivering it to a sink,
 * and releasing (and so erasing) the channel must not touch the
 * global heap. The inline payload (WordVec), the flat channel map,
 * the RingDeque arrival queues, the pooled arrival events and the
 * intrusive back-pressure waiters together leave nothing to allocate
 * in steady state.
 *
 * Same shape as test_event_alloc: counting operator new/delete, warm
 * up to high-water capacity, snapshot the counter, assert it holds.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "net/network.hh"
#include "count_new.hh"

namespace
{

using namespace fugu;
using namespace fugu::net;

/** Accepts everything; keeps only a delivery count. */
struct CountSink : NetSink
{
    std::uint64_t delivered = 0;

    bool
    tryDeliver(Packet &&) override
    {
        ++delivered;
        return true;
    }
};

struct PacketAllocTest : ::testing::Test
{
    static constexpr unsigned kNodes = 8;

    PacketAllocTest()
        : stats("t"), net(eq, NetworkConfig{}, "net", &stats)
    {
        for (NodeId n = 0; n < kNodes; ++n)
            net.attach(n, &sinks[n]);
    }

    Packet
    mkPkt(NodeId src, NodeId dst, unsigned payload_words)
    {
        Packet p;
        p.src = src;
        p.dst = dst;
        p.handler = 7;
        for (unsigned i = 0; i < payload_words; ++i)
            p.payload.push_back(i);
        return p;
    }

    /** One all-pairs round: every node sends to every other node. */
    void
    round(unsigned payload_words)
    {
        for (NodeId s = 0; s < kNodes; ++s)
            for (NodeId d = 0; d < kNodes; ++d) {
                while (!net.canAccept(s, d, 2 + payload_words))
                    eq.runOne();
                net.send(mkPkt(s, d, payload_words));
            }
        eq.run();
    }

    EventQueue eq;
    StatGroup stats;
    Network net;
    CountSink sinks[kNodes];
};

TEST_F(PacketAllocTest, SteadyStateDeliveryIsAllocationFree)
{
    // Warm-up: populate every (src,dst) channel, grow the channel
    // map, the arrival rings and the event pools to their high-water
    // marks — including max-size payloads. Pools grow on the first
    // round that needs more than they hold, so warm-up keeps going
    // until a long quiet streak.
    int quiet = 0;
    for (int r = 0; quiet < 512 && r < 50000; ++r) {
        const std::uint64_t b = g_newCalls.load();
        round(kMaxPayloadWords);
        quiet = g_newCalls.load() == b ? quiet + 1 : 0;
    }
    ASSERT_EQ(quiet, 512) << "packet path never reached an "
                            "allocation-free steady state";
    const std::uint64_t before_count = sinks[0].delivered;
    ASSERT_GT(before_count, 0u);

    const std::uint64_t before = g_newCalls.load();
    for (int r = 0; r < 256; ++r)
        round(kMaxPayloadWords);
    EXPECT_EQ(g_newCalls.load(), before)
        << "packet path allocated in steady state";
    EXPECT_GT(sinks[0].delivered, before_count);
}

TEST_F(PacketAllocTest, ChannelChurnIsAllocationFree)
{
    // Node 0 sends a burst to one destination, which drains and so
    // erases that channel; the next burst goes to another destination
    // and recreates one. Erase and re-insert reuse the channel map's
    // slots, so the churn never touches the heap once warm.
    bool allDrained = true;
    auto burst = [&](int r) {
        const NodeId dst = static_cast<NodeId>(1 + r % (kNodes - 1));
        for (int i = 0; i < 3; ++i)
            net.send(mkPkt(0, dst, kMaxPayloadWords));
        eq.run();
        allDrained = allDrained && net.channelTableHealth().entries == 0;
    };
    int quiet = 0;
    int r = 0;
    for (; quiet < 512 && r < 50000; ++r) {
        const std::uint64_t b = g_newCalls.load();
        burst(r);
        quiet = g_newCalls.load() == b ? quiet + 1 : 0;
    }
    ASSERT_EQ(quiet, 512) << "channel churn never reached an "
                            "allocation-free steady state";

    const std::uint64_t before = g_newCalls.load();
    for (int i = 0; i < 256; ++i)
        burst(r + i);
    EXPECT_EQ(g_newCalls.load(), before)
        << "channel erase/recreate allocated in steady state";
    EXPECT_TRUE(allDrained) << "a drained channel was not erased";
    EXPECT_GT(sinks[kNodes - 1].delivered, 0u);
}

TEST_F(PacketAllocTest, BackPressureWakeupIsAllocationFree)
{
    // Saturate one channel so sends block, then drain it: the
    // intrusive space waiter must link, fire and unlink without
    // touching the heap.
    struct Waiter : SpaceWaiter
    {
        int fired = 0;
        void onSpaceAvailable() override { ++fired; }
    } waiter;

    auto saturate = [&] {
        unsigned sent = 0;
        while (net.canAccept(0, 1, kMaxMessageWords)) {
            net.send(mkPkt(0, 1, kMaxPayloadWords));
            ++sent;
        }
        return sent;
    };

    // Warm-up until the saturate/subscribe/drain cycle stops touching
    // the heap (pools reach steady-state capacity, see above).
    auto cycle = [&] {
        saturate();
        net.subscribeSpace(0, 1, &waiter);
        eq.run();
    };
    int quiet = 0;
    for (int r = 0; quiet < 512 && r < 50000; ++r) {
        const std::uint64_t b = g_newCalls.load();
        cycle();
        quiet = g_newCalls.load() == b ? quiet + 1 : 0;
    }
    ASSERT_EQ(quiet, 512) << "back-pressure path never reached an "
                            "allocation-free steady state";
    ASSERT_GE(waiter.fired, 1);

    const int fired_before = waiter.fired;
    const std::uint64_t before = g_newCalls.load();
    for (int r = 0; r < 256; ++r)
        cycle();
    EXPECT_EQ(g_newCalls.load(), before)
        << "back-pressure wakeup allocated in steady state";
    EXPECT_GE(waiter.fired, fired_before + 256);
}

} // namespace
