/**
 * @file
 * Mutation tests for the invariant checker's per-message checks:
 * per-sender FIFO, content transparency and unknown deliveries. Each
 * test drives the checker's PacketWatcher hooks directly on a small
 * idle Machine, feeding it deliberately reordered, corrupted,
 * duplicated or forged deliveries, and asserts the exact violation
 * counts — including that a stream's bookkeeping, erased whenever the
 * stream has nothing in flight, never produces a false positive when
 * the stream starts again.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "glaze/machine.hh"
#include "net/packet.hh"

using namespace fugu;
using namespace fugu::glaze;

namespace
{

/** A GID with several bits set: no single-bit flip makes it 0. */
constexpr Gid kGid = 0x0f35;

struct CheckerTest : ::testing::Test
{
    static MachineConfig
    config()
    {
        MachineConfig cfg;
        cfg.nodes = 4;
        cfg.check.sweepEvery = 0; // per-message checks only
        return cfg;
    }

    CheckerTest() : m(config()), chk(*m.checker()), st(chk.stats) {}

    /** Inject a message on stream (src -> dst, kGid). */
    net::Packet
    inject(NodeId src, NodeId dst, std::vector<Word> payload = {1, 2})
    {
        net::Packet p;
        p.src = src;
        p.dst = dst;
        p.gid = kGid;
        p.handler = 0x1234;
        for (Word w : payload)
            p.payload.push_back(w);
        p.seq = nextSeq++;
        chk.onInject(p);
        return p;
    }

    /** Hand @p p to user code on its own destination node. */
    void
    deliver(const net::Packet &p)
    {
        chk.onDeliver(p, p.dst, p.gid, false);
    }

    Machine m;
    InvariantChecker &chk;
    const InvariantChecker::Stats &st;
    std::uint64_t nextSeq = 0;
};

TEST_F(CheckerTest, InOrderStreamChecksClean)
{
    for (int i = 0; i < 3; ++i)
        deliver(inject(0, 1, {static_cast<Word>(i)}));
    EXPECT_EQ(st.checkedDeliveries.value(), 3.0);
    EXPECT_EQ(chk.totalViolations(), 0.0);
    EXPECT_EQ(chk.inFlight(), 0u);
    EXPECT_EQ(chk.liveStreams(), 0u);
}

TEST_F(CheckerTest, SwappedPairIsTwoFifoViolations)
{
    const net::Packet a = inject(0, 1);
    const net::Packet b = inject(0, 1);
    deliver(b); // #1 while #0 was next
    deliver(a); // #0 after #1 moved the stream past it
    EXPECT_EQ(st.fifoViolations.value(), 2.0);
    EXPECT_EQ(chk.totalViolations(), 2.0);
    EXPECT_EQ(st.checkedDeliveries.value(), 2.0);
}

TEST_F(CheckerTest, LastMessageFirstKeepsTheStreamUntilAllAreConsumed)
{
    // After #2 is consumed first the stream has send == consume == 3,
    // yet #0 and #1 are still in flight: the stream must survive, or
    // their late deliveries would look like a fresh stream's and the
    // violation would go unseen.
    const net::Packet p0 = inject(0, 1);
    const net::Packet p1 = inject(0, 1);
    const net::Packet p2 = inject(0, 1);
    deliver(p2);
    EXPECT_EQ(st.fifoViolations.value(), 1.0);
    EXPECT_EQ(chk.liveStreams(), 1u);
    EXPECT_EQ(chk.inFlight(), 2u);
    deliver(p0);
    deliver(p1);
    EXPECT_EQ(st.fifoViolations.value(), 3.0);
    EXPECT_EQ(chk.liveStreams(), 0u);

    // A restarted stream checks clean again.
    deliver(inject(0, 1));
    deliver(inject(0, 1));
    EXPECT_EQ(st.fifoViolations.value(), 3.0);
    EXPECT_EQ(chk.totalViolations(), 3.0);
}

TEST_F(CheckerTest, IdleStreamIsErasedAndRestartsCleanly)
{
    for (int round = 0; round < 3; ++round) {
        // Two interleaved streams; one also pipelines several
        // messages before any is consumed.
        std::vector<net::Packet> a, b;
        for (int i = 0; i < 4; ++i)
            a.push_back(inject(2, 3, {static_cast<Word>(round), 1}));
        b.push_back(inject(3, 2));
        EXPECT_EQ(chk.liveStreams(), 2u);
        deliver(a[0]);
        deliver(b[0]);
        EXPECT_EQ(chk.liveStreams(), 1u);
        for (int i = 1; i < 4; ++i)
            deliver(a[i]);
        EXPECT_EQ(chk.liveStreams(), 0u) << "round " << round;
        EXPECT_EQ(chk.inFlight(), 0u);
    }
    EXPECT_EQ(st.checkedDeliveries.value(), 15.0);
    EXPECT_EQ(chk.totalViolations(), 0.0);
}

TEST_F(CheckerTest, EveryBitFlipIsAContentViolation)
{
    const std::vector<Word> payload = {0, 0xffffffffu, 0x5a5a5a5au, 7};
    std::vector<net::Packet> mutants;
    const net::Packet base = [&] {
        net::Packet p;
        p.src = 1;
        p.dst = 2;
        p.gid = kGid;
        p.handler = 0x1234;
        for (Word w : payload)
            p.payload.push_back(w);
        return p;
    }();
    for (unsigned bit = 0; bit < 16; ++bit) {
        net::Packet q = base;
        q.src = static_cast<NodeId>(q.src ^ (1u << bit));
        mutants.push_back(q);
        q = base;
        q.dst = static_cast<NodeId>(q.dst ^ (1u << bit));
        mutants.push_back(q);
        q = base;
        q.gid = static_cast<Gid>(q.gid ^ (1u << bit));
        mutants.push_back(q);
    }
    for (unsigned bit = 0; bit < 32; ++bit) {
        net::Packet q = base;
        q.handler ^= 1u << bit;
        mutants.push_back(q);
        for (std::size_t w = 0; w < payload.size(); ++w) {
            q = base;
            q.payload[w] ^= 1u << bit;
            mutants.push_back(q);
        }
    }
    // Length: one word more, one word less, and no payload at all.
    net::Packet q = base;
    q.payload.push_back(0);
    mutants.push_back(q);
    q = base;
    q.payload.assign(base.payload.begin(), base.payload.end() - 1);
    mutants.push_back(q);
    q = base;
    q.payload.clear();
    mutants.push_back(q);

    for (const net::Packet &mut : mutants) {
        net::Packet sent = inject(base.src, base.dst, payload);
        net::Packet got = mut;
        got.seq = sent.seq;
        // Consume on the node and GID the corrupted header names, so
        // only the checksum can notice.
        chk.onDeliver(got, got.dst, got.gid, false);
    }
    EXPECT_EQ(st.contentViolations.value(),
              static_cast<double>(mutants.size()));
    EXPECT_EQ(st.fifoViolations.value(), 0.0);
    EXPECT_EQ(st.unknownDeliveries.value(), 0.0);
    EXPECT_EQ(st.gidViolations.value(), 0.0);
    EXPECT_EQ(chk.liveStreams(), 0u);

    // The unmodified packet still checks clean.
    deliver(inject(base.src, base.dst, payload));
    EXPECT_EQ(chk.totalViolations(), static_cast<double>(mutants.size()));
}

TEST_F(CheckerTest, DoubleAndForgedDeliveriesAreUnknown)
{
    const net::Packet p = inject(0, 1);
    deliver(p);
    deliver(p); // consumed twice
    EXPECT_EQ(st.unknownDeliveries.value(), 1.0);

    net::Packet forged = p;
    forged.seq = 1000; // never injected
    deliver(forged);
    EXPECT_EQ(st.unknownDeliveries.value(), 2.0);
    EXPECT_EQ(st.checkedDeliveries.value(), 1.0);
    EXPECT_EQ(chk.totalViolations(), 2.0);
}

TEST_F(CheckerTest, DropRetiresTheSlotSoLaterDeliveriesCheckClean)
{
    const net::Packet p0 = inject(0, 1);
    const net::Packet p1 = inject(0, 1);
    const net::Packet p2 = inject(0, 1);
    chk.onDrop(p0, p0.dst);
    EXPECT_EQ(chk.inFlight(), 2u);
    deliver(p1);
    chk.onDrop(p2, p2.dst);
    EXPECT_EQ(chk.liveStreams(), 0u);
    EXPECT_EQ(chk.inFlight(), 0u);

    // Dropping a message twice, or one never injected, is ignored.
    chk.onDrop(p2, p2.dst);
    deliver(inject(0, 1));
    EXPECT_EQ(st.checkedDeliveries.value(), 2.0);
    EXPECT_EQ(chk.totalViolations(), 0.0);

    // A drop never consumes a message: delivering it afterwards is
    // an unknown delivery.
    deliver(p0);
    EXPECT_EQ(st.unknownDeliveries.value(), 1.0);
}

} // namespace
