/**
 * @file
 * Unit tests for the UdmPort user-level API: cost accounting (the
 * building blocks of Table 4), conditional injection, transparent
 * buffered reads, and the observer hooks.
 */

#include <gtest/gtest.h>

#include "core/udm.hh"
#include "glaze/machine.hh"
#include "sim/log.hh"

using namespace fugu;
using namespace fugu::glaze;
using exec::CoTask;

namespace
{

struct UdmTest : ::testing::Test
{
    UdmTest() { detail::setThrowOnError(true); }
    ~UdmTest() override { detail::setThrowOnError(false); }
};

CoTask<void>
sendCosts(Process &p, std::vector<double> *deltas)
{
    // Null message: descriptor construction (6) + launch (1).
    double before = p.cpu().userCycles();
    co_await p.port().send(1, 0);
    deltas->push_back(p.cpu().userCycles() - before);
    // Three-word payload adds 3 cycles/word.
    before = p.cpu().userCycles();
    std::vector<Word> args{1, 2, 3};
    co_await p.port().send(1, 0, std::move(args));
    deltas->push_back(p.cpu().userCycles() - before);
    // trySend with room behaves like send.
    before = p.cpu().userCycles();
    bool ok = co_await p.port().trySend(1, 0);
    deltas->push_back(p.cpu().userCycles() - before);
    deltas->push_back(ok ? 1.0 : 0.0);
}

CoTask<void>
sink(Process &p, int expect, int *count)
{
    rt::CondVar cv(p.threads());
    p.port().setHandler(
        0, [count, &cv](core::UdmPort &port, NodeId) -> CoTask<void> {
            for (unsigned i = 0; i < port.headPayloadWords(); ++i)
                (void)co_await port.read(i);
            co_await port.dispose();
            ++*count;
            cv.notifyAll();
        });
    while (*count < expect)
        co_await cv.wait();
}

TEST_F(UdmTest, SendChargesTable4Costs)
{
    MachineConfig cfg;
    cfg.nodes = 2;
    Machine m(cfg);
    std::vector<double> deltas;
    int count = 0;
    Job *job = m.addJob("t", [&](Process &p) {
        return p.node() == 0 ? sendCosts(p, &deltas)
                             : sink(p, 3, &count);
    });
    m.installJob(job);
    ASSERT_TRUE(m.runUntilDone(job));
    ASSERT_EQ(deltas.size(), 4u);
    EXPECT_DOUBLE_EQ(deltas[0], 7.0);      // 6 + 1
    EXPECT_DOUBLE_EQ(deltas[1], 16.0);     // 6 + 3*3 + 1
    EXPECT_DOUBLE_EQ(deltas[2], 7.0);      // trySend, null
    EXPECT_DOUBLE_EQ(deltas[3], 1.0);      // accepted
}

CoTask<void>
trySendUntilFull(Process &p, int *accepted, int *rejected)
{
    // Without a consumer, capacity is the input queue (4 messages)
    // plus the channel (64 words = four 16-word messages).
    std::vector<Word> big(14, 7);
    for (int i = 0; i < 12; ++i) {
        std::vector<Word> payload = big;
        bool ok = co_await p.port().trySend(1, 0, std::move(payload));
        ++(ok ? *accepted : *rejected);
    }
}

TEST_F(UdmTest, TrySendRefusesWhenNetworkFull)
{
    MachineConfig cfg;
    cfg.nodes = 2;
    Machine m(cfg);
    int accepted = 0, rejected = 0;
    Job *job = m.addJob("t", [&](Process &p) -> CoTask<void> {
        if (p.node() == 0)
            return trySendUntilFull(p, &accepted, &rejected);
        // Receiver never registers a handler and never drains; block
        // interrupts so the messages pile up in the input queue.
        return [](Process &pp) -> CoTask<void> {
            co_await pp.port().beginAtomic();
            co_await pp.compute(1u << 20);
            co_await pp.port().endAtomic();
        }(p);
    });
    m.installJob(job);
    m.run(200000);
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);
    EXPECT_EQ(accepted + rejected, 12);
    EXPECT_EQ(accepted, 8);
}

struct CountingObserver : core::PortObserver
{
    int sends = 0, starts = 0, ends = 0, begins = 0, endsAtomic = 0;

    void onSend() override { ++sends; }
    void onDispatchStart(bool) override { ++starts; }
    void onDispatchEnd(bool, Cycle) override { ++ends; }
    void onBeginAtomic() override { ++begins; }
    void onEndAtomic() override { ++endsAtomic; }
};

CoTask<void>
observedSender(Process &p, core::PortObserver *obs)
{
    p.port().setObserver(obs);
    co_await p.port().beginAtomic();
    co_await p.port().endAtomic();
    co_await p.port().send(1, 0);
    co_await p.port().send(1, 0);
    p.port().setObserver(nullptr);
}

TEST_F(UdmTest, ObserverSeesEveryHook)
{
    MachineConfig cfg;
    cfg.nodes = 2;
    Machine m(cfg);
    CountingObserver obs;
    int count = 0;
    Job *job = m.addJob("t", [&](Process &p) {
        return p.node() == 0 ? observedSender(p, &obs)
                             : sink(p, 2, &count);
    });
    m.installJob(job);
    ASSERT_TRUE(m.runUntilDone(job));
    EXPECT_EQ(obs.sends, 2);
    EXPECT_EQ(obs.begins, 1);
    EXPECT_EQ(obs.endsAtomic, 1);
}

/** A fake software buffer to test transparent reads in isolation. */
struct FakeBuffer : core::BufferedInput
{
    bool available() const override { return true; }
    unsigned size() const override { return 4; }

    Word
    read(unsigned offset) const override
    {
        return 1000 + offset;
    }
};

CoTask<void>
bufferedReader(Process &p, std::vector<Word> *out, double *cost)
{
    FakeBuffer fb;
    p.port().enterBuffered(&fb);
    out->push_back(p.port().headHandler());
    const double before = p.cpu().userCycles();
    out->push_back(co_await p.port().read(0));
    out->push_back(co_await p.port().read(1));
    *cost = p.cpu().userCycles() - before;
    p.port().exitBuffered();
}

TEST_F(UdmTest, BufferedReadsAreTransparentAndCostMore)
{
    MachineConfig cfg;
    cfg.nodes = 1;
    Machine m(cfg);
    std::vector<Word> out;
    double cost = 0;
    Job *job = m.addJob("t", [&](Process &p) {
        return bufferedReader(p, &out, &cost);
    });
    m.installJob(job);
    ASSERT_TRUE(m.runUntilDone(job));
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], 1001u); // handler word via the base pointer
    EXPECT_EQ(out[1], 1002u); // payload word 0
    EXPECT_EQ(out[2], 1003u);
    // Buffered extraction: ~4.5 cycles/word vs 2 on the fast path.
    EXPECT_DOUBLE_EQ(cost, 8.0); // 2 * (9/2 rounded down) = 8
}

/** Kernel handler for a spare line: divert the port to @p buf. */
exec::Task
divertToBuffer(core::UdmPort *port, core::BufferedInput *buf)
{
    port->enterBuffered(buf);
    co_return;
}

constexpr unsigned kSpareIrq = 5;

CoTask<void>
preemptedReader(Process &p, FakeBuffer *fb, std::vector<Word> *out,
                std::vector<double> *costs)
{
    p.cpu().setIrqHandler(
        kSpareIrq,
        [&p, fb](unsigned) { return divertToBuffer(&p.port(), fb); },
        /*pulse=*/true);
    // Raised between spends, the line stays pending and preempts the
    // read's spend as it begins; the handler diverts the port.
    p.cpu().raiseIrq(kSpareIrq);
    double before = p.cpu().userCycles();
    out->push_back(co_await p.port().read(0));
    costs->push_back(p.cpu().userCycles() - before);
    before = p.cpu().userCycles();
    out->push_back(co_await p.port().read(1));
    costs->push_back(p.cpu().userCycles() - before);
    p.port().exitBuffered();
}

TEST_F(UdmTest, PreemptedReadReturnsTheBufferedWord)
{
    MachineConfig cfg;
    cfg.nodes = 1;
    Machine m(cfg);
    FakeBuffer fb;
    std::vector<Word> out;
    std::vector<double> costs;
    Job *job = m.addJob("t", [&](Process &p) {
        return preemptedReader(p, &fb, &out, &costs);
    });
    m.installJob(job);
    const double preempts = m.node(0).cpu.stats.preemptions.value();
    ASSERT_TRUE(m.runUntilDone(job));
    EXPECT_EQ(m.node(0).cpu.stats.preemptions.value(), preempts + 1);
    // The word is read after the spend, so the diverted read returns
    // payload word 0 from the software buffer, not the empty NI.
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], 1002u);
    EXPECT_EQ(out[1], 1003u);
    // The diverted read keeps the fast-path cost it began with; the
    // next read is charged at the buffered cost.
    ASSERT_EQ(costs.size(), 2u);
    EXPECT_DOUBLE_EQ(costs[0], 2.0);
    EXPECT_DOUBLE_EQ(costs[1], 4.0);
}

CoTask<void>
zeroCompute(Process &p, bool *other_fired, Cycle *elapsed)
{
    // An event due now fires before any context hop this coroutine
    // could take, so it still being unfired after compute(0) shows
    // the coroutine continued without suspending.
    bool fired = false;
    p.cpu().eq().scheduleFn([&fired] { fired = true; }, p.cpu().now());
    const Cycle t0 = p.cpu().now();
    co_await p.compute(0);
    *other_fired = fired;
    *elapsed = p.cpu().now() - t0;
    co_await p.compute(1); // let the event fire while fired is alive
}

TEST_F(UdmTest, ZeroComputeContinuesWithoutSuspending)
{
    MachineConfig cfg;
    cfg.nodes = 1;
    Machine m(cfg);
    bool other_fired = true;
    Cycle elapsed = 1;
    Job *job = m.addJob("t", [&](Process &p) {
        return zeroCompute(p, &other_fired, &elapsed);
    });
    m.installJob(job);
    ASSERT_TRUE(m.runUntilDone(job));
    EXPECT_FALSE(other_fired);
    EXPECT_EQ(elapsed, 0u);
}

} // namespace
