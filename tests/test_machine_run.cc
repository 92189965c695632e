/**
 * @file
 * Machine run-loop tests on a small copy of the Figure 10 benchmark
 * point: synth on 4 nodes gang-scheduled against a null job with
 * skewed quanta and a costly buffered path, so both delivery cases
 * run.
 *
 *  - Serial runUntilDone drives the event queue's batched drain, and
 *    must end exactly where a one-event-at-a-time runOne() loop over
 *    an identical machine ends — same events processed, same clock,
 *    same statistics — with batched firing on and off. The drain
 *    completes spends in place and the step loop never does, so this
 *    pins in-place completion as exact. The cycle budget gives up
 *    after the same event, and saturates on a clock past 0. With
 *    tracing on, the two runs also record the same trace bytes, so
 *    the same interrupt handlers ran in the same order.
 *  - A warm machine delivers messages (almost) without heap traffic:
 *    coroutine frames and Contexts come from the thread-local
 *    coroutine pool, events from the queue's pools, packets travel
 *    inline. operator new is counted over the second half of a run.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "apps/workloads.hh"
#include "glaze/machine.hh"
#include "sim/log.hh"
#include "trace/export.hh"
#include "count_new.hh"

namespace
{

using namespace fugu;
using namespace fugu::glaze;

/** Allocations per delivered message tolerated after warm-up. */
constexpr double kMaxAllocsPerMsg = 0.05;

struct Fig10Machine
{
    explicit Fig10Machine(bool batch_fire = true, bool traced = false)
    {
        MachineConfig cfg;
        cfg.nodes = 4;
        cfg.seed = 1;
        cfg.batchFire = batch_fire;
        cfg.trace.enabled = traced;
        cfg.trace.maxEvents = 0; // unbounded: compare every record
        cfg.costs.bufferedPathExtra += 400;
        m = std::make_unique<Machine>(cfg);
        apps::SynthAppConfig sc;
        sc.n = 1000;
        sc.groups = 3;
        sc.tBetween = 275;
        sc.handlerStall = 200;
        job = m->addJob("app", apps::makeSynthApp(cfg.nodes, sc));
        m->addJob("null", apps::makeNullApp());
        GangConfig g;
        g.quantum = 100000;
        g.skew = 0.01;
        m->startGang(g);
    }

    std::uint64_t
    delivered(bool buffered_only = false) const
    {
        std::uint64_t n = 0;
        for (Process *p : job->procs)
            n += p->stats.bufferedDelivered.value() +
                 (buffered_only ? 0 : p->stats.directDelivered.value());
        return n;
    }

    std::string
    stats() const
    {
        std::ostringstream os;
        m->root.print(os);
        return os.str();
    }

    std::unique_ptr<Machine> m;
    Job *job = nullptr;
};

class MachineRunTest : public ::testing::TestWithParam<bool>
{
  protected:
    MachineRunTest() { detail::setThrowOnError(true); }
    ~MachineRunTest() override { detail::setThrowOnError(false); }
};

TEST_P(MachineRunTest, RunUntilDoneMatchesAStepLoop)
{
    Fig10Machine drained(GetParam());
    ASSERT_TRUE(drained.m->runUntilDone(drained.job));

    Fig10Machine stepped(GetParam());
    std::uint64_t events = 0;
    while (!stepped.job->done() && stepped.m->eq.runOne())
        ++events;
    ASSERT_TRUE(stepped.job->done());

    EXPECT_GT(drained.delivered(/*buffered_only=*/true), 0u)
        << "run never took the buffered path";
    // The drain completes spends and same-cycle Cpu hops in place;
    // the step loop never does, and the in-place ones still count as
    // processed events.
    EXPECT_GT(drained.m->spendsInPlace(), 0u);
    EXPECT_EQ(stepped.m->spendsInPlace(), 0u);
    EXPECT_GT(drained.m->hopsInPlace(), 0u);
    EXPECT_EQ(stepped.m->hopsInPlace(), 0u);
    EXPECT_EQ(drained.m->eventsProcessed(), events);
    EXPECT_EQ(drained.m->now(), stepped.m->now());
    EXPECT_EQ(drained.stats(), stepped.stats());
}

TEST_P(MachineRunTest, DrainedAndSteppedRunsTraceTheSameBytes)
{
    Fig10Machine drained(GetParam(), /*traced=*/true);
    ASSERT_TRUE(drained.m->runUntilDone(drained.job));

    Fig10Machine stepped(GetParam(), /*traced=*/true);
    std::uint64_t events = 0;
    while (!stepped.job->done() && stepped.m->eq.runOne())
        ++events;
    ASSERT_TRUE(stepped.job->done());

    EXPECT_GT(drained.m->hopsInPlace(), 0u);
    EXPECT_EQ(stepped.m->hopsInPlace(), 0u);
    EXPECT_EQ(drained.m->eventsProcessed(), events);
    EXPECT_EQ(drained.stats(), stepped.stats());

    const trace::TraceBuffer a = drained.m->mergedTrace();
    const trace::TraceBuffer b = stepped.m->mergedTrace();
    // Handler order: every interrupt dispatch, with node, cycle and
    // line, in recording order.
    auto dispatches = [](const trace::TraceBuffer &t) {
        std::vector<trace::TraceEvent> out;
        for (const trace::TraceEvent &e : t.snapshot())
            if (e.type ==
                static_cast<std::uint8_t>(trace::Type::IrqDispatch))
                out.push_back(e);
        return out;
    };
    const auto da = dispatches(a);
    EXPECT_GT(da.size(), 1000u);
    EXPECT_TRUE(da == dispatches(b)) << "handler order differs";
    std::ostringstream ba, bb;
    trace::writeBinary(ba, a);
    trace::writeBinary(bb, b);
    EXPECT_EQ(a.total(), b.total());
    EXPECT_TRUE(ba.str() == bb.str()) << "trace bytes differ";
}

TEST_P(MachineRunTest, CycleLimitStopsRightAfterTheCrossingEvent)
{
    // A budget far too small: the run gives up after the first event
    // past the limit, as the step loop did.
    Fig10Machine drained(GetParam());
    EXPECT_FALSE(drained.m->runUntilDone(drained.job, 5000));
    const Cycle stop = drained.m->now();
    EXPECT_GT(stop, 5000u);

    Fig10Machine stepped(GetParam());
    std::uint64_t events = 0;
    while (stepped.m->now() <= 5000 && stepped.m->eq.runOne())
        ++events;
    EXPECT_GT(drained.m->spendsInPlace(), 0u);
    EXPECT_EQ(drained.m->eventsProcessed(), events);
    EXPECT_EQ(stepped.m->now(), stop);
    EXPECT_EQ(drained.stats(), stepped.stats());
}

TEST_P(MachineRunTest, FullCycleBudgetAfterAPriorRunSaturates)
{
    // now() + kMaxCycle wraps on a clock past 0; the budget must
    // saturate instead of ending the run at once.
    Fig10Machine f(GetParam());
    f.m->run(10000);
    ASSERT_EQ(f.m->now(), 10000u);
    ASSERT_FALSE(f.job->done());
    EXPECT_TRUE(f.m->runUntilDone(f.job, kMaxCycle));
    EXPECT_TRUE(f.job->done());
}

INSTANTIATE_TEST_SUITE_P(BatchFire, MachineRunTest, ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? "On" : "Off";
                         });

TEST(MachineAllocTest, WarmMessagePathBarelyAllocates)
{
    // Learn the run's length on one machine, then replay it on a
    // second: run the first half uncounted (warm-up: pools and tables
    // reach their high-water marks), count the second half.
    Cycle end;
    {
        Fig10Machine ref;
        ASSERT_TRUE(ref.m->runUntilDone(ref.job));
        end = ref.m->now();
    }

    Fig10Machine f;
    f.m->run(end / 2);
    ASSERT_FALSE(f.job->done());
    const std::uint64_t msgs0 = f.delivered();
    const std::uint64_t buf0 = f.delivered(/*buffered_only=*/true);
    const std::uint64_t news0 = g_newCalls.load();
    ASSERT_TRUE(f.m->runUntilDone(f.job));
    const std::uint64_t news = g_newCalls.load() - news0;
    const std::uint64_t msgs = f.delivered() - msgs0;

    EXPECT_EQ(f.m->now(), end) << "split run diverged from one run";
    ASSERT_GT(f.delivered(true) - buf0, 0u)
        << "second half exercised no buffered deliveries";
    ASSERT_GT(msgs, 1000u);
    const double per_msg = static_cast<double>(news) / msgs;
    RecordProperty("heap_allocs_per_msg", std::to_string(per_msg));
    EXPECT_LE(per_msg, kMaxAllocsPerMsg)
        << news << " heap allocations over " << msgs
        << " delivered messages after warm-up";
}

} // namespace
