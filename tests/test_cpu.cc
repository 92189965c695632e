/**
 * @file
 * Unit tests for the coroutine execution model (Context/Cpu).
 *
 * These tests pin down the semantics everything else relies on:
 * exact-cycle preemption of user contexts, kernel non-preemptibility,
 * trap control flow, return-path stealing, and the user-cycle timer
 * that backs the NI atomicity timer.
 */

#include <gtest/gtest.h>

#include <vector>

#include "exec/cpu.hh"
#include "sim/event.hh"
#include "sim/log.hh"
#include "sim/stats.hh"

using namespace fugu;
using namespace fugu::exec;

namespace
{

struct CpuTest : ::testing::Test
{
    CpuTest() : stats("test"), cpu(eq, 0, &stats)
    {
        detail::setThrowOnError(true);
    }

    ~CpuTest() override { detail::setThrowOnError(false); }

    EventQueue eq;
    StatGroup stats;
    Cpu cpu;
    std::vector<Cycle> log;
    std::vector<std::string> trace;
};

Task
spendTwice(Cpu *cpu, std::vector<Cycle> *log, Cycle a, Cycle b)
{
    co_await cpu->spend(a);
    log->push_back(cpu->now());
    co_await cpu->spend(b);
    log->push_back(cpu->now());
}

TEST_F(CpuTest, SpendAdvancesTime)
{
    auto ctx = cpu.spawn("t", false, spendTwice(&cpu, &log, 100, 50));
    cpu.switchTo(ctx);
    eq.run();
    EXPECT_EQ(log, (std::vector<Cycle>{100, 150}));
    EXPECT_TRUE(ctx->finished());
    EXPECT_DOUBLE_EQ(cpu.stats.userCycles.value(), 150.0);
}

TEST_F(CpuTest, ZeroSpendCompletesWithoutTimePassing)
{
    auto ctx = cpu.spawn("t", false, spendTwice(&cpu, &log, 0, 0));
    cpu.switchTo(ctx);
    eq.run();
    EXPECT_EQ(log, (std::vector<Cycle>{0, 0}));
    EXPECT_TRUE(ctx->finished());
}

CoTask<int>
addLater(Cpu *cpu, int a, int b)
{
    co_await cpu->spend(10);
    co_return a + b;
}

Task
caller(Cpu *cpu, std::vector<Cycle> *log)
{
    int v = co_await addLater(cpu, 2, 3);
    log->push_back(static_cast<Cycle>(v));
    log->push_back(cpu->now());
}

TEST_F(CpuTest, NestedCoTaskReturnsValue)
{
    auto ctx = cpu.spawn("t", false, caller(&cpu, &log));
    cpu.switchTo(ctx);
    eq.run();
    EXPECT_EQ(log, (std::vector<Cycle>{5, 10}));
}

Task
kernelHandler(Cpu *cpu, std::vector<std::string> *trace, Cycle cost,
              unsigned line_to_lower)
{
    trace->push_back("irq@" + std::to_string(cpu->now()));
    co_await cpu->spend(cost);
    if (line_to_lower != ~0u)
        cpu->lowerIrq(line_to_lower);
    trace->push_back("irqdone@" + std::to_string(cpu->now()));
}

TEST_F(CpuTest, IrqPreemptsUserMidSpendWithExactAccounting)
{
    cpu.setIrqHandler(0, [&](unsigned) {
        return kernelHandler(&cpu, &trace, 30, 0);
    });
    auto ctx = cpu.spawn("u", false, spendTwice(&cpu, &log, 100, 10));
    cpu.switchTo(ctx);
    eq.scheduleFn([&] { cpu.raiseIrq(0); }, 40);
    eq.run();
    // User spends 0-40, handler 40-70, user resumes 70-130, 130-140.
    EXPECT_EQ(trace, (std::vector<std::string>{"irq@40", "irqdone@70"}));
    EXPECT_EQ(log, (std::vector<Cycle>{130, 140}));
    EXPECT_DOUBLE_EQ(cpu.stats.userCycles.value(), 110.0);
    EXPECT_DOUBLE_EQ(cpu.stats.kernelCycles.value(), 30.0);
    EXPECT_DOUBLE_EQ(cpu.stats.preemptions.value(), 1.0);
}

TEST_F(CpuTest, KernelContextIsNotPreempted)
{
    cpu.setIrqHandler(0, [&](unsigned) {
        return kernelHandler(&cpu, &trace, 5, 0);
    });
    auto ctx = cpu.spawn("k", true, spendTwice(&cpu, &log, 100, 10));
    cpu.switchTo(ctx);
    eq.scheduleFn([&] { cpu.raiseIrq(0); }, 40);
    eq.run();
    // Kernel runs to completion 0-110; handler only afterwards.
    EXPECT_EQ(log, (std::vector<Cycle>{100, 110}));
    EXPECT_EQ(trace,
              (std::vector<std::string>{"irq@110", "irqdone@115"}));
}

Task
computeThenSpend(Cpu *cpu, std::vector<Cycle> *log, bool *flag)
{
    co_await cpu->spend(10);
    *flag = true; // synchronous work; IRQ raised during this window
    co_await cpu->spend(10);
    log->push_back(cpu->now());
}

TEST_F(CpuTest, IrqBetweenSpendsTakenAtNextSpendBoundary)
{
    bool flag = false;
    cpu.setIrqHandler(0, [&](unsigned) {
        return kernelHandler(&cpu, &trace, 7, 0);
    }, /*pulse=*/true);
    auto ctx =
        cpu.spawn("u", false, computeThenSpend(&cpu, &log, &flag));
    cpu.switchTo(ctx);
    // Raise exactly when the first spend's end event fires; the user
    // code continues synchronously, so the IRQ pends until the next
    // spend begins.
    eq.scheduleFn([&] { cpu.raiseIrq(0); }, 10);
    eq.run();
    EXPECT_TRUE(flag);
    EXPECT_EQ(log, (std::vector<Cycle>{27})); // 10 + 7 handler + 10
}

TEST_F(CpuTest, PulseLineDoesNotRedispatch)
{
    int dispatches = 0;
    cpu.setIrqHandler(0, [&](unsigned) {
        ++dispatches;
        return kernelHandler(&cpu, &trace, 5, ~0u);
    }, /*pulse=*/true);
    auto ctx = cpu.spawn("u", false, spendTwice(&cpu, &log, 100, 100));
    cpu.switchTo(ctx);
    eq.scheduleFn([&] { cpu.raiseIrq(0); }, 10);
    eq.run();
    EXPECT_EQ(dispatches, 1);
    EXPECT_EQ(log, (std::vector<Cycle>{105, 205}));
}

TEST_F(CpuTest, IdleHookRunsWhenNothingToDo)
{
    int idles = 0;
    cpu.setIdleHook([&] { ++idles; });
    auto ctx = cpu.spawn("u", false, spendTwice(&cpu, &log, 10, 10));
    cpu.switchTo(ctx);
    eq.run();
    EXPECT_EQ(idles, 1);
}

Task
blocker(Cpu *cpu, std::vector<Cycle> *log)
{
    co_await cpu->spend(5);
    co_await cpu->block();
    log->push_back(cpu->now());
}

TEST_F(CpuTest, BlockAndWakeResumesAtWakePoint)
{
    auto ctx = cpu.spawn("u", false, blocker(&cpu, &log));
    cpu.switchTo(ctx);
    eq.scheduleFn(
        [&] {
            EXPECT_EQ(ctx->state(), CtxState::Blocked);
            cpu.wake(ctx);
            cpu.switchTo(ctx);
        },
        50);
    eq.run();
    EXPECT_EQ(log, (std::vector<Cycle>{50}));
    EXPECT_TRUE(ctx->finished());
}

Task
pingPong(Cpu *cpu, std::vector<std::string> *trace, const char *me,
         ContextPtr *other, int rounds)
{
    for (int i = 0; i < rounds; ++i) {
        co_await cpu->spend(10);
        trace->push_back(std::string(me) + "@" +
                         std::to_string(cpu->now()));
        if (*other && !(*other)->finished())
            co_await cpu->yieldTo(*other);
    }
}

TEST_F(CpuTest, YieldToSwitchesBetweenUserContexts)
{
    ContextPtr a, b;
    a = cpu.spawn("a", false, pingPong(&cpu, &trace, "a", &b, 2));
    b = cpu.spawn("b", false, pingPong(&cpu, &trace, "b", &a, 2));
    cpu.switchTo(a);
    eq.run();
    EXPECT_EQ(trace, (std::vector<std::string>{"a@10", "b@20", "a@30",
                                               "b@40"}));
}

Task
trapHandlerTask(Cpu *cpu, ContextPtr victim, std::uint64_t result,
                Cycle cost)
{
    co_await cpu->spend(cost);
    victim->trapResult = result + victim->trapArg;
}

Task
trapper(Cpu *cpu, std::vector<Cycle> *log)
{
    co_await cpu->spend(10);
    std::uint64_t r = co_await cpu->trap(3, 7);
    log->push_back(r);
    log->push_back(cpu->now());
}

TEST_F(CpuTest, TrapRunsHandlerAndReturnsResult)
{
    cpu.setTrapHandler(3, [&](ContextPtr victim) {
        return trapHandlerTask(&cpu, victim, 100, 20);
    });
    auto ctx = cpu.spawn("u", false, trapper(&cpu, &log));
    cpu.switchTo(ctx);
    eq.run();
    EXPECT_EQ(log, (std::vector<Cycle>{107, 30}));
    EXPECT_DOUBLE_EQ(cpu.stats.trapsTaken.value(), 1.0);
}

Task
stealingHandler(Cpu *cpu, std::vector<std::string> *trace,
                ContextPtr *stolen)
{
    co_await cpu->spend(5);
    *stolen = cpu->current()->takeReturnTo();
    cpu->lowerIrq(0);
    trace->push_back("stole@" + std::to_string(cpu->now()));
}

TEST_F(CpuTest, HandlerCanStealReturnPath)
{
    ContextPtr stolen;
    cpu.setIrqHandler(0, [&](unsigned) {
        return stealingHandler(&cpu, &trace, &stolen);
    });
    int idles = 0;
    cpu.setIdleHook([&] {
        ++idles;
        if (stolen) {
            auto c = stolen;
            stolen = nullptr;
            cpu.switchTo(c);
        }
    });
    auto ctx = cpu.spawn("u", false, spendTwice(&cpu, &log, 100, 10));
    cpu.switchTo(ctx);
    eq.scheduleFn([&] { cpu.raiseIrq(0); }, 40);
    eq.run();
    // Preempted at 40, handler 40-45 steals; idle hook hands the
    // context back; remaining 60 cycles complete at 105.
    EXPECT_EQ(trace, (std::vector<std::string>{"stole@45"}));
    EXPECT_EQ(log, (std::vector<Cycle>{105, 115}));
    EXPECT_GE(idles, 1);
}

TEST_F(CpuTest, SwitchToWithPendingIrqDeliversInterruptFirst)
{
    cpu.setIrqHandler(0, [&](unsigned) {
        return kernelHandler(&cpu, &trace, 30, 0);
    });
    auto ctx = cpu.spawn("u", false, spendTwice(&cpu, &log, 10, 10));
    eq.scheduleFn(
        [&] {
            cpu.raiseIrq(0); // cpu idle: dispatch request
        },
        5);
    eq.scheduleFn([&] { /* nothing else pending */ }, 6);
    cpu.setIdleHook([&] {});
    eq.run(4); // let nothing happen yet
    cpu.switchTo(ctx);
    eq.run();
    // IRQ at 5 dispatches immediately (cpu held the unstarted ctx as
    // current from cycle 4)... the user started at 4, so it is
    // preempted at 5 and resumes after the handler.
    EXPECT_EQ(trace, (std::vector<std::string>{"irq@5", "irqdone@35"}));
    EXPECT_EQ(log, (std::vector<Cycle>{44, 54}));
}

Task
timedUser(Cpu *cpu, std::vector<Cycle> *log)
{
    co_await cpu->spend(40);
    co_await cpu->trap(1, 0); // kernel spends 500; timer must pause
    co_await cpu->spend(70);
    log->push_back(cpu->now());
}

TEST_F(CpuTest, UserTimerCountsOnlyUserCycles)
{
    cpu.setTrapHandler(1, [&](ContextPtr victim) {
        return trapHandlerTask(&cpu, victim, 0, 500);
    });
    Cycle fired_at = 0;
    auto ctx = cpu.spawn("u", false, timedUser(&cpu, &log));
    cpu.setUserTimer(100, [&] { fired_at = eq.now(); });
    cpu.switchTo(ctx);
    eq.run();
    // 40 user + 500 kernel + 60 user = wall 600 when 100 user cycles
    // have elapsed.
    EXPECT_EQ(fired_at, 600u);
    EXPECT_EQ(log, (std::vector<Cycle>{610}));
}

TEST_F(CpuTest, UserTimerCancel)
{
    Cycle fired_at = 0;
    auto ctx = cpu.spawn("u", false, spendTwice(&cpu, &log, 50, 50));
    cpu.setUserTimer(80, [&] { fired_at = eq.now(); });
    cpu.switchTo(ctx);
    eq.scheduleFn([&] { cpu.cancelUserTimer(); }, 60);
    eq.run();
    EXPECT_EQ(fired_at, 0u);
    EXPECT_FALSE(cpu.userTimerActive());
}

TEST_F(CpuTest, UserTimerFiringExactlyAtSpendEndPendsInterrupt)
{
    // Timer cb raises a pulse IRQ; deadline == end of first spend.
    cpu.setIrqHandler(0, [&](unsigned) {
        return kernelHandler(&cpu, &trace, 9, ~0u);
    }, /*pulse=*/true);
    auto ctx = cpu.spawn("u", false, spendTwice(&cpu, &log, 50, 50));
    cpu.setUserTimer(50, [&] { cpu.raiseIrq(0); });
    cpu.switchTo(ctx);
    eq.run();
    // First spend completes at 50; IRQ taken before the second spend
    // makes progress; second spend then runs 59-109.
    EXPECT_EQ(trace, (std::vector<std::string>{"irq@50", "irqdone@59"}));
    EXPECT_EQ(log, (std::vector<Cycle>{50, 109}));
}

TEST_F(CpuTest, UserTimerPreemptsMidSpend)
{
    cpu.setIrqHandler(0, [&](unsigned) {
        return kernelHandler(&cpu, &trace, 9, ~0u);
    }, /*pulse=*/true);
    auto ctx = cpu.spawn("u", false, spendTwice(&cpu, &log, 100, 10));
    cpu.setUserTimer(30, [&] { cpu.raiseIrq(0); });
    cpu.switchTo(ctx);
    eq.run();
    // Fire at 30 mid-spend; handler 30-39; resume 39, finish at 109.
    EXPECT_EQ(trace, (std::vector<std::string>{"irq@30", "irqdone@39"}));
    EXPECT_EQ(log, (std::vector<Cycle>{109, 119}));
}

TEST_F(CpuTest, UserTimerRemainingReflectsProgress)
{
    auto ctx = cpu.spawn("u", false, spendTwice(&cpu, &log, 50, 50));
    cpu.setUserTimer(200, [] {});
    cpu.switchTo(ctx);
    eq.scheduleFn(
        [&] { EXPECT_EQ(cpu.userTimerRemaining(), 170u); }, 30);
    eq.run();
    EXPECT_EQ(cpu.userTimerRemaining(), 100u);
}

TEST_F(CpuTest, DeterministicRerun)
{
    auto run = [](std::vector<std::string> &tr) {
        EventQueue eq;
        StatGroup sg("t");
        Cpu c(eq, 0, &sg);
        c.setIrqHandler(0, [&](unsigned) {
            return kernelHandler(&c, &tr, 13, 0);
        });
        std::vector<Cycle> lg;
        auto ctx = c.spawn("u", false, spendTwice(&c, &lg, 77, 33));
        c.switchTo(ctx);
        eq.scheduleFn([&] { c.raiseIrq(0); }, 31);
        eq.run();
        tr.push_back("end@" + std::to_string(eq.now()));
    };
    std::vector<std::string> t1, t2;
    run(t1);
    run(t2);
    EXPECT_EQ(t1, t2);
}

Task
parkHoldingSelf(Cpu *cpu, ContextPtr *slot)
{
    // Body runs only once switched to, after the caller filled *slot.
    ContextPtr self = *slot;
    co_await cpu->block();
    // Never resumed; `self` keeps the Context alive from inside its
    // own coroutine frame (a shared_ptr cycle).
    (void)self;
}

TEST_F(CpuTest, TeardownFreesBlockedContexts)
{
    std::weak_ptr<Context> observed;
    {
        EventQueue q;
        StatGroup sg("t2");
        Cpu c(q, 0, &sg);
        ContextPtr slot;
        ContextPtr ctx = c.spawn("parked", false,
                                 parkHoldingSelf(&c, &slot));
        slot = ctx;
        observed = ctx;
        c.switchTo(ctx);
        q.run();
        EXPECT_EQ(ctx->state(), CtxState::Blocked);
        slot.reset();
        ctx.reset();
        // Only the frame's self-reference remains: without the Cpu's
        // context registry this cycle would leak.
        EXPECT_FALSE(observed.expired());
    }
    EXPECT_TRUE(observed.expired());
}

// ---------------------------------------------------------------------
// Spends that complete in place
// ---------------------------------------------------------------------

Task
spendLogged(Cpu *cpu, std::vector<std::string> *trace, Cycle a, Cycle b)
{
    co_await cpu->spend(a);
    trace->push_back("u@" + std::to_string(cpu->now()));
    co_await cpu->spend(b);
    trace->push_back("u@" + std::to_string(cpu->now()));
}

/**
 * One user context running spendLogged(a, b) on a fresh Cpu, with an
 * optional user timer and an optional IRQ raised by an event. Driven
 * by run(), where spends may end in place, or by a runOne() loop,
 * where every spend ends with its own event.
 */
struct SpendScenario
{
    Cycle a = 0, b = 0;
    Cycle timer = 0; // user cycles; 0 = none
    Cycle irqAt = 0; // cycle an event raises IRQ 0; 0 = none

    struct Result
    {
        std::vector<std::string> trace;
        std::uint64_t events = 0;
        std::uint64_t inPlace = 0;
        double preemptions = 0;
        double userCycles = 0;
    };

    Result
    run(bool stepped) const
    {
        Result r;
        EventQueue q;
        StatGroup sg("s");
        Cpu c(q, 0, &sg);
        c.setIrqHandler(0, [&](unsigned) {
            return kernelHandler(&c, &r.trace, 9, ~0u);
        }, /*pulse=*/true);
        auto ctx = c.spawn("u", false, spendLogged(&c, &r.trace, a, b));
        if (timer > 0)
            c.setUserTimer(timer, [&] {
                r.trace.push_back("timer@" + std::to_string(q.now()));
                c.raiseIrq(0);
            });
        if (irqAt > 0)
            q.scheduleFn([&] { c.raiseIrq(0); }, irqAt);
        c.switchTo(ctx);
        if (stepped)
            while (q.runOne())
                ++r.events;
        else
            r.events = q.run();
        EXPECT_TRUE(ctx->finished());
        r.inPlace = q.inPlaceCompletions();
        r.preemptions = c.stats.preemptions.value();
        r.userCycles = c.stats.userCycles.value();
        return r;
    }
};

void
expectSameAsStepped(const SpendScenario &sc,
                    const SpendScenario::Result &r)
{
    const SpendScenario::Result ref = sc.run(/*stepped=*/true);
    EXPECT_EQ(ref.inPlace, 0u);
    EXPECT_EQ(r.trace, ref.trace);
    EXPECT_EQ(r.events, ref.events);
    EXPECT_EQ(r.preemptions, ref.preemptions);
    EXPECT_EQ(r.userCycles, ref.userCycles);
}

TEST_F(CpuTest, SpendWithNothingDueCompletesInPlace)
{
    const SpendScenario sc{100, 50};
    const auto r = sc.run(false);
    EXPECT_EQ(r.trace, (std::vector<std::string>{"u@100", "u@150"}));
    EXPECT_EQ(r.inPlace, 2u);
    expectSameAsStepped(sc, r);
}

TEST_F(CpuTest, UserTimerDeadlineInsideASpendFiresAtItsExactCycle)
{
    // Deadline at 30, strictly inside the first spend: that spend
    // needs its timer event, and the IRQ preempts at 30.
    const SpendScenario sc{100, 50, /*timer=*/30};
    const auto r = sc.run(false);
    EXPECT_EQ(r.trace,
              (std::vector<std::string>{"timer@30", "irq@30", "irqdone@39",
                                        "u@109", "u@159"}));
    EXPECT_DOUBLE_EQ(r.preemptions, 1.0);
    expectSameAsStepped(sc, r);
}

TEST_F(CpuTest, UserTimerDeadlineAtASpendEndFiresAtCompletion)
{
    // Deadline exactly at the first spend's end: the spend completes
    // in place and the timer fires at its boundary, before the code
    // after the spend runs; the IRQ is taken at the next spend.
    const SpendScenario sc{100, 50, /*timer=*/100};
    const auto r = sc.run(false);
    EXPECT_EQ(r.trace,
              (std::vector<std::string>{"timer@100", "u@100", "irq@100",
                                        "irqdone@109", "u@159"}));
    EXPECT_GE(r.inPlace, 1u);
    expectSameAsStepped(sc, r);
}

TEST_F(CpuTest, IrqRaisedInsideASpendStillPreemptsMidSpend)
{
    // The event raising the IRQ at 40 is due inside the first spend,
    // so that spend cannot end in place and is preempted at 40.
    const SpendScenario sc{100, 10, /*timer=*/0, /*irqAt=*/40};
    const auto r = sc.run(false);
    EXPECT_EQ(r.trace, (std::vector<std::string>{"irq@40", "irqdone@49",
                                                 "u@109", "u@119"}));
    EXPECT_DOUBLE_EQ(r.preemptions, 1.0);
    EXPECT_DOUBLE_EQ(r.userCycles, 110.0);
    EXPECT_GE(r.inPlace, 1u); // the handler's and the last spend
    expectSameAsStepped(sc, r);
}

} // namespace
