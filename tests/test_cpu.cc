/**
 * @file
 * Unit tests for the coroutine execution model (Context/Cpu).
 *
 * These tests pin down the semantics everything else relies on:
 * exact-cycle preemption of user contexts, kernel non-preemptibility,
 * trap control flow, return-path stealing, the user-cycle timer
 * that backs the NI atomicity timer, ContextPtr's intrusive count,
 * and spends and same-cycle hops completed in place (each checked
 * against a runOne() step loop, which never completes anything in
 * place).
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "exec/coro_pool.hh"
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

/** Arm @p cpu's user timer to call @p cb, which must outlive it. */
template <typename F>
void
armTimer(Cpu &cpu, Cycle user_cycles, F &cb)
{
    cpu.setUserTimer(
        user_cycles, [](void *f) { (*static_cast<F *>(f))(); }, &cb);
}

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
    auto on_timer = [&] { fired_at = eq.now(); };
    armTimer(cpu, 100, on_timer);
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
    auto on_timer = [&] { fired_at = eq.now(); };
    armTimer(cpu, 80, on_timer);
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
    auto on_timer = [&] { cpu.raiseIrq(0); };
    armTimer(cpu, 50, on_timer);
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
    auto on_timer = [&] { cpu.raiseIrq(0); };
    armTimer(cpu, 30, on_timer);
    cpu.switchTo(ctx);
    eq.run();
    // Fire at 30 mid-spend; handler 30-39; resume 39, finish at 109.
    EXPECT_EQ(trace, (std::vector<std::string>{"irq@30", "irqdone@39"}));
    EXPECT_EQ(log, (std::vector<Cycle>{109, 119}));
}

TEST_F(CpuTest, UserTimerRemainingReflectsProgress)
{
    auto ctx = cpu.spawn("u", false, spendTwice(&cpu, &log, 50, 50));
    cpu.setUserTimer(200, [](void *) {}, nullptr);
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

/**
 * Counts the coroutine frames holding one: a LifeProbe parameter is
 * copied into the frame and dies only when the frame is destroyed,
 * which for a Context's top-level task is when the Context is.
 */
struct LifeProbe
{
    explicit LifeProbe(int *live) : live(live) { ++*live; }
    LifeProbe(const LifeProbe &o) : live(o.live) { ++*live; }
    LifeProbe &operator=(const LifeProbe &) = delete;
    ~LifeProbe() { --*live; }

    int *live;
};

Task
parkHoldingSelf(Cpu *cpu, ContextPtr *slot, LifeProbe probe)
{
    // Body runs only once switched to, after the caller filled *slot.
    ContextPtr self = *slot;
    co_await cpu->block();
    // Never resumed; `self` keeps the Context alive from inside its
    // own coroutine frame (a reference cycle).
    (void)self;
    (void)probe;
}

TEST_F(CpuTest, TeardownFreesBlockedContexts)
{
    int live = 0;
    {
        EventQueue q;
        StatGroup sg("t2");
        Cpu c(q, 0, &sg);
        ContextPtr slot;
        ContextPtr ctx = c.spawn(
            "parked", false, parkHoldingSelf(&c, &slot, LifeProbe(&live)));
        slot = ctx;
        c.switchTo(ctx);
        q.run();
        EXPECT_EQ(ctx->state(), CtxState::Blocked);
        slot.reset();
        ctx.reset();
        // Only the frame's self-reference remains: without the Cpu's
        // context registry this cycle would leak.
        EXPECT_EQ(live, 1);
    }
    EXPECT_EQ(live, 0);
}

// ---------------------------------------------------------------------
// ContextPtr: an intrusive single-thread count
// ---------------------------------------------------------------------

Task
probed(Cpu *cpu, LifeProbe probe)
{
    co_await cpu->spend(1);
    (void)probe;
}

TEST_F(CpuTest, ContextPtrCountsCopiesMovesAndResets)
{
    int live = 0;
    ContextPtr a = cpu.spawn("t", false, probed(&cpu, LifeProbe(&live)));
    EXPECT_EQ(a.useCount(), 1u);

    ContextPtr b = a; // copy
    EXPECT_EQ(a.useCount(), 2u);
    EXPECT_TRUE(a == b);

    ContextPtr c = std::move(b); // move: no new reference
    EXPECT_FALSE(b);
    EXPECT_EQ(b.useCount(), 0u);
    EXPECT_TRUE(b == nullptr);
    EXPECT_EQ(c.useCount(), 2u);

    ContextPtr &alias = c;
    c = alias; // self copy-assignment
    EXPECT_EQ(c.useCount(), 2u);
    c = std::move(alias); // self move-assignment
    EXPECT_EQ(c.useCount(), 2u);
    EXPECT_EQ(c.get(), a.get());

    b = c; // copy-assign into an empty pointer
    EXPECT_EQ(a.useCount(), 3u);
    b = nullptr;
    EXPECT_EQ(a.useCount(), 2u);

    c.reset();
    EXPECT_FALSE(c);
    c.reset(); // resetting an empty pointer is a no-op
    EXPECT_EQ(a.useCount(), 1u);
    EXPECT_EQ(live, 1);
    EXPECT_EQ(a->state(), CtxState::Unstarted);

    a.reset();
    EXPECT_EQ(live, 0);
}

TEST(ContextPtrTest, LastReleaseDestroysTheContextAndReturnsItsBlock)
{
    // A fresh thread starts with an empty pool cache, so the blocks
    // its lists hold afterwards are exactly those freed there.
    constexpr std::size_t kCtxClass =
        (sizeof(Context) - 1) / coro_pool::kGrain;
    auto cached = [] {
        std::size_t n = 0;
        for (std::size_t c = 0; c < coro_pool::kClasses; ++c)
            n += coro_pool::cachedBlocks(c);
        return n;
    };
    int live = 0;
    int live_shared = -1;
    std::size_t cached_shared = 1, ctx_class_after = 0, cached_after = 0;
    std::thread([&] {
        EventQueue q;
        StatGroup sg("p");
        Cpu c(q, 0, &sg);
        ContextPtr ctx =
            c.spawn("t", false, probed(&c, LifeProbe(&live)));
        ContextPtr other = ctx;
        ctx.reset(); // not the last reference: nothing is freed
        live_shared = live;
        cached_shared = cached();
        other.reset(); // the last one: Context and frame are freed
        ctx_class_after = coro_pool::cachedBlocks(kCtxClass);
        cached_after = cached();
    }).join();
    EXPECT_EQ(live_shared, 1);
    EXPECT_EQ(cached_shared, 0u);
    EXPECT_EQ(live, 0);
    EXPECT_GE(ctx_class_after, 1u); // the Context's own block
    EXPECT_EQ(cached_after, 2u);    // it and the task's frame
}

/** The message-available stub: chain itself -> upcall -> interrupted. */
Task
stubTask(Cpu *cpu, std::vector<std::string> *trace, LifeProbe probe,
         Task upcall)
{
    co_await cpu->spend(5);
    trace->push_back("stub@" + std::to_string(cpu->now()));
    cpu->lowerIrq(0);
    const ContextPtr &self = cpu->current();
    ContextPtr interrupted = self->takeReturnTo();
    ContextPtr up = cpu->spawn("upcall", false, std::move(upcall));
    up->setReturnTo(std::move(interrupted));
    self->setReturnTo(std::move(up));
    (void)probe;
}

Task
upcallTask(Cpu *cpu, std::vector<std::string> *trace, LifeProbe probe)
{
    co_await cpu->spend(10);
    trace->push_back("upcall@" + std::to_string(cpu->now()));
    (void)probe;
}

Task
threadTask(Cpu *cpu, std::vector<Cycle> *log, LifeProbe probe)
{
    co_await cpu->spend(100);
    log->push_back(cpu->now());
    (void)probe;
}

TEST_F(CpuTest, StubUpcallThreadReturnChainIsFreed)
{
    int live = 0;
    cpu.setIrqHandler(0, [&](unsigned) {
        return stubTask(&cpu, &trace, LifeProbe(&live),
                        upcallTask(&cpu, &trace, LifeProbe(&live)));
    });
    ContextPtr thread =
        cpu.spawn("thread", false, threadTask(&cpu, &log, LifeProbe(&live)));
    cpu.switchTo(thread);
    eq.scheduleFn([&] { cpu.raiseIrq(0); }, 40);
    eq.run();
    // Preempted at 40, stub 40-45, upcall 45-55, thread resumes and
    // spends its remaining 60 cycles.
    EXPECT_EQ(trace, (std::vector<std::string>{"stub@45", "upcall@55"}));
    EXPECT_EQ(log, (std::vector<Cycle>{115}));
    EXPECT_TRUE(thread->finished());
    EXPECT_EQ(thread.useCount(), 1u);
    EXPECT_EQ(live, 1); // stub and upcall are gone; the thread is held
    thread.reset();
    EXPECT_EQ(live, 0);
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
        auto on_timer = [&] {
            r.trace.push_back("timer@" + std::to_string(q.now()));
            c.raiseIrq(0);
        };
        if (timer > 0)
            armTimer(c, timer, on_timer);
        if (irqAt > 0)
            q.scheduleFn([&] { c.raiseIrq(0); }, irqAt);
        c.switchTo(ctx);
        if (stepped)
            while (q.runOne())
                ++r.events;
        else
            r.events = q.run();
        EXPECT_TRUE(ctx->finished());
        r.inPlace = c.spendsInPlace();
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

// ---------------------------------------------------------------------
// Same-cycle hops that complete in place
// ---------------------------------------------------------------------

Task
trapAtOnce(Cpu *cpu, std::vector<std::string> *trace)
{
    trace->push_back("u@" + std::to_string(cpu->now()));
    co_await cpu->trap(3, 0);
    trace->push_back("u-back@" + std::to_string(cpu->now()));
    co_await cpu->spend(10);
    trace->push_back("u@" + std::to_string(cpu->now()));
}

Task
loggedTrapHandler(Cpu *cpu, std::vector<std::string> *trace)
{
    trace->push_back("h@" + std::to_string(cpu->now()));
    co_await cpu->spend(4);
}

/**
 * A user context that traps as soon as it starts, optionally with a
 * foreign event queued behind its start in the same cycle, driven by
 * run() or by a runOne() loop.
 */
struct HopScenario
{
    bool foreign = false;

    struct Result
    {
        std::vector<std::string> trace;
        std::uint64_t events = 0;
        std::uint64_t hopsInPlace = 0;
        Cycle end = 0;
    };

    Result
    run(bool stepped) const
    {
        Result r;
        EventQueue q;
        StatGroup sg("h");
        Cpu c(q, 0, &sg);
        c.setTrapHandler(3, [&](ContextPtr) {
            return loggedTrapHandler(&c, &r.trace);
        });
        auto ctx = c.spawn("u", false, trapAtOnce(&c, &r.trace));
        c.switchTo(ctx); // its start is a queued hop at cycle 0
        if (foreign)
            q.scheduleFn([&] { r.trace.push_back("F@0"); }, 0);
        if (stepped)
            while (q.runOne())
                ++r.events;
        else
            r.events = q.run();
        EXPECT_TRUE(ctx->finished());
        r.hopsInPlace = c.hopsInPlace();
        r.end = q.now();
        return r;
    }
};

TEST_F(CpuTest, TailHopsCompleteInPlaceWhenNothingElseIsDue)
{
    const HopScenario sc{};
    const auto r = sc.run(false);
    EXPECT_EQ(r.trace, (std::vector<std::string>{"u@0", "h@0", "u-back@4",
                                                 "u@14"}));
    // The trap's handler start, the dispatch after it finishes, the
    // victim's resume and the dispatch after the victim finishes.
    EXPECT_EQ(r.hopsInPlace, 4u);
    const auto ref = sc.run(true);
    EXPECT_EQ(ref.hopsInPlace, 0u);
    EXPECT_EQ(r.trace, ref.trace);
    EXPECT_EQ(r.events, ref.events);
    EXPECT_EQ(r.end, ref.end);
}

TEST_F(CpuTest, ForeignEventInTheSameCycleFiresBeforeTheResumedContext)
{
    // The foreign event is queued behind the context's start, so the
    // trap handler's hop cannot complete in place: it fires after the
    // foreign event, as it does in a step loop.
    const HopScenario sc{/*foreign=*/true};
    const auto r = sc.run(false);
    EXPECT_EQ(r.trace, (std::vector<std::string>{"u@0", "F@0", "h@0",
                                                 "u-back@4", "u@14"}));
    EXPECT_EQ(r.hopsInPlace, 3u);
    const auto ref = sc.run(true);
    EXPECT_EQ(r.trace, ref.trace);
    EXPECT_EQ(r.events, ref.events);
    EXPECT_EQ(r.end, ref.end);
}

TEST_F(CpuTest, StopAtAFinishingContextMatchesAStepLoop)
{
    // stop() turns true when the context finishes: run() must return
    // right after that event, with the dispatch hop still queued, on
    // the clock and count of a runOne() loop asking the same question.
    struct Out
    {
        Cycle now = 0;
        std::uint64_t events = 0;
        std::size_t pending = 0;
        std::uint64_t hopsInPlace = 0;
        std::uint64_t total = 0;
    };
    auto go = [](bool stepped) {
        Out o;
        EventQueue q;
        StatGroup sg("s");
        Cpu c(q, 0, &sg);
        std::vector<Cycle> lg;
        int idles = 0;
        c.setIdleHook([&] { ++idles; });
        auto ctx = c.spawn("u", false, spendTwice(&c, &lg, 10, 20));
        c.switchTo(ctx);
        q.scheduleFn([] {}, 100); // keeps the queue busy past the stop
        auto stop = [&] { return ctx->finished(); };
        if (stepped) {
            do {
                q.runOne();
                ++o.events;
            } while (!stop());
        } else {
            o.events = q.run(kMaxCycle, stop);
        }
        o.now = q.now();
        o.pending = q.pending();
        o.hopsInPlace = c.hopsInPlace();
        EXPECT_EQ(idles, 0); // the dispatch has not run yet
        o.total = o.events;
        if (stepped)
            while (q.runOne())
                ++o.total;
        else
            o.total += q.run();
        EXPECT_EQ(idles, 1);
        return o;
    };
    const Out r = go(false), ref = go(true);
    EXPECT_EQ(r.now, 30u);
    EXPECT_EQ(r.now, ref.now);
    EXPECT_EQ(r.events, ref.events);
    EXPECT_EQ(r.pending, 2u); // the dispatch hop and the event at 100
    EXPECT_EQ(r.pending, ref.pending);
    EXPECT_EQ(r.hopsInPlace, 0u);
    EXPECT_EQ(r.total, ref.total);
}

} // namespace
