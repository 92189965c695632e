#include "exec/cpu.hh"

#include <iterator>

#include "sim/log.hh"

namespace fugu::exec
{

namespace
{

// Handler context names: one literal per IRQ line and trap vector,
// so a dispatch builds no string.
constexpr const char *kIrqNames[] = {"irq0", "irq1", "irq2", "irq3",
                                     "irq4", "irq5", "irq6", "irq7"};
static_assert(std::size(kIrqNames) == kNumIrqLines);

constexpr const char *kTrapNames[] = {
    "trap0", "trap1", "trap2",  "trap3",  "trap4",  "trap5",
    "trap6", "trap7", "trap8",  "trap9",  "trap10", "trap11",
    "trap12", "trap13", "trap14", "trap15"};
static_assert(std::size(kTrapNames) == kNumTrapVectors);

} // namespace

const char *
toString(CtxState s)
{
    switch (s) {
      case CtxState::Unstarted: return "Unstarted";
      case CtxState::Active: return "Active";
      case CtxState::Frozen: return "Frozen";
      case CtxState::Ready: return "Ready";
      case CtxState::Blocked: return "Blocked";
      case CtxState::Finished: return "Finished";
    }
    return "?";
}

Context::Context(Cpu *cpu, const char *name, bool kernel, Task task)
    : cpu_(cpu), name_(name), kernel_(kernel), task_(std::move(task))
{
    task_.handle().promise().ctx = this;
    cpu_->linkContext(this);
}

Context::~Context()
{
    if (ctxListed_)
        cpu_->unlinkContext(this);
}

void
Context::destroy(Context *c) noexcept
{
    c->~Context();
    coro_pool::deallocate(c, sizeof(Context));
}

std::coroutine_handle<>
Task::promise_type::FinalAwaiter::await_suspend(Handle h) noexcept
{
    Context *ctx = h.promise().ctx;
    // A bug here would throw from a noexcept context and terminate,
    // which is an acceptable response to a corrupted simulation.
    ctx->cpu()->onFinished(ctx);
    return std::noop_coroutine();
}

Cpu::Stats::Stats(StatGroup *parent, NodeId id)
    : group("cpu" + std::to_string(id), parent),
      userCycles(&group, "user_cycles", "cycles spent in user contexts"),
      kernelCycles(&group, "kernel_cycles",
                   "cycles spent in kernel contexts"),
      irqsTaken(&group, "irqs_taken", "interrupt handlers dispatched"),
      trapsTaken(&group, "traps_taken", "traps taken"),
      contextsSpawned(&group, "contexts_spawned", "contexts created"),
      preemptions(&group, "preemptions",
                  "user contexts frozen by interrupts")
{
}

Cpu::Cpu(EventQueue &eq, NodeId id, StatGroup *stat_parent)
    : stats(stat_parent, id), eq_(eq), id_(id)
{
}

Cpu::~Cpu()
{
    destroyParkedContexts();
}

void
Cpu::linkContext(Context *ctx)
{
    ctx->ctxNext_ = ctxHead_;
    if (ctxHead_)
        ctxHead_->ctxPrev_ = ctx;
    ctxHead_ = ctx;
    ctx->ctxListed_ = true;
}

void
Cpu::unlinkContext(Context *ctx)
{
    if (ctx->ctxPrev_)
        ctx->ctxPrev_->ctxNext_ = ctx->ctxNext_;
    else
        ctxHead_ = ctx->ctxNext_;
    if (ctx->ctxNext_)
        ctx->ctxNext_->ctxPrev_ = ctx->ctxPrev_;
    ctx->ctxPrev_ = ctx->ctxNext_ = nullptr;
    ctx->ctxListed_ = false;
}

void
Cpu::destroyParkedContexts()
{
    // Drop the Cpu's own references first so frame destruction below
    // observes the final ownership graph.
    current_.reset();
    pendingReturn_.reset();
    retired_.reset();
    spend_.ctx.reset();

    // Destroy the frame of every context suspended mid-coroutine.
    // Each destruction can release ContextPtrs that in turn destroy
    // other contexts (unlinking them), so restart the scan after
    // every mutation rather than walking a possibly-stale chain.
    bool progress = true;
    while (progress) {
        progress = false;
        for (Context *c = ctxHead_; c; c = c->ctxNext_) {
            if (!c->task_.valid() || c->finished())
                continue;
            // Keep the context alive across the frame destruction:
            // the frame may hold the last ContextPtr to it, and
            // re-entering ~Context mid-assignment would be UB.
            ContextPtr keep(c);
            c->state_ = CtxState::Finished;
            c->task_ = Task();
            progress = true;
            break;
        }
    }

    // Unregister survivors (contexts still referenced by outside
    // owners) so their eventual destruction does not touch this Cpu.
    for (Context *c = ctxHead_; c;) {
        Context *next = c->ctxNext_;
        c->ctxPrev_ = c->ctxNext_ = nullptr;
        c->ctxListed_ = false;
        c = next;
    }
    ctxHead_ = nullptr;
}

void
Cpu::setIrqHandler(unsigned line, IrqHandlerFactory factory, bool pulse)
{
    fugu_assert(line < kNumIrqLines, "bad irq line ", line);
    irqHandlers_[line] = std::move(factory);
    if (pulse)
        irqPulse_ |= 1u << line;
    else
        irqPulse_ &= ~(1u << line);
}

void
Cpu::setTrapHandler(unsigned vec, TrapHandlerFactory factory)
{
    fugu_assert(vec < kNumTrapVectors, "bad trap vector ", vec);
    trapHandlers_[vec] = std::move(factory);
}

void
Cpu::setIdleHook(std::function<void()> hook)
{
    idleHook_ = std::move(hook);
}

Cycle
Cpu::userCycles() const
{
    Cycle c = userCycles_;
    if (spend_.active && spend_.ctx->preemptible())
        c += eq_.now() - spend_.start;
    return c;
}

// ---------------------------------------------------------------------
// Device interface
// ---------------------------------------------------------------------

void
Cpu::raiseIrq(unsigned line)
{
    fugu_assert(line < kNumIrqLines);
    pendingIrqs_ |= 1u << line;
    if (current_) {
        if (current_->preemptible() && spend_.active &&
            spend_.ctx == current_) {
            // Preempt the user context in the middle of its spend.
            ++stats.preemptions;
            ContextPtr victim = current_;
            preemptCurrent();
            int l = pendingIrqLine();
            fugu_assert(l >= 0);
            dispatchIrq(static_cast<unsigned>(l), victim, /*tail=*/false);
        }
        // Otherwise: kernel context running, or a user context is
        // between spends (its C++ code is on the call stack right
        // now). The line stays pending; it is re-checked when the
        // context next begins a spend, or at the next dispatch
        // decision.
    } else {
        requestDispatch(/*tail=*/false);
    }
}

void
Cpu::lowerIrq(unsigned line)
{
    fugu_assert(line < kNumIrqLines);
    pendingIrqs_ &= ~(1u << line);
}

bool
Cpu::irqRaised(unsigned line) const
{
    fugu_assert(line < kNumIrqLines);
    return pendingIrqs_ & (1u << line);
}

int
Cpu::pendingIrqLine() const
{
    if (!pendingIrqs_)
        return -1;
    for (unsigned l = 0; l < kNumIrqLines; ++l)
        if (pendingIrqs_ & (1u << l))
            return static_cast<int>(l);
    return -1;
}

// ---------------------------------------------------------------------
// Context management
// ---------------------------------------------------------------------

ContextPtr
Cpu::spawn(const char *name, bool kernel, Task task)
{
    fugu_assert(task.valid(), "context '", name, "' needs a coroutine");
    ++stats.contextsSpawned;
    // Pooled like the task's frame: one handler context per message.
    // The block goes back to the pool in Context::destroy.
    static_assert(alignof(Context) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    void *block = coro_pool::allocate(sizeof(Context));
    return ContextPtr(::new (block)
                          Context(this, name, kernel, std::move(task)));
}

void
Cpu::switchTo(ContextPtr ctx)
{
    enter(std::move(ctx), /*tail=*/false);
}

void
Cpu::enter(ContextPtr ctx, bool tail)
{
    fugu_assert(!current_, "switchTo('", ctx->name(), "') while '",
                current_ ? current_->name() : "", "' is current");
    fugu_assert(!ctx->finished(), "switchTo a finished context '",
                ctx->name(), "'");
    int line = pendingIrqLine();
    if (ctx->preemptible() && line >= 0) {
        // Deliver the interrupt first; the handler returns to ctx.
        ++stats.preemptions;
        dispatchIrq(static_cast<unsigned>(line), std::move(ctx), tail);
    } else {
        resumeContext(ctx, tail);
    }
}

void
Cpu::wake(const ContextPtr &ctx)
{
    fugu_assert(ctx->state_ == CtxState::Blocked, "wake('", ctx->name(),
                "') in state ", toString(ctx->state_));
    ctx->state_ = CtxState::Ready;
}

void
Cpu::requestDispatch()
{
    requestDispatch(/*tail=*/false);
}

void
Cpu::requestDispatch(bool tail)
{
    if (current_ || dispatchPending_)
        return;
    dispatchPending_ = true;
    hop(dispatchEv_, tail);
}

// ---------------------------------------------------------------------
// Awaiter entry points
// ---------------------------------------------------------------------

bool
Cpu::onSpendSuspend(Cycle n, std::coroutine_handle<> h)
{
    fugu_assert(current_, "spend() outside any context");
    ContextPtr ctx = current_;
    ctx->resumePoint_ = h;
    if (ctx->preemptible() && pendingIrqLine() >= 0) {
        // An interrupt arrived while this context executed between
        // spends; take it now, before the spend begins.
        ++stats.preemptions;
        ctx->state_ = CtxState::Frozen;
        ctx->remaining_ = n;
        current_.reset();
        dispatchIrq(static_cast<unsigned>(pendingIrqLine()),
                    std::move(ctx), /*tail=*/true);
        return true;
    }
    if (n == 0)
        return false; // nothing to wait for; continue immediately
    // This coroutine's resume is the tail of the event now firing, so
    // its spend-end would be the next event unless something else is
    // due first: a queued event, or a user-timer deadline strictly
    // inside the spend. Otherwise the spend ends here and now.
    const bool timer_inside = timer_.active && ctx->preemptible() &&
                              timer_.deadline < userCycles_ + n;
    if (!timer_inside && eq_.completeInPlace(eq_.now() + n)) {
        ++spendsInPlace_;
        endSpend(ctx, n);
        return false;
    }
    beginSpend(n);
    return true;
}

void
Cpu::onBlockSuspend(std::coroutine_handle<> h)
{
    fugu_assert(current_, "block() outside any context");
    ContextPtr ctx = std::move(current_);
    ctx->resumePoint_ = h;
    ctx->state_ = CtxState::Blocked;
    reschedule();
}

void
Cpu::onYieldSuspend(std::coroutine_handle<> h, ContextPtr next,
                    bool block_self)
{
    fugu_assert(current_, "yieldTo() outside any context");
    fugu_assert(next && next.get() != current_.get(),
                "yieldTo self or null");
    ContextPtr ctx = std::move(current_);
    ctx->resumePoint_ = h;
    ctx->state_ = block_self ? CtxState::Blocked : CtxState::Ready;
    enter(std::move(next), /*tail=*/true);
}

ContextPtr
Cpu::onTrapSuspend(std::coroutine_handle<> h, unsigned vec,
                   std::uint64_t arg)
{
    fugu_assert(current_, "trap() outside any context");
    fugu_assert(vec < kNumTrapVectors && trapHandlers_[vec],
                "no handler for trap vector ", vec);
    ++stats.trapsTaken;
    ContextPtr victim = std::move(current_);
    victim->resumePoint_ = h;
    victim->state_ = CtxState::Blocked;
    victim->trapArg = arg;
    ContextPtr handler =
        spawn(kTrapNames[vec], /*kernel=*/true, trapHandlers_[vec](victim));
    handler->setReturnTo(victim);
    resumeContext(handler, /*tail=*/true);
    return victim;
}

// ---------------------------------------------------------------------
// Internals
// ---------------------------------------------------------------------

void
Cpu::onFinished(Context *ctx)
{
    fugu_assert(current_.get() == ctx, "finish of non-current context");
    ctx->state_ = CtxState::Finished;
    pendingReturn_ = ctx->takeReturnTo();
    // Defer destruction: we are executing inside this context's
    // coroutine frame right now. The dispatch runs after the frame
    // has suspended, from the trampoline if it completes in place.
    retired_ = std::move(current_);
    requestDispatch(/*tail=*/true);
}

void
Cpu::reschedule()
{
    dispatchPending_ = false;
    retired_.reset();
    if (current_)
        return;
    int line = pendingIrqLine();
    if (line >= 0) {
        ContextPtr ret = std::move(pendingReturn_);
        dispatchIrq(static_cast<unsigned>(line), std::move(ret),
                    /*tail=*/true);
        return;
    }
    if (pendingReturn_) {
        ContextPtr ret = std::move(pendingReturn_);
        enter(std::move(ret), /*tail=*/true);
        return;
    }
    if (idleHook_)
        idleHook_();
}

void
Cpu::dispatchIrq(unsigned line, ContextPtr ret, bool tail)
{
    fugu_assert(!current_);
    fugu_assert(irqHandlers_[line], "irq line ", line,
                " raised with no handler installed");
    if (irqPulse_ & (1u << line))
        pendingIrqs_ &= ~(1u << line);
    ++stats.irqsTaken;
    FUGU_TRACE(tracer_, id_, trace::Type::IrqDispatch, 0,
               trace::DivertReason::None, line);
    ContextPtr handler =
        spawn(kIrqNames[line], /*kernel=*/true, irqHandlers_[line](line));
    handler->setReturnTo(std::move(ret));
    resumeContext(handler, tail);
}

void
Cpu::resumeContext(const ContextPtr &ctx, bool tail)
{
    fugu_assert(!current_);
    switch (ctx->state_) {
      case CtxState::Unstarted:
        ctx->state_ = CtxState::Active;
        current_ = ctx;
        scheduleResume(ctx->task_.handle(), tail);
        break;
      case CtxState::Ready:
      case CtxState::Blocked:
        ctx->state_ = CtxState::Active;
        current_ = ctx;
        scheduleResume(ctx->resumePoint_, tail);
        break;
      case CtxState::Frozen: {
        Cycle rem = ctx->remaining_;
        ctx->state_ = CtxState::Active;
        ctx->remaining_ = 0;
        current_ = ctx;
        beginSpend(rem);
        break;
      }
      default:
        fugu_panic("resume of context '", ctx->name(), "' in state ",
                   toString(ctx->state_));
    }
}

void
Cpu::scheduleResume(std::coroutine_handle<> h, bool tail)
{
    // Only the current context runs, and it is set before its hop is
    // scheduled, so a second hop cannot be pending.
    fugu_assert(!hop_, "two context hops pending on cpu", id_);
    hop_ = h;
    hop(hopEv_, tail);
}

void
Cpu::onResumeHop()
{
    std::exchange(hop_, nullptr).resume();
}

void
Cpu::beginSpend(Cycle n)
{
    fugu_assert(current_ && !spend_.active);
    spend_.active = true;
    spend_.ctx = current_;
    spend_.start = eq_.now();
    spend_.end = eq_.now() + n;
    eq_.schedule(&spendEv_, spend_.end);
    armTimerForSpend();
}

void
Cpu::onSpendComplete()
{
    fugu_assert(spend_.active && spend_.ctx == current_);
    ContextPtr ctx = current_;
    Cycle n = spend_.end - spend_.start;
    spend_.active = false;
    spend_.ctx.reset();
    endSpend(ctx, n);
    ctx->resumePoint_.resume();
}

void
Cpu::endSpend(const ContextPtr &ctx, Cycle n)
{
    accountCycles(ctx, n);
    if (timer_.active && ctx->preemptible()) {
        // The in-spend firing event (if any) only exists for
        // deadlines strictly inside the spend; a deadline landing
        // exactly on the spend boundary fires here.
        eq_.deschedule(&timerEv_);
        if (userCycles_ >= timer_.deadline) {
            timer_.active = false;
            // Typically raises an IRQ; pends until the next spend.
            timer_.fn(timer_.arg);
        }
    }
}

void
Cpu::preemptCurrent()
{
    ContextPtr ctx = current_;
    fugu_assert(spend_.active && spend_.ctx == ctx);
    Cycle now = eq_.now();
    Cycle consumed = now - spend_.start;
    Cycle rem = spend_.end - now;
    eq_.deschedule(&spendEv_);
    spend_.active = false;
    spend_.ctx.reset();
    accountCycles(ctx, consumed);
    if (timer_.active)
        eq_.deschedule(&timerEv_); // re-armed at the next user spend
    ctx->state_ = CtxState::Frozen;
    ctx->remaining_ = rem;
    current_.reset();
}

void
Cpu::accountCycles(const ContextPtr &ctx, Cycle n)
{
    if (ctx->preemptible()) {
        userCycles_ += n;
        stats.userCycles += static_cast<double>(n);
    } else {
        stats.kernelCycles += static_cast<double>(n);
    }
}

// ---------------------------------------------------------------------
// User-cycle timer
// ---------------------------------------------------------------------

void
Cpu::setUserTimer(Cycle user_cycles, void (*fn)(void *), void *arg)
{
    fugu_assert(user_cycles > 0, "zero user timer");
    cancelUserTimer();
    timer_.active = true;
    timer_.deadline = userCycles() + user_cycles;
    timer_.fn = fn;
    timer_.arg = arg;
    if (spend_.active && spend_.ctx->preemptible())
        armTimerForSpend();
}

void
Cpu::cancelUserTimer()
{
    if (!timer_.active)
        return;
    eq_.deschedule(&timerEv_);
    timer_.active = false;
}

Cycle
Cpu::userTimerRemaining() const
{
    if (!timer_.active)
        return 0;
    Cycle uc = userCycles();
    return timer_.deadline > uc ? timer_.deadline - uc : 0;
}

void
Cpu::armTimerForSpend()
{
    if (!timer_.active || !spend_.active || !spend_.ctx->preemptible())
        return;
    Cycle uc = userCycles(); // includes progress inside this spend
    fugu_assert(timer_.deadline > uc,
                "user timer deadline already passed");
    Cycle dist = timer_.deadline - uc;
    Cycle left = spend_.end - eq_.now();
    if (dist < left)
        eq_.schedule(&timerEv_, eq_.now() + dist);
}

void
Cpu::onUserTimer()
{
    timer_.active = false;
    timer_.fn(timer_.arg);
}

} // namespace fugu::exec
