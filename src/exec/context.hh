/**
 * @file
 * Context: a schedulable stream of execution on a simulated Cpu.
 *
 * Kernel interrupt/trap handlers, user threads and user upcall handlers
 * are all Contexts. A Context wraps a top-level Task coroutine plus the
 * bookkeeping the Cpu needs to preempt it in the middle of a cycle
 * spend ("freeze") and later resume it with the leftover cycles intact.
 */

#ifndef FUGU_EXEC_CONTEXT_HH
#define FUGU_EXEC_CONTEXT_HH

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "exec/task.hh"
#include "sim/types.hh"

namespace fugu::exec
{

class Cpu;
class Context;

/**
 * Shared ownership of a Context: an intrusive, non-atomic count. A
 * Context is only ever touched by its own Cpu's lane, and lanes hand
 * over to one another (and runTrials workers to their caller) only
 * across a barrier or a join, so the count needs no atomic. The last
 * release destroys the Context and returns its block to the
 * coroutine pool (Cpu::spawn allocates it there).
 */
class ContextPtr
{
  public:
    ContextPtr() noexcept = default;
    ContextPtr(std::nullptr_t) noexcept {}

    /** Take a new reference to @p c (null allowed). */
    explicit ContextPtr(Context *c) noexcept;

    ContextPtr(const ContextPtr &o) noexcept : ContextPtr(o.p_) {}
    ContextPtr(ContextPtr &&o) noexcept : p_(std::exchange(o.p_, nullptr))
    {}

    /** Copy and move assignment; self-assignment is safe. */
    ContextPtr &
    operator=(ContextPtr o) noexcept
    {
        std::swap(p_, o.p_);
        return *this;
    }

    ~ContextPtr() { reset(); }

    /**
     * Drop the reference. The pointer is cleared before the release,
     * so a destructor it triggers sees this ContextPtr already empty.
     */
    void reset() noexcept;

    Context *get() const noexcept { return p_; }
    Context *operator->() const noexcept { return p_; }
    explicit operator bool() const noexcept { return p_ != nullptr; }

    /** References to the pointee (0 when empty). */
    std::uint32_t useCount() const noexcept;

    friend bool
    operator==(const ContextPtr &a, const ContextPtr &b) noexcept
    {
        return a.p_ == b.p_;
    }

  private:
    Context *p_ = nullptr;
};

/** Lifecycle of a Context. */
enum class CtxState
{
    Unstarted, ///< created, never dispatched
    Active,    ///< logically executing on the Cpu (incl. inside spend)
    Frozen,    ///< preempted mid-spend; `remaining` cycles still owed
    Ready,     ///< suspended at a yield point, eligible for dispatch
    Blocked,   ///< waiting for an explicit wake()
    Finished,  ///< top-level coroutine ran to completion
};

const char *toString(CtxState s);

class Context
{
  public:
    ~Context();

    Context(const Context &) = delete;
    Context &operator=(const Context &) = delete;

    const char *name() const { return name_; }
    Cpu *cpu() const { return cpu_; }

    /** Kernel contexts are never preempted by interrupts. */
    bool isKernel() const { return kernel_; }
    bool preemptible() const { return !kernel_; }

    CtxState state() const { return state_; }
    bool finished() const { return state_ == CtxState::Finished; }

    /** Cycles still owed from a preempted spend (Frozen only). */
    Cycle remaining() const { return remaining_; }

    /**
     * Context to resume when this one finishes (set for interrupt and
     * trap handlers). A handler that wants to divert control (e.g., a
     * scheduler quantum switch) takes it with takeReturnTo().
     */
    ContextPtr returnTo() const { return returnTo_; }
    ContextPtr
    takeReturnTo()
    {
        return std::exchange(returnTo_, nullptr);
    }
    void setReturnTo(ContextPtr c) { returnTo_ = std::move(c); }

    /** Scratch value a trap handler hands back to the trapping code. */
    std::uint64_t trapResult = 0;

    /** Argument passed along with a trap. */
    std::uint64_t trapArg = 0;

  private:
    friend class Cpu;
    friend class ContextPtr;

    /** Built by Cpu::spawn; @p name must outlive the context. */
    Context(Cpu *cpu, const char *name, bool kernel, Task task);

    /** Destroy @p c and return its block to the coroutine pool. */
    static void destroy(Context *c) noexcept;

    Cpu *cpu_;
    const char *name_;
    bool kernel_;
    Task task_;
    CtxState state_ = CtxState::Unstarted;

    /** Where to continue this context (set by awaitables on suspend). */
    std::coroutine_handle<> resumePoint_;

    /** Cycles left in the interrupted spend (valid when Frozen). */
    Cycle remaining_ = 0;

    ContextPtr returnTo_;

    /** ContextPtrs referring to this context. */
    std::uint32_t refs_ = 0;

    /**
     * Intrusive membership in the owning Cpu's context registry, so
     * Cpu teardown can destroy the coroutine frames of contexts still
     * suspended (frames may hold ContextPtr/ThreadPtr locals forming
     * reference cycles that would otherwise never be released).
     */
    Context *ctxPrev_ = nullptr;
    Context *ctxNext_ = nullptr;
    bool ctxListed_ = false;
};

inline ContextPtr::ContextPtr(Context *c) noexcept : p_(c)
{
    if (p_)
        ++p_->refs_;
}

inline void
ContextPtr::reset() noexcept
{
    if (Context *c = std::exchange(p_, nullptr); c && --c->refs_ == 0)
        Context::destroy(c);
}

inline std::uint32_t
ContextPtr::useCount() const noexcept
{
    return p_ ? p_->refs_ : 0;
}

} // namespace fugu::exec

#endif // FUGU_EXEC_CONTEXT_HH
