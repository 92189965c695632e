/**
 * @file
 * Thread-local size-class pool for coroutine frames and Contexts.
 *
 * Every simulated message runs a kernel handler, and every handler is
 * a Context plus one or more coroutine frames (Task, nested CoTasks).
 * Left to the global heap that is ~10 malloc/free pairs per message.
 * This pool recycles those blocks instead: requests up to kMaxBytes
 * are rounded up to a kGrain multiple and served from a per-thread
 * LIFO free list of that size class; larger requests go straight to
 * ::operator new. A list grows from ::operator new on a miss and never
 * shrinks while its thread lives, so steady-state traffic allocates
 * nothing. Task/CoTask promises and Cpu::spawn's Context allocation
 * use it; there is no knob and no lock.
 *
 * Cross-thread rule: a block may be freed on a different thread than
 * the one that allocated it (under the sharded engine a Context may be
 * spawned and retired on different pool threads). It simply joins the
 * freeing thread's list. That is safe because each list is touched by
 * its own thread only, and whatever hands the block over (the phase
 * barrier) orders the two threads' accesses.
 *
 * A thread's cached blocks are returned to ::operator delete when the
 * thread exits; a block freed on that thread afterwards (a later
 * thread_local or static destructor) goes to ::operator delete
 * directly. Under AddressSanitizer a cached block is poisoned, so a
 * use of a freed frame still aborts.
 */

#ifndef FUGU_EXEC_CORO_POOL_HH
#define FUGU_EXEC_CORO_POOL_HH

#include <cstddef>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define FUGU_CORO_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FUGU_CORO_POOL_ASAN 1
#endif
#endif

#ifdef FUGU_CORO_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace fugu::exec::coro_pool
{

/** Size-class granularity in bytes. */
inline constexpr std::size_t kGrain = 32;

/** Largest pooled request; larger ones use ::operator new. */
inline constexpr std::size_t kMaxBytes = 1024;

inline constexpr std::size_t kClasses = kMaxBytes / kGrain;

static_assert(kGrain % __STDCPP_DEFAULT_NEW_ALIGNMENT__ == 0,
              "pooled blocks must keep operator new's alignment");

/** Lifecycle of a thread's cache. */
enum class CacheState : unsigned char
{
    Fresh, ///< never used; no exit hook registered yet
    Live,  ///< exit hook registered; lists in use
    Gone,  ///< thread exiting: lists freed, pool bypassed
};

struct FreeBlock
{
    FreeBlock *next;
};

struct ThreadCache
{
    FreeBlock *head[kClasses];
    CacheState state;
};

/**
 * The calling thread's cache. Constant-initialized and trivially
 * destructible, so access needs no guard; the exit hook that empties
 * it is registered on first use (see slowFree/refill).
 */
inline constinit thread_local ThreadCache tlsCache{};

/** Bytes of size class @p c. */
constexpr std::size_t
classBytes(std::size_t c)
{
    return (c + 1) * kGrain;
}

inline void
poison([[maybe_unused]] void *p, [[maybe_unused]] std::size_t n)
{
#ifdef FUGU_CORO_POOL_ASAN
    ASAN_POISON_MEMORY_REGION(p, n);
#endif
}

inline void
unpoison([[maybe_unused]] void *p, [[maybe_unused]] std::size_t n)
{
#ifdef FUGU_CORO_POOL_ASAN
    ASAN_UNPOISON_MEMORY_REGION(p, n);
#endif
}

/** Cache @p p, a class-@p c block, on @p tc's list (LIFO). */
inline void
pushBlock(ThreadCache &tc, void *p, std::size_t c) noexcept
{
    FreeBlock *b = static_cast<FreeBlock *>(p);
    b->next = tc.head[c];
    tc.head[c] = b;
    poison(b, classBytes(c));
}

/** Miss path: a fresh block of class @p c from ::operator new. */
void *refill(std::size_t c);

/** Free path for a thread whose cache is not Live. */
void slowFree(void *p, std::size_t c) noexcept;

/** Allocate @p n bytes (n > 0), aligned like ::operator new. */
inline void *
allocate(std::size_t n)
{
    if (n - 1 < kMaxBytes) {
        const std::size_t c = (n - 1) / kGrain;
        ThreadCache &tc = tlsCache;
        if (FreeBlock *b = tc.head[c]) {
            unpoison(b, classBytes(c));
            tc.head[c] = b->next;
            return b;
        }
        return refill(c);
    }
    return ::operator new(n);
}

/** Free @p p, which allocate(@p n) returned (on any thread). */
inline void
deallocate(void *p, std::size_t n) noexcept
{
    if (n - 1 < kMaxBytes) {
        const std::size_t c = (n - 1) / kGrain;
        ThreadCache &tc = tlsCache;
        if (tc.state == CacheState::Live)
            pushBlock(tc, p, c);
        else
            slowFree(p, c);
        return;
    }
    ::operator delete(p);
}

/** Blocks cached in the calling thread's class @p c list (tests). */
std::size_t cachedBlocks(std::size_t c);

} // namespace fugu::exec::coro_pool

#endif // FUGU_EXEC_CORO_POOL_HH
