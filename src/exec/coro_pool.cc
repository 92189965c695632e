#include "exec/coro_pool.hh"

namespace fugu::exec::coro_pool
{

namespace
{

/** Returns the thread's cached blocks to the heap at thread exit. */
struct Reaper
{
    ~Reaper()
    {
        ThreadCache &tc = tlsCache;
        for (std::size_t c = 0; c < kClasses; ++c) {
            FreeBlock *b = tc.head[c];
            while (b) {
                unpoison(b, classBytes(c));
                FreeBlock *next = b->next;
                ::operator delete(b);
                b = next;
            }
            tc.head[c] = nullptr;
        }
        tc.state = CacheState::Gone;
    }
};

/** Register the calling thread's exit hook and mark its cache Live. */
void
arm()
{
    static thread_local Reaper reaper;
    (void)reaper;
    tlsCache.state = CacheState::Live;
}

} // namespace

void *
refill(std::size_t c)
{
    if (tlsCache.state == CacheState::Fresh)
        arm();
    return ::operator new(classBytes(c));
}

void
slowFree(void *p, std::size_t c) noexcept
{
    ThreadCache &tc = tlsCache;
    if (tc.state == CacheState::Gone) {
        ::operator delete(p);
        return;
    }
    arm();
    pushBlock(tc, p, c);
}

std::size_t
cachedBlocks(std::size_t c)
{
    std::size_t n = 0;
    for (FreeBlock *b = tlsCache.head[c]; b;) {
        unpoison(b, classBytes(c));
        FreeBlock *next = b->next;
        poison(b, classBytes(c));
        b = next;
        ++n;
    }
    return n;
}

} // namespace fugu::exec::coro_pool
