/**
 * @file
 * Tests for the coroutine pool (exec/coro_pool.hh): size classes and
 * the large-request fallback, LIFO reuse, frees on a thread other
 * than the allocating one, thread exit with cached blocks (leak-free
 * under LeakSanitizer), frees after a thread's cache is gone, and —
 * under AddressSanitizer — that a freed pooled frame stays poisoned.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "exec/coro_pool.hh"
#include "exec/cpu.hh"
#include "exec/task.hh"
#include "count_new.hh"

namespace
{

using namespace fugu::exec;
namespace cp = fugu::exec::coro_pool;

constexpr std::size_t
classOf(std::size_t n)
{
    return (n - 1) / cp::kGrain;
}

TEST(CoroPoolTest, EverySizeClassBoundary)
{
    std::vector<std::size_t> sizes;
    for (std::size_t top = cp::kGrain; top <= cp::kMaxBytes;
         top += cp::kGrain) {
        sizes.push_back(top - cp::kGrain + 1); // first size of the class
        sizes.push_back(top);                  // last size of the class
    }
    for (std::size_t n : sizes) {
        const std::size_t c = classOf(n);
        void *p = cp::allocate(n);
        ASSERT_NE(p, nullptr);
        // The whole class block is usable, not just the request.
        std::memset(p, 0xab, cp::classBytes(c));
        const std::size_t cached = cp::cachedBlocks(c);
        cp::deallocate(p, n);
        EXPECT_EQ(cp::cachedBlocks(c), cached + 1) << "n=" << n;
        // Any size of the same class reuses the block...
        const std::size_t other = n == cp::classBytes(c)
                                      ? cp::classBytes(c) - cp::kGrain + 1
                                      : cp::classBytes(c);
        void *q = cp::allocate(other);
        EXPECT_EQ(q, p) << "n=" << n << " other=" << other;
        cp::deallocate(q, other);
        // ...and the next class up does not.
        if (cp::classBytes(c) < cp::kMaxBytes) {
            void *r = cp::allocate(cp::classBytes(c) + 1);
            EXPECT_NE(r, p) << "n=" << n;
            cp::deallocate(r, cp::classBytes(c) + 1);
        }
    }
}

TEST(CoroPoolTest, LargeRequestsFallBackToTheHeap)
{
    // Warm every class so the pooled sizes below cannot miss.
    for (std::size_t c = 0; c < cp::kClasses; ++c)
        cp::deallocate(cp::allocate(cp::classBytes(c)), cp::classBytes(c));

    std::vector<std::size_t> cached(cp::kClasses);
    for (std::size_t c = 0; c < cp::kClasses; ++c)
        cached[c] = cp::cachedBlocks(c);

    const std::uint64_t news = g_newCalls.load();
    const std::uint64_t dels = g_deleteCalls.load();
    void *big = cp::allocate(cp::kMaxBytes + 1);
    std::memset(big, 0, cp::kMaxBytes + 1);
    cp::deallocate(big, cp::kMaxBytes + 1);
    EXPECT_EQ(g_newCalls.load(), news + 1);
    EXPECT_EQ(g_deleteCalls.load(), dels + 1);

    // The largest pooled size is served from its class, no heap call.
    cp::deallocate(cp::allocate(cp::kMaxBytes), cp::kMaxBytes);
    EXPECT_EQ(g_newCalls.load(), news + 1);
    for (std::size_t c = 0; c < cp::kClasses; ++c)
        EXPECT_EQ(cp::cachedBlocks(c), cached[c]) << "class " << c;
}

TEST(CoroPoolTest, ReuseIsLifo)
{
    void *a = cp::allocate(200);
    void *b = cp::allocate(200);
    void *c = cp::allocate(200);
    cp::deallocate(a, 200);
    cp::deallocate(b, 200);
    cp::deallocate(c, 200);
    EXPECT_EQ(cp::allocate(200), c);
    EXPECT_EQ(cp::allocate(200), b);
    EXPECT_EQ(cp::allocate(200), a);
    cp::deallocate(a, 200);
    cp::deallocate(b, 200);
    cp::deallocate(c, 200);
}

TEST(CoroPoolTest, CoroutineFramesAndContextsArePooled)
{
    auto body = []() -> Task { co_return; };
    Task warm = body();
    warm = Task{};
    std::uint64_t news = g_newCalls.load();
    for (int i = 0; i < 100; ++i) {
        Task t = body();
        ASSERT_TRUE(t.valid());
    }
    EXPECT_EQ(g_newCalls.load(), news) << "Task frames bypass the pool";

    // Cpu::spawn builds each Context in a pooled block.
    fugu::EventQueue q;
    fugu::StatGroup sg("pool");
    Cpu cpu(q, 0, &sg);
    cpu.spawn("warm", false, body()).reset();
    news = g_newCalls.load();
    for (int i = 0; i < 100; ++i)
        cpu.spawn("t", false, body()).reset();
    EXPECT_EQ(g_newCalls.load(), news) << "Contexts bypass the pool";
}

TEST(CoroPoolTest, BlockFreedOnAnotherThreadJoinsThatThreadsList)
{
    // Allocated there, freed here: the block is reused here.
    void *p = nullptr;
    std::thread([&p] { p = cp::allocate(96); }).join();
    const std::size_t cached = cp::cachedBlocks(classOf(96));
    cp::deallocate(p, 96);
    EXPECT_EQ(cp::cachedBlocks(classOf(96)), cached + 1);
    EXPECT_EQ(cp::allocate(96), p);

    // Allocated here, freed there: the block leaves this thread and is
    // returned to the heap when that thread exits.
    const std::size_t here = cp::cachedBlocks(classOf(96));
    std::size_t there = 0;
    std::thread([p, &there] {
        cp::deallocate(p, 96);
        there = cp::cachedBlocks(classOf(96));
    }).join();
    EXPECT_EQ(there, 1u);
    EXPECT_EQ(cp::cachedBlocks(classOf(96)), here);
}

TEST(CoroPoolTest, ThreadExitReturnsCachedBlocksToTheHeap)
{
    constexpr int kBlocks = 5;
    std::uint64_t dels_at_exit = 0;
    std::thread([&dels_at_exit] {
        void *blocks[kBlocks];
        for (void *&b : blocks)
            b = cp::allocate(48);
        for (void *b : blocks)
            cp::deallocate(b, 48);
        EXPECT_EQ(cp::cachedBlocks(classOf(48)),
                  static_cast<std::size_t>(kBlocks));
        dels_at_exit = g_deleteCalls.load();
    }).join();
    // LeakSanitizer (detect_leaks=1) reports the blocks if this fails.
    EXPECT_GE(g_deleteCalls.load(), dels_at_exit + kBlocks);
}

/**
 * Holds a pooled block past the thread's cache: constructed before the
 * cache's exit hook, so it is destroyed after it.
 */
struct LateHolder
{
    void *block = nullptr;
    std::uint64_t *delsOut = nullptr;
    bool *goneOut = nullptr;

    ~LateHolder()
    {
        *goneOut = cp::tlsCache.state == cp::CacheState::Gone;
        const std::uint64_t dels = g_deleteCalls.load();
        cp::deallocate(block, 64);
        // A pool request after the cache is gone goes to the heap too.
        cp::deallocate(cp::allocate(64), 64);
        *delsOut = g_deleteCalls.load() - dels;
    }
};

TEST(CoroPoolTest, FreeAfterTheCacheIsGoneUsesTheHeap)
{
    std::uint64_t dels = 0;
    bool gone = false;
    std::thread([&dels, &gone] {
        static thread_local LateHolder holder;
        holder.delsOut = &dels;
        holder.goneOut = &gone;
        ASSERT_EQ(cp::tlsCache.state, cp::CacheState::Fresh);
        holder.block = cp::allocate(64);
    }).join();
    EXPECT_TRUE(gone);
    EXPECT_EQ(dels, 2u);
}

// Death tests: under AddressSanitizer a cached block is poisoned, so
// touching a freed pooled block or coroutine frame must abort.

TEST(CoroPoolDeathTest, UseOfAPooledBlockAfterFreeAborts)
{
#ifdef FUGU_CORO_POOL_ASAN
    EXPECT_DEATH(
        {
            auto *p = static_cast<volatile char *>(cp::allocate(64));
            cp::deallocate(const_cast<char *>(p), 64);
            (void)p[8];
        },
        "use-after-poison");
#else
    GTEST_SKIP() << "needs an AddressSanitizer build";
#endif
}

TEST(CoroPoolDeathTest, UseOfADestroyedCoroutineFrameAborts)
{
#ifdef FUGU_CORO_POOL_ASAN
    EXPECT_DEATH(
        {
            auto body = []() -> Task { co_return; };
            Task t = body();
            auto *frame =
                static_cast<volatile char *>(t.handle().address());
            t = Task{};
            (void)frame[8];
        },
        "use-after-poison");
#else
    GTEST_SKIP() << "needs an AddressSanitizer build";
#endif
}

} // namespace
