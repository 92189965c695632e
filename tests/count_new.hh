/**
 * @file
 * Counting replacements for the global operator new/delete, shared by
 * the allocation tests. g_newCalls counts every operator new call
 * (scalar, array, aligned) and g_deleteCalls every delete of a
 * non-null pointer.
 *
 * The replacements are ordinary (non-inline) definitions, so include
 * this header from exactly one translation unit of a test binary.
 */

#ifndef FUGU_TESTS_COUNT_NEW_HH
#define FUGU_TESTS_COUNT_NEW_HH

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace
{

std::atomic<std::uint64_t> g_newCalls{0};
std::atomic<std::uint64_t> g_deleteCalls{0};

// Kept out of line: once inlined into a caller that also sees the
// matching operator new, GCC flags the free() as a mismatched
// deallocation (-Wmismatched-new-delete).
[[gnu::noinline]] void
countedFree(void *p) noexcept
{
    if (p)
        ++g_deleteCalls;
    std::free(p);
}

} // namespace

void *
operator new(std::size_t n)
{
    ++g_newCalls;
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    ++g_newCalls;
    if (void *p = std::aligned_alloc(static_cast<std::size_t>(al),
                                     (n + static_cast<std::size_t>(al) -
                                      1) &
                                         ~(static_cast<std::size_t>(al) -
                                           1)))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return ::operator new(n, al);
}

void
operator delete(void *p) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    countedFree(p);
}

#endif // FUGU_TESTS_COUNT_NEW_HH
