#include "alloc_watch.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace
{

std::atomic<bool> g_armed{false};
std::atomic<std::uint64_t> g_news{0};

/** malloc, counted while a watch is armed; null on exhaustion. */
void *
countedAlloc(std::size_t n)
{
    if (g_armed.load(std::memory_order_relaxed))
        g_news.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

void *
throwingAlloc(std::size_t n)
{
    if (void *p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Every allocating form is replaced, the std::nothrow ones included:
// the replaced deletes below free with std::free, so any new left to
// the runtime (libstdc++'s std::stable_sort buffer uses the nothrow
// form) would hand back memory that free() must not release.

void *
operator new(std::size_t n)
{
    return throwingAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return throwingAlloc(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace refsched::testutil
{

AllocWatch::AllocWatch()
{
    g_news.store(0, std::memory_order_relaxed);
    g_armed.store(true, std::memory_order_relaxed);
}

AllocWatch::~AllocWatch()
{
    g_armed.store(false, std::memory_order_relaxed);
}

std::uint64_t
AllocWatch::count() const
{
    return g_news.load(std::memory_order_relaxed);
}

} // namespace refsched::testutil
