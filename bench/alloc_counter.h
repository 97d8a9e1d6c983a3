/**
 * @file
 * Counting global allocator for the benches that report heap
 * allocations per searched point. Replacing operator new/delete in any
 * translation unit replaces them for the whole program, so include this
 * header from exactly one source file of a bench executable (each bench
 * is one file). The counter is relaxed-atomic, so the hot path stays
 * cheap.
 */
#ifndef FLAT_BENCH_ALLOC_COUNTER_H
#define FLAT_BENCH_ALLOC_COUNTER_H

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocations{0};

/** Heap allocations the process has made so far. */
std::uint64_t
allocations_so_far()
{
    return g_allocations.load(std::memory_order_relaxed);
}
} // namespace

void*
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size > 0 ? size : 1)) {
        return p;
    }
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    return ::operator new(size);
}

// Out of line, so the compiler never pairs an inlined free() with the
// operator new that produced the pointer (-Wmismatched-new-delete).
[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

#endif // FLAT_BENCH_ALLOC_COUNTER_H
