// Counting replacement of the global operator new, linked only into the
// benchmark binary: the per-layer replays report allocations per call as
// the difference of AllocCount() around the replayed function.
#include <atomic>
#include <cstdlib>
#include <new>

#include "common.h"

namespace {
std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

namespace perfbench {
uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }
}  // namespace perfbench

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
