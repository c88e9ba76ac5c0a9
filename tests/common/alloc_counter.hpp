// Counting replacement for the global operator new/delete, shared by the
// allocation-budget tests. The replacement functions are definitions, not
// inline: include this header from exactly one file of a test executable
// (each test file here is its own executable). The counter is atomic, so
// a case may count allocations made on sharded-engine worker threads.
#pragma once

#include <atomic>
#include <cstdlib>
#include <new>

namespace smt::test {

inline std::atomic<std::size_t> g_allocations{0};

inline std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// Heap allocations made while `fn` runs.
template <typename Fn>
std::size_t allocations_in(Fn&& fn) {
  const std::size_t before = allocations();
  fn();
  return allocations() - before;
}

}  // namespace smt::test

void* operator new(std::size_t size) {
  smt::test::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
