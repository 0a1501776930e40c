// Counts heap allocations: replaces the global operator new (and its
// matching deletes) of the binary that includes it, so a test can count
// the allocations made between two points. Include it from exactly one
// translation unit of a test binary, and give that binary no other
// replacement.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace garfield::testsupport {

inline std::atomic<bool> g_counting{false};
inline std::atomic<std::size_t> g_allocations{0};

inline void* counted_alloc(std::size_t size, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

/// Heap allocations made by `fn`, on any thread.
template <typename Fn>
std::size_t allocations_in(Fn&& fn) {
  g_allocations.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_allocations.load();
}

}  // namespace garfield::testsupport

void* operator new(std::size_t size) {
  return garfield::testsupport::counted_alloc(size, 0);
}
void* operator new[](std::size_t size) {
  return garfield::testsupport::counted_alloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return garfield::testsupport::counted_alloc(size, std::size_t(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return garfield::testsupport::counted_alloc(size, std::size_t(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
