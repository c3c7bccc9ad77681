// ZeroPageAllocator: storage for large buffers that start out all zero and
// are mostly never written, such as a client VM's guest memory. Pages come
// straight from an anonymous mmap, so until first written they are the
// kernel's shared zero page: the buffer costs resident memory and page faults
// only for the pages its user touches.
//
// Value-initialization is a no-op (construct with no arguments does nothing),
// because a fresh mapping already reads as zero. That is correct only when
//   * T's value-initialized object is all zero bytes (the owner of T pins
//     this with a test), and
//   * every slot constructed without arguments is fresh mapped memory: size
//     the vector once, from empty, and never clear() or shrink and regrow it
//     (both keep the old storage and would expose stale bytes).
//
// Why mmap and not calloc: after glibc frees one large mapped block it raises
// its mmap threshold, so the next calloc of that size is carved from the heap
// and memset in full, faulting in every page. A process that builds guest
// memories one after another (a test binary, a fleet built twice) would pay
// for the whole buffer again.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace sc::util {

template <typename T>
class ZeroPageAllocator {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "ZeroPageAllocator hands out raw zero bytes");

 public:
  using value_type = T;

  ZeroPageAllocator() noexcept = default;
  template <typename U>
  ZeroPageAllocator(const ZeroPageAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    if (n == 0) return nullptr;
    void* p = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
#ifdef MADV_NOHUGEPAGE
    // Touching one byte must cost one page, not a 2 MiB huge page, whatever
    // the host's transparent-huge-page policy.
    madvise(p, n * sizeof(T), MADV_NOHUGEPAGE);
#endif
    return static_cast<T*>(p);
  }
  void deallocate(T* p, size_t n) noexcept {
    if (p != nullptr) munmap(p, n * sizeof(T));
  }

  // Value-initialization: the slot is already zero (see file comment).
  template <typename U>
  void construct(U*) noexcept {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(const ZeroPageAllocator&,
                         const ZeroPageAllocator&) noexcept {
    return true;
  }
};

}  // namespace sc::util
