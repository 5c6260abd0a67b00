#pragma once

// Vectors sized without a value-initializing fill.
//
// A pass that writes every element of a freshly sized array (a CSR
// build, an engine's per-node state, the shard-parallel agent-site
// collection) pays twice when the vector zero-fills first: once for the
// fill, which is also the serial first touch of every page, and once for
// the real writes. NoInitVector skips the fill, so the writing pass —
// run one range per pool job — is the first and only touch.

#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace rr {

/// Allocator whose argument-less construct() runs no constructor. Only
/// for element types that are valid as allocated (trivial copy and
/// destruction, e.g. integers, pairs of them, plain structs of them).
template <typename T>
struct NoInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = NoInitAllocator<U>;
  };
  template <typename U>
  void construct(U*) noexcept {
    static_assert(std::is_trivially_copy_constructible_v<U> &&
                  std::is_trivially_destructible_v<U>);
  }
  // Construction with arguments falls back to std::construct_at.
};

/// A vector whose size constructor and resize() leave new elements
/// unwritten: the caller writes every one before reading it.
template <typename T>
using NoInitVector = std::vector<T, NoInitAllocator<T>>;

/// NoInitAllocator over malloc that, built with `zeroed`, takes its
/// blocks from calloc instead: they read as zero with no fill pass, and
/// a large one arrives as untouched zero pages. Either kind frees the
/// other's blocks.
template <typename T>
struct ZeroableAllocator : NoInitAllocator<T> {
  template <typename U>
  struct rebind {
    using other = ZeroableAllocator<U>;
  };
  explicit ZeroableAllocator(bool zeroed = false) noexcept
      : zeroed(zeroed) {}
  template <typename U>
  ZeroableAllocator(const ZeroableAllocator<U>& o) noexcept
      : zeroed(o.zeroed) {}
  T* allocate(std::size_t n) {
    void* p = zeroed ? std::calloc(n, sizeof(T)) : std::malloc(n * sizeof(T));
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept { std::free(p); }
  bool zeroed;
};

template <typename T>
using ZeroableVector = std::vector<T, ZeroableAllocator<T>>;

}  // namespace rr
