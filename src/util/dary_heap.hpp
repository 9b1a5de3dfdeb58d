// Implicit d-ary min-heap: push, pop and top.
//
// Replaces std::priority_queue where the flatter fan-out pays: a 4-ary heap
// does about half the levels of a binary heap, and the event loop's sift
// time goes to memory traffic, not comparisons. The DES core's timer heaps
// and dedicated/grid.cpp's processor free-list use it.
//
// Storage is a 64-byte-aligned buffer with a *shifted* layout: the root sits
// at physical index Arity-1 (physical slots [0, Arity-1) are unused), the
// k-th element at physical k + Arity - 1, and
//   first_child(p) = Arity*(p - Arity + 2)
//   parent(c)      = c/Arity + Arity - 2.
// Child groups therefore start at multiples of Arity, so with 16-byte
// entries and Arity = 4 every child scan reads exactly one cache line —
// the classic layout (children at Arity*i + 1) straddles two lines on
// every level.
#pragma once

#include <algorithm>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "util/error.hpp"

namespace hcmd::util {

template <typename T, typename Less, std::size_t Arity = 4>
class DaryHeap {
  static_assert(Arity >= 2, "a heap needs at least two children per node");
  static_assert(std::is_nothrow_move_constructible_v<T> &&
                    std::is_nothrow_move_assignable_v<T>,
                "heap entries must be nothrow-movable");

 public:
  explicit DaryHeap(Less less = Less()) : less_(std::move(less)) {}

  DaryHeap(const DaryHeap&) = delete;
  DaryHeap& operator=(const DaryHeap&) = delete;

  ~DaryHeap() {
    clear();
    deallocate(slots_);
  }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  void reserve(std::size_t n) {
    if (n > 0) ensure_capacity(pos_of(n - 1) + 1);
  }

  void clear() {
    for (std::size_t k = count_; k-- > 0;) slots_[pos_of(k)].~T();
    count_ = 0;
  }

  const T& top() const {
    HCMD_ASSERT(count_ > 0);
    return slots_[kRoot];
  }

  void push(T value) {
    const std::size_t phys = pos_of(count_);
    if (phys >= capacity_) ensure_capacity(phys + 1);
    ::new (static_cast<void*>(slots_ + phys)) T(std::move(value));
    ++count_;
    sift_up(phys);
  }

  /// Bottom-up: the root's hole walks the smaller-child path down to a
  /// leaf, and the last entry sifts up from there. The last entry is
  /// nearly always large, so this saves the per-level comparison against
  /// it, and the sift up almost always stops at once.
  void pop() {
    HCMD_ASSERT(count_ > 0);
    --count_;
    const std::size_t last = pos_of(count_);
    T value = std::move(slots_[last]);
    slots_[last].~T();
    if (count_ == 0) return;
    const std::size_t end = end_phys();
    std::size_t hole = kRoot;
    for (;;) {
      const std::size_t first = first_child_of(hole);
      if (first >= end) break;
      // Prefetch the grandchild frontier: the Arity candidate child groups
      // of this level's children are contiguous, so a few prefetches
      // overlap the next level's (otherwise serial) cache miss. Prefetch
      // never faults, so running past `end` is harmless.
      prefetch_span(first_child_of(first), Arity * Arity);
      const std::size_t stop = std::min(first + Arity, end);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < stop; ++c) {
        if (less_(slots_[c], slots_[best])) best = c;
      }
      slots_[hole] = std::move(slots_[best]);
      hole = best;
    }
    slots_[hole] = std::move(value);
    sift_up(hole);
  }

 private:
  static constexpr std::size_t kRoot = Arity - 1;

  /// Physical position of the k-th stored element.
  static constexpr std::size_t pos_of(std::size_t k) { return k + kRoot; }
  /// One past the last occupied physical position.
  std::size_t end_phys() const { return count_ + kRoot; }
  static constexpr std::size_t parent_of(std::size_t c) {
    return c / Arity + Arity - 2;
  }
  static constexpr std::size_t first_child_of(std::size_t p) {
    return Arity * (p - Arity + 2);
  }

  // Hole-based sift: the entry in motion is held aside and placed exactly
  // once, so each level costs one move. Indices are physical throughout.
  void sift_up(std::size_t index) {
    T value = std::move(slots_[index]);
    while (index != kRoot) {
      const std::size_t parent = parent_of(index);
      if (!less_(value, slots_[parent])) break;
      slots_[index] = std::move(slots_[parent]);
      index = parent;
    }
    slots_[index] = std::move(value);
  }

  void prefetch_span(std::size_t phys, std::size_t count) const {
#if defined(__GNUC__)
    const char* base = reinterpret_cast<const char*>(slots_ + phys);
    const char* stop = reinterpret_cast<const char*>(slots_ + phys + count);
    for (const char* p = base; p < stop; p += 64) __builtin_prefetch(p);
#else
    (void)phys;
    (void)count;
#endif
  }

  static T* allocate(std::size_t cap) {
    return static_cast<T*>(
        ::operator new(cap * sizeof(T), std::align_val_t(kAlign)));
  }
  static void deallocate(T* p) {
    if (p != nullptr) ::operator delete(p, std::align_val_t(kAlign));
  }

  void ensure_capacity(std::size_t need) {
    if (need <= capacity_) return;
    const std::size_t cap = std::max(
        need, std::max<std::size_t>(capacity_ * 2, 4 * Arity));
    T* fresh = allocate(cap);
    for (std::size_t k = 0; k < count_; ++k) {
      const std::size_t phys = pos_of(k);
      ::new (static_cast<void*>(fresh + phys)) T(std::move(slots_[phys]));
      slots_[phys].~T();
    }
    deallocate(slots_);
    slots_ = fresh;
    capacity_ = cap;
  }

  static constexpr std::size_t kAlign =
      alignof(T) > 64 ? alignof(T) : std::size_t{64};

  T* slots_ = nullptr;
  std::size_t count_ = 0;
  std::size_t capacity_ = 0;
  Less less_;
};

}  // namespace hcmd::util
