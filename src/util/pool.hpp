// Pooled immutable payloads behind an 8-byte refcounted handle.
//
// Message payloads travel the simulator inside std::any. libstdc++'s any
// stores a type inline only up to sizeof(void*) = 8 bytes; anything larger
// — a 16-byte shared_ptr included — goes through _Manager_external and
// heap-allocates on every any construction and copy, once per hop on the
// dissemination fan-out. RcPtr is an 8-byte intrusive-refcount handle that
// stays inside the any's inline buffer, so a fan-out copy is one pointer
// store plus one refcount increment: no heap traffic at all.
//
// RcPool owns the backing storage: make() constructs the payload into a
// {refcount, pool, T} block drawn from a free list, and the last RcPtr to
// drop returns the block there — steady-state payload churn costs no
// allocation.
//
// Threading contract: the pool is single-writer. make(), recycle() and
// release() run on the thread that drives the simulator, and so does the
// last drop of every handle. The refcount is nevertheless atomic (relaxed
// increments, acquire/release on the final decrement — the shared_ptr
// discipline); on one thread that costs an uncontended atomic op.
//
// Lifetime contract: the pool must outlive every handle it produced —
// declare it before (i.e. destroy it after) the subsystems that can hold
// payloads. release() between bench cells frees only the cached blocks;
// live handles are unaffected and recycle into the emptied list as they
// drop.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace geomcast::util {

template <typename T>
class RcPtr;

template <typename T>
class RcPool {
 public:
  RcPool() = default;
  RcPool(const RcPool&) = delete;
  RcPool& operator=(const RcPool&) = delete;
  ~RcPool() { release(); }

  /// Constructs a T from `args` in a pooled block and hands back the first
  /// reference to it. The payload is immutable through the handle.
  template <typename... Args>
  [[nodiscard]] RcPtr<T> make(Args&&... args);

  /// Frees the cached blocks (pool reset between bench cells). Handles
  /// still alive are unaffected; their blocks rejoin the free list when
  /// the last reference drops.
  void release() {
    for (void* block : free_) ::operator delete(block);
    free_.clear();
  }

  /// Blocks sitting in the free list.
  [[nodiscard]] std::size_t cached() const noexcept { return free_.size(); }
  /// Blocks ever drawn from operator new — the pool's high-water mark.
  [[nodiscard]] std::size_t allocated() const noexcept { return allocated_; }

 private:
  friend class RcPtr<T>;

  struct Box {
    std::atomic<std::size_t> count;
    RcPool* pool;
    T value;
  };

  void recycle(Box* box) noexcept {
    box->~Box();
    free_.push_back(box);
  }

  std::vector<void*> free_;
  std::size_t allocated_ = 0;
};

/// Shared read-only handle to a pooled T. Exactly one pointer wide, so it
/// rides std::any's inline storage; copying bumps the atomic count.
template <typename T>
class RcPtr {
 public:
  RcPtr() = default;
  RcPtr(const RcPtr& other) noexcept : box_(other.box_) {
    if (box_ != nullptr)
      box_->count.fetch_add(1, std::memory_order_relaxed);
  }
  RcPtr(RcPtr&& other) noexcept : box_(std::exchange(other.box_, nullptr)) {}
  RcPtr& operator=(RcPtr other) noexcept {
    std::swap(box_, other.box_);
    return *this;
  }
  ~RcPtr() {
    if (box_ == nullptr) return;
    if (box_->count.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    box_->pool->recycle(box_);
  }

  [[nodiscard]] const T& operator*() const noexcept { return box_->value; }
  [[nodiscard]] const T* operator->() const noexcept { return &box_->value; }
  [[nodiscard]] explicit operator bool() const noexcept { return box_ != nullptr; }

 private:
  friend class RcPool<T>;
  explicit RcPtr(typename RcPool<T>::Box* box) noexcept : box_(box) {}

  typename RcPool<T>::Box* box_ = nullptr;
};

/// Recycling arena behind FreeListAllocator: caches blocks of one size
/// (the first single-object size requested — a node-based container's node
/// size) and passes everything else through to the global heap.
class FreeListArena {
 public:
  FreeListArena() = default;
  FreeListArena(const FreeListArena&) = delete;
  FreeListArena& operator=(const FreeListArena&) = delete;
  ~FreeListArena() {
    for (void* block : free_) ::operator delete(block);
  }

  [[nodiscard]] void* take(std::size_t size) {
    if (block_size_ == 0) block_size_ = size;
    if (size == block_size_ && !free_.empty()) {
      void* block = free_.back();
      free_.pop_back();
      return block;
    }
    return ::operator new(size);
  }

  void put(void* block, std::size_t size) noexcept {
    if (size == block_size_) {
      free_.push_back(block);
      return;
    }
    ::operator delete(block);
  }

 private:
  std::vector<void*> free_;
  std::size_t block_size_ = 0;
};

/// Allocator for node-based containers on hot paths (e.g. the hop layer's
/// pending table): single-object allocations — the per-element nodes —
/// recycle through a FreeListArena shared by every rebound copy, so
/// steady-state insert/erase churn costs no heap traffic. Array
/// allocations (hash bucket tables) pass through untouched.
template <typename T>
class FreeListAllocator {
 public:
  using value_type = T;

  FreeListAllocator() : arena_(std::make_shared<FreeListArena>()) {}
  template <typename U>
  FreeListAllocator(const FreeListAllocator<U>& other) noexcept
      : arena_(other.arena()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n == 1) return static_cast<T*>(arena_->take(sizeof(T)));
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (n == 1) {
      arena_->put(p, sizeof(T));
      return;
    }
    ::operator delete(p);
  }

  template <typename U>
  [[nodiscard]] bool operator==(const FreeListAllocator<U>& other) const noexcept {
    return arena_ == other.arena();
  }
  [[nodiscard]] const std::shared_ptr<FreeListArena>& arena() const noexcept {
    return arena_;
  }

 private:
  std::shared_ptr<FreeListArena> arena_;
};

template <typename T>
template <typename... Args>
RcPtr<T> RcPool<T>::make(Args&&... args) {
  void* raw;
  if (!free_.empty()) {
    raw = free_.back();
    free_.pop_back();
  } else {
    ++allocated_;
    raw = ::operator new(sizeof(Box));
  }
  return RcPtr<T>{new (raw) Box{1, this, T{std::forward<Args>(args)...}}};
}

}  // namespace geomcast::util
