// Recycling allocator for the simulator's packet FIFOs.
//
// A std::deque used as a FIFO allocates a node every few push_backs and
// frees one every few pop_fronts, so a port queue that never holds more
// than a handful of packets still calls malloc once per node's worth of
// traffic. Recycling<T> keeps freed nodes on a thread-local free list (at
// most kCapacity of them) and hands them back on the next node
// allocation: a FIFO in steady state stops allocating.
//
// The allocator is stateless, so all Recycling<T> compare equal and
// containers move and swap freely. Only blocks of one deque node's size
// are recycled; other sizes, such as the deque's map (allocated through
// the rebound Recycling<T*>), pass straight through to operator new.
// The free list is per thread and per T. Each shard's
// worker thread touches only its own shard's queues, so no lock is
// needed; a node freed on a thread other than the one that allocated it
// simply joins the freeing thread's list.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>

namespace smt::sim {

template <typename T>
class Recycling {
 public:
  using value_type = T;

  /// Most free nodes kept per thread and T; more pass through to delete.
  static constexpr std::size_t kCapacity = 64;
  /// Elements per std::deque node: 512 bytes' worth, or one element if T
  /// is larger (libstdc++'s node size). A standard library with another
  /// node size still works; its nodes just pass through unrecycled.
  static constexpr std::size_t kNodeElems =
      sizeof(T) < 512 ? 512 / sizeof(T) : 1;

  Recycling() noexcept = default;
  template <typename U>
  // NOLINTNEXTLINE(google-explicit-constructor): allocator rebinding
  Recycling(const Recycling<U>&) noexcept {}

  T* allocate(std::size_t n) {
    FreeList& list = free_list();
    if (n == kNodeElems && list.head != nullptr) {
      Block* block = list.head;
      list.head = block->next;
      --list.count;
      return static_cast<T*>(static_cast<void*>(block));
    }
    return std::allocator<T>{}.allocate(n);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    FreeList& list = free_list();
    if (n == kNodeElems && list.count < kCapacity) {
      if (list.count == 0) arm_reaper();
      list.head = ::new (static_cast<void*>(p)) Block{list.head};
      ++list.count;
      return;
    }
    std::allocator<T>{}.deallocate(p, n);
  }

  friend bool operator==(const Recycling&, const Recycling&) noexcept {
    return true;
  }

 private:
  struct Block {
    Block* next;
  };
  static_assert(sizeof(T) * kNodeElems >= sizeof(Block));

  // Trivially destructible, so it stays usable while other thread-local
  // objects are destroyed at thread exit.
  struct FreeList {
    Block* head = nullptr;
    std::size_t count = 0;
  };

  static FreeList& free_list() noexcept {
    thread_local FreeList list;
    return list;
  }

  /// Returns the thread's free nodes to the heap when the thread exits.
  struct Reaper {
    Reaper() = default;
    Reaper(const Reaper&) = delete;
    Reaper& operator=(const Reaper&) = delete;
    ~Reaper() {
      FreeList& list = free_list();
      while (list.head != nullptr) {
        Block* block = list.head;
        list.head = block->next;
        std::allocator<T>{}.deallocate(
            static_cast<T*>(static_cast<void*>(block)), kNodeElems);
      }
      list.count = kCapacity;  // nodes freed later in the exit pass through
    }
  };

  /// Constructs this thread's Reaper on the first node it keeps.
  static void arm_reaper() noexcept {
    thread_local Reaper reaper;
    (void)reaper;
  }
};

/// A FIFO whose nodes come from the thread's Recycling free list.
template <typename T>
using RecyclingDeque = std::deque<T, Recycling<T>>;

}  // namespace smt::sim
