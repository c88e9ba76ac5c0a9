// Deterministic discrete-event loop with a virtual nanosecond clock.
//
// Single-threaded by design: determinism is what lets every bench and test
// reproduce bit-for-bit (DESIGN.md "Determinism"). Ties are broken by
// insertion order, so identical schedules replay identically.
//
// The engine is built for wall-clock speed — the simulator schedules one
// event per packet hop, CPU charge, and timer, so the per-event constant
// is the simulator's own throughput ceiling:
//
//   * EventCallback is a move-only callable with a 128-byte small-buffer
//     store; larger captures fall back to one heap cell per scheduled
//     event. A Packet is 104 bytes, so a closure carrying one has 24 bytes
//     left for everything else it captures. Switch forwarding (this, port
//     index, fault jitter, packet) uses exactly 128; link delivery and
//     switch remote egress are smaller. The static_assert after Packet in
//     netsim/packet.hpp holds that budget, and
//     tests/netsim/datapath_alloc_test.cpp checks each hop makes no
//     allocation.
//   * Events live in a free-listed pool. The priority queue is an indexed
//     4-ary min-heap of (key, index) slots ordered by one unsigned 128-bit
//     key, (when << 64) | seq, so each sift level picks the least of four
//     children with three compares and no two-field branch. Sifts move
//     small PODs instead of whole closures, and draining pops by MOVE.
//   * Lanes: a resource whose events are already in time order (a CPU
//     core's run queue, a link direction, a switch port's cable run, a
//     fixed-delay timer) schedules on its own LaneId. A lane is a FIFO
//     linked through the pool (PooledEvent::next/prev, no allocation), and
//     only its front has a heap slot, so the heap holds one slot per busy
//     resource instead of one per pending event. Running a lane's front
//     hands its heap slot to the event behind it: one sift_down instead of
//     a pop and a push. A time earlier than the lane's last event would
//     break the lane's order, so that event takes a heap slot of its own.
//   * schedule() returns a TimerId and cancel() takes the event out: its
//     closure is destroyed and its pool slot recycled at once. An event
//     behind its lane's front just leaves the list. A heap slot goes stale
//     (the pool slot no longer carries its seq); a cancelled lane front
//     leaves its slot stale and gives the next event in the lane a slot.
//     The loop pops stale slots off the top after every pop and cancel, so
//     the top is always live, and compacts the heap in O(n) once stale
//     slots outnumber live ones. A timer whose work became a no-op (an
//     acked message's backstop) therefore stops costing a pool slot.
//
// The (when, seq) FIFO tie-break contract is bit-identical to the previous
// engines: seqs are assigned at schedule time and keys are unique. Each
// lane is sorted by (when, seq) and its front is its least key, so the heap
// top is the least pending key whether an event sits in a lane or in the
// heap, and the surviving events run in the same order whether or not
// others were cancelled. Virtual-time results cannot change, only the
// wall-clock cost of producing them; EventLoop::digest() proves the
// schedule itself is unchanged.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/time.hpp"

namespace smt::sim {

/// Move-only type-erased void() callable with small-buffer optimisation.
/// Captures up to kInlineCapacity bytes (and max_align_t alignment, and a
/// noexcept move) are stored in line — no allocation per scheduled event.
class EventCallback {
 public:
  static constexpr std::size_t kInlineCapacity = 128;

  EventCallback() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventCallback(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Decayed = std::decay_t<F>;
    if constexpr (fits_inline<Decayed>()) {
      ::new (static_cast<void*>(storage_)) Decayed(std::forward<F>(fn));
      ops_ = &inline_ops<Decayed>;
    } else {
      ::new (static_cast<void*>(storage_))
          Decayed*(new Decayed(std::forward<F>(fn)));
      ops_ = &heap_ops<Decayed>;
    }
  }

  EventCallback(EventCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.storage_, storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { reset(); }

  void operator()() {
    assert(ops_ != nullptr && "invoking an empty EventCallback");
    ops_->invoke(storage_);
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-construct into `dst` from `src`, then destroy `src`'s value.
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename F>
  static constexpr bool fits_inline() {
    return sizeof(F) <= kInlineCapacity &&
           alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

  template <typename F>
  static constexpr Ops inline_ops = {
      [](void* storage) { (*static_cast<F*>(storage))(); },
      [](void* src, void* dst) noexcept {
        F* from = static_cast<F*>(src);
        ::new (dst) F(std::move(*from));
        from->~F();
      },
      [](void* storage) noexcept { static_cast<F*>(storage)->~F(); },
  };

  template <typename F>
  static constexpr Ops heap_ops = {
      [](void* storage) { (**static_cast<F**>(storage))(); },
      [](void* src, void* dst) noexcept {
        ::new (dst) F*(*static_cast<F**>(src));
      },
      [](void* storage) noexcept { delete *static_cast<F**>(storage); },
  };

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

/// Handle to one scheduled event, for EventLoop::cancel. `seq` is the
/// event's generation: the loop never reuses a seq, so a handle whose event
/// already ran or was cancelled can never name a later event in the same
/// pool slot. A default-constructed TimerId names no event.
struct TimerId {
  std::uint32_t index = 0xffffffffu;
  std::uint64_t seq = 0;
};

/// A FIFO of events that one resource (a core's run queue, a link
/// direction, a fixed-delay timer) schedules in non-decreasing time; see
/// EventLoop::new_lane. A default-constructed LaneId names no lane.
struct LaneId {
  std::uint32_t index = 0xffffffffu;
};

class EventLoop {
 public:
  using Callback = EventCallback;

  SimTime now() const noexcept { return now_; }

  /// Schedules `fn` to run `delay` nanoseconds from now (>= 0).
  TimerId schedule(SimDuration delay, Callback&& fn) {
    return schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(fn));
  }

  /// Schedules `fn` at an absolute virtual time (clamped to now).
  TimerId schedule_at(SimTime when, Callback&& fn) {
    if (when < now_) when = now_;
    const std::uint64_t seq = next_seq_++;
    const std::uint32_t index = allocate(when, seq, std::move(fn));
    push(index);
    note_scheduled();
    return TimerId{index, seq};
  }

  /// A new, empty lane. Lanes are made while a world is built (one per
  /// resource) and live as long as the loop.
  LaneId new_lane() {
    lanes_.push_back(Lane{});
    return LaneId{std::uint32_t(lanes_.size() - 1)};
  }

  /// Schedules `fn` on `lane`, `delay` nanoseconds from now (>= 0).
  TimerId schedule(LaneId lane, SimDuration delay, Callback&& fn) {
    return schedule_at(lane, now_ + (delay < 0 ? 0 : delay), std::move(fn));
  }

  /// Schedules `fn` at `when` (clamped to now) on `lane`: behind the lane's
  /// last event, without a heap slot of its own. The event runs exactly
  /// when schedule_at(when, fn) would have run it. A time earlier than the
  /// lane's last event would break the lane's order, so that event takes
  /// a heap slot instead, as schedule_at(when, fn).
  TimerId schedule_at(LaneId lane, SimTime when, Callback&& fn) {
    assert(lane.index < lanes_.size() && "a lane from this loop's new_lane");
    if (when < now_) when = now_;
    Lane& queue = lanes_[lane.index];
    if (queue.tail != kNone && when < pool_[queue.tail].when) {
      return schedule_at(when, std::move(fn));
    }
    const std::uint64_t seq = next_seq_++;
    const std::uint32_t index = allocate(when, seq, std::move(fn));
    PooledEvent& event = pool_[index];
    event.lane = lane.index;
    event.prev = queue.tail;
    if (queue.tail == kNone) {
      queue.head = index;
      push(index);
    } else {
      pool_[queue.tail].next = index;
    }
    queue.tail = index;
    note_scheduled();
    return TimerId{index, seq};
  }

  /// Ensures the event `id` never runs. Its closure (and everything it
  /// captured) is destroyed before cancel returns. A handle whose event
  /// already ran or was already cancelled is a no-op, as is a default
  /// TimerId. Cancelling never reorders the events that remain.
  void cancel(TimerId id) {
    if (!scheduled(id)) return;
    PooledEvent& event = pool_[id.index];
    // Destroyed on return, after the bookkeeping: a capture whose
    // destructor schedules or cancels sees a consistent loop.
    const Callback doomed = std::move(event.fn);
    --live_;
    // Only a heap event or a lane's front has a heap slot; an event
    // further back in its lane just leaves the list.
    bool had_slot = true;
    std::uint32_t successor = kNone;
    if (event.lane != kNone) {
      Lane& queue = lanes_[event.lane];
      had_slot = queue.head == id.index;
      if (had_slot) successor = event.next;
      (event.prev == kNone ? queue.head : pool_[event.prev].next) = event.next;
      (event.next == kNone ? queue.tail : pool_[event.next].prev) = event.prev;
    }
    release(id.index);
    if (!had_slot) return;
    ++stale_;
    if (successor != kNone) push(successor);
    drop_stale_top();
    if (stale_ > heap_.size() - stale_) compact();
  }

  /// True while the event `id` is pending: it has neither run nor been
  /// cancelled. False inside the event's own callback (its pool slot is
  /// released before the callback runs) and for a default TimerId. This
  /// is the only record of whether a timer is pending; keep no flag
  /// beside a TimerId.
  bool scheduled(TimerId id) const noexcept {
    return id.index < pool_.size() && pool_[id.index].seq == id.seq;
  }

  /// Runs every event at or before `deadline`, then advances now() to
  /// `deadline`. Returns the number of events executed.
  std::size_t run_until(SimTime deadline) {
    const std::size_t executed =
        deadline == kNoEvent ? run() : run_ready_before(deadline + 1);
    if (now_ < deadline) now_ = deadline;
    return executed;
  }

  /// Runs until the queue is empty.
  std::size_t run() {
    std::size_t executed = 0;
    while (!heap_.empty()) {
      run_top();
      ++executed;
    }
    return executed;
  }

  /// Sentinel returned by earliest() when no events are pending.
  static constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::max();

  /// Timestamp of the earliest pending (not cancelled) event, or kNoEvent.
  /// The sharded engine's coordinator uses this to pick each barrier
  /// window's floor.
  SimTime earliest() const noexcept {
    return heap_.empty() ? kNoEvent : when_of(heap_.front().key);
  }

  /// Runs every event with `when` STRICTLY before `horizon`, then stops.
  /// Unlike run_until, now() is NOT advanced to the horizon: it stays at
  /// the last executed event, so a cross-shard arrival scheduled later for
  /// any time >= horizon is never clamped forward. This is the per-window
  /// drive of the sharded engine (see netsim/shard.hpp), and run_until's.
  std::size_t run_ready_before(SimTime horizon) {
    std::size_t executed = 0;
    while (!heap_.empty() && when_of(heap_.front().key) < horizon) {
      run_top();
      ++executed;
    }
    return executed;
  }

  /// Pending events, cancelled ones excluded.
  bool empty() const noexcept { return live_ == 0; }
  std::size_t pending() const noexcept { return live_; }
  /// The most events ever pending at once (cancelled ones excluded): the
  /// size the callback pool grew to.
  std::size_t pending_high_water() const noexcept { return high_water_; }

  /// Running hash of every executed event's (when, seq), in execution
  /// order. Two runs with equal digests ran the same schedule, which is
  /// stronger than equal outputs (docs/determinism.md "Event ordering").
  std::uint64_t digest() const noexcept { return digest_; }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr std::uint64_t kFreeSeq =
      std::numeric_limits<std::uint64_t>::max();

  /// (when << 64) | seq: one unsigned compare orders events by time, then
  /// FIFO among same-time events. Times are never negative.
  using Key = unsigned __int128;
  static Key key_of(SimTime when, std::uint64_t seq) noexcept {
    return Key(std::uint64_t(when)) << 64 | seq;
  }
  static SimTime when_of(Key key) noexcept { return SimTime(key >> 64); }
  static std::uint64_t seq_of(Key key) noexcept {
    return std::uint64_t(key);
  }

  /// Sift entries: the closure stays put in the pool while the heap
  /// rearranges. A slot is stale (its event was cancelled) when its pool
  /// slot no longer carries its seq.
  struct HeapSlot {
    Key key;
    std::uint32_t index;
  };
  struct PooledEvent {
    Callback fn;
    SimTime when = 0;
    std::uint64_t seq = kFreeSeq;  // the queued event's seq; kFreeSeq if none
    std::uint32_t next = kNone;    // the free list's, or the lane's, next
    std::uint32_t prev = kNone;    // the lane's previous event
    std::uint32_t lane = kNone;    // kNone: a heap event
  };
  /// A lane's events in (when, seq) order, linked through the pool. Only
  /// the head has a heap slot.
  struct Lane {
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
  };

  bool live(const HeapSlot& slot) const noexcept {
    return pool_[slot.index].seq == seq_of(slot.key);
  }

  /// A pool slot holding `fn`, off the free list when it can be.
  std::uint32_t allocate(SimTime when, std::uint64_t seq, Callback&& fn) {
    std::uint32_t index;
    if (free_head_ != kNone) {
      index = free_head_;
      PooledEvent& event = pool_[index];
      free_head_ = event.next;
      event.fn = std::move(fn);
      event.when = when;
      event.seq = seq;
      event.next = kNone;
      event.prev = kNone;
      event.lane = kNone;
    } else {
      index = std::uint32_t(pool_.size());
      pool_.emplace_back(PooledEvent{std::move(fn), when, seq});
    }
    return index;
  }

  void note_scheduled() noexcept {
    ++live_;
    high_water_ = std::max(high_water_, live_);
  }

  /// Returns a pool slot (whose closure was moved out) to the free list.
  void release(std::uint32_t index) noexcept {
    pool_[index].seq = kFreeSeq;
    pool_[index].next = free_head_;
    free_head_ = index;
  }

  /// Gives the pool event `index` a heap slot.
  void push(std::uint32_t index) {
    heap_.emplace_back();
    sift_up(heap_.size() - 1,
            HeapSlot{key_of(pool_[index].when, pool_[index].seq), index});
  }

  /// Pops and runs the earliest event. The callback is moved out (never
  /// copied) and its pool slot is recycled before it runs, so a callback
  /// that schedules new events reuses the hottest slot, and a callback
  /// that cancels its own TimerId is a no-op. A lane's front hands its
  /// heap slot to the event behind it: one sift instead of a pop and a
  /// push.
  void run_top() {
    const Key top_key = heap_.front().key;
    const std::uint32_t top_index = heap_.front().index;
    PooledEvent& event = pool_[top_index];
    Callback fn = std::move(event.fn);
    std::uint32_t successor = kNone;
    if (event.lane != kNone) {
      Lane& queue = lanes_[event.lane];
      successor = event.next;
      queue.head = successor;
      if (successor == kNone) queue.tail = kNone;
    }
    release(top_index);
    if (successor != kNone) {
      PooledEvent& next = pool_[successor];
      next.prev = kNone;
      sift_down(0, HeapSlot{key_of(next.when, next.seq), successor});
    } else {
      pop_top();
    }
    --live_;
    drop_stale_top();
    now_ = when_of(top_key);
    digest_ = mix64(digest_ ^ std::uint64_t(now_)) + seq_of(top_key);
    fn();
  }

  void pop_top() {
    const HeapSlot last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
  }

  /// Keeps the top live, so earliest() and the run loops never see a
  /// cancelled event.
  void drop_stale_top() {
    while (stale_ > 0 && !live(heap_.front())) {
      pop_top();
      --stale_;
    }
  }

  /// Drops every stale slot and rebuilds the heap bottom-up in O(n). Keys
  /// are unique, so the pop order depends only on the set of live keys.
  void compact() {
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [this](const HeapSlot& s) { return !live(s); }),
                heap_.end());
    stale_ = 0;
    if (heap_.size() < 2) return;
    for (std::size_t pos = (heap_.size() - 2) / 4 + 1; pos-- > 0;) {
      sift_down(pos, heap_[pos]);
    }
  }

  /// The sifts take the moving slot by value, so a slot built in
  /// registers is never stored and read straight back.
  void sift_up(std::size_t pos, const HeapSlot moving) {
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 4;
      if (!(moving.key < heap_[parent].key)) break;
      heap_[pos] = heap_[parent];
      pos = parent;
    }
    heap_[pos] = moving;
  }

  void sift_down(std::size_t pos, const HeapSlot moving) {
    HeapSlot* const heap = heap_.data();
    const std::size_t size = heap_.size();
    for (;;) {
      const std::size_t first = 4 * pos + 1;
      std::size_t best;
      Key best_key;
      if (first + 4 <= size) {
        // Least of four without a branch per child: two pairwise picks,
        // then the lesser of the two.
        const Key k0 = heap[first].key, k1 = heap[first + 1].key;
        const Key k2 = heap[first + 2].key, k3 = heap[first + 3].key;
        const bool right01 = k1 < k0, right23 = k3 < k2;
        const Key low01 = right01 ? k1 : k0, low23 = right23 ? k3 : k2;
        // Masks, not a conditional: GCC turns `right ? ... : ...` over
        // the index and the key into a branch, mispredicted half the time.
        const bool right = low23 < low01;
        const std::size_t off01 = std::size_t(right01);
        const std::size_t off23 = 2 + std::size_t(right23);
        best = first + (off01 ^ ((off01 ^ off23) & -std::size_t(right)));
        best_key = low01 ^ ((low01 ^ low23) & -Key(right));
      } else {
        if (first >= size) break;
        best = first;
        best_key = heap[first].key;
        for (std::size_t c = first + 1; c < size; ++c) {
          if (heap[c].key < best_key) {
            best = c;
            best_key = heap[c].key;
          }
        }
      }
      if (!(best_key < moving.key)) break;
      heap[pos] = heap[best];
      pos = best;
    }
    heap[pos] = moving;
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<HeapSlot> heap_;     // live slots, plus stale_ cancelled ones
  std::size_t stale_ = 0;
  std::size_t live_ = 0;           // pending events, cancelled ones excluded
  std::size_t high_water_ = 0;
  std::uint64_t digest_ = 0;
  std::vector<PooledEvent> pool_;  // free-listed closure storage
  std::uint32_t free_head_ = kNone;
  std::vector<Lane> lanes_;
};

/// Schedules a callback onto ANOTHER shard's event loop at an absolute
/// virtual time — a cross-shard mailbox post (netsim/shard.hpp). A link
/// direction or switch egress port wired with one of these delivers into
/// the remote shard's mailbox instead of scheduling locally; the stamped
/// time must respect the engine's lookahead contract.
using RemoteScheduler = std::function<void(SimTime when, EventCallback fn)>;

}  // namespace smt::sim
