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
//   * Events live in a free-listed pool; the priority queue is an indexed
//     4-ary min-heap of 24-byte (when, seq, index) slots, so sift
//     operations move small PODs instead of whole closures, and draining
//     pops by MOVE — the old std::priority_queue engine *copied*
//     queue_.top() (a full std::function deep-copy, including any captured
//     packet payload) for every event executed.
//   * schedule() returns a TimerId and cancel() takes the event out: its
//     closure is destroyed and its pool slot recycled at once, and its
//     heap slot goes stale (the pool slot no longer carries its seq). The
//     loop pops stale slots off the top after every pop and cancel, so the
//     top is always live, and compacts the heap in O(n) once stale slots
//     outnumber live ones. A timer whose work became a no-op (an acked
//     message's backstop) therefore stops costing a pool slot.
//
// The (when, seq) FIFO tie-break contract is bit-identical to the previous
// engine: seqs are assigned at schedule time, keys are unique, so the
// surviving events run in the same order whether or not others were
// cancelled. Virtual-time results cannot change, only the wall-clock cost
// of producing them.
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

  explicit operator bool() const noexcept { return ops_ != nullptr; }

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

class EventLoop {
 public:
  using Callback = EventCallback;

  SimTime now() const noexcept { return now_; }

  /// Schedules `fn` to run `delay` nanoseconds from now (>= 0).
  TimerId schedule(SimDuration delay, Callback fn) {
    return schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(fn));
  }

  /// Schedules `fn` at an absolute virtual time (clamped to now).
  TimerId schedule_at(SimTime when, Callback fn) {
    if (when < now_) when = now_;
    const std::uint64_t seq = next_seq_++;
    std::uint32_t index;
    if (free_head_ != kNone) {
      index = free_head_;
      PooledEvent& event = pool_[index];
      free_head_ = event.next_free;
      event.fn = std::move(fn);
      event.seq = seq;
    } else {
      index = std::uint32_t(pool_.size());
      pool_.emplace_back(PooledEvent{std::move(fn), seq, kNone});
    }
    heap_.push_back(HeapSlot{when, seq, index});
    sift_up(heap_.size() - 1);
    high_water_ = std::max(high_water_, pending());
    return TimerId{index, seq};
  }

  /// Ensures the event `id` never runs. Its closure (and everything it
  /// captured) is destroyed before cancel returns. A handle whose event
  /// already ran or was already cancelled is a no-op, as is a default
  /// TimerId. Cancelling never reorders the events that remain.
  void cancel(TimerId id) {
    if (id.index >= pool_.size() || pool_[id.index].seq != id.seq) return;
    // Destroyed on return, after the bookkeeping: a capture whose
    // destructor schedules or cancels sees a consistent loop.
    const Callback doomed = std::move(pool_[id.index].fn);
    release(id.index);
    ++stale_;
    drop_stale_top();
    if (stale_ > heap_.size() - stale_) compact();
  }

  /// Runs events until the queue drains or `deadline` passes.
  /// Returns the number of events executed.
  std::size_t run_until(SimTime deadline) {
    std::size_t executed = 0;
    while (!heap_.empty() && heap_.front().when <= deadline && !stopped_) {
      run_top();
      ++executed;
    }
    if (now_ < deadline && !stopped_) now_ = deadline;
    return executed;
  }

  /// Runs until the queue is empty (or stop() is called).
  std::size_t run() {
    std::size_t executed = 0;
    while (!heap_.empty() && !stopped_) {
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
    return heap_.empty() ? kNoEvent : heap_.front().when;
  }

  /// Runs every event with `when` STRICTLY before `horizon`, then stops.
  /// Unlike run_until, now() is NOT advanced to the horizon: it stays at
  /// the last executed event, so a cross-shard arrival scheduled later for
  /// any time >= horizon is never clamped forward. This is the per-window
  /// drive of the sharded engine (see netsim/shard.hpp); single-threaded
  /// callers keep using run()/run_until, whose behaviour is unchanged.
  std::size_t run_ready_before(SimTime horizon) {
    std::size_t executed = 0;
    while (!heap_.empty() && heap_.front().when < horizon && !stopped_) {
      run_top();
      ++executed;
    }
    return executed;
  }

  /// Stops the loop from inside a callback.
  void stop() noexcept { stopped_ = true; }
  bool stopped() const noexcept { return stopped_; }
  void reset_stop() noexcept { stopped_ = false; }

  /// Pending events, cancelled ones excluded.
  bool empty() const noexcept { return pending() == 0; }
  std::size_t pending() const noexcept { return heap_.size() - stale_; }
  /// The most events ever pending at once (cancelled ones excluded): the
  /// size the callback pool grew to.
  std::size_t pending_high_water() const noexcept { return high_water_; }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr std::uint64_t kFreeSeq =
      std::numeric_limits<std::uint64_t>::max();

  /// Sift keys: 24-byte PODs ordered by (when, seq); the closure stays put
  /// in the pool while the heap rearranges. A slot is stale (its event was
  /// cancelled) when its pool slot no longer carries its seq.
  struct HeapSlot {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t index;
  };
  struct PooledEvent {
    Callback fn;
    std::uint64_t seq = kFreeSeq;  // the queued event's seq; kFreeSeq if none
    std::uint32_t next_free = kNone;
  };

  static bool earlier(const HeapSlot& a, const HeapSlot& b) noexcept {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;  // FIFO among same-time events
  }

  bool live(const HeapSlot& slot) const noexcept {
    return pool_[slot.index].seq == slot.seq;
  }

  /// Returns a pool slot (whose closure was moved out) to the free list.
  void release(std::uint32_t index) noexcept {
    pool_[index].seq = kFreeSeq;
    pool_[index].next_free = free_head_;
    free_head_ = index;
  }

  /// Pops and runs the earliest event. The callback is moved out (never
  /// copied) and its pool slot is recycled before it runs, so a callback
  /// that schedules new events reuses the hottest slot, and a callback
  /// that cancels its own TimerId is a no-op.
  void run_top() {
    const HeapSlot top = heap_.front();
    Callback fn = std::move(pool_[top.index].fn);
    release(top.index);
    pop_top();
    drop_stale_top();
    now_ = top.when;
    fn();
  }

  void pop_top() {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
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
      sift_down(pos);
    }
  }

  void sift_up(std::size_t pos) {
    HeapSlot moving = heap_[pos];
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 4;
      if (!earlier(moving, heap_[parent])) break;
      heap_[pos] = heap_[parent];
      pos = parent;
    }
    heap_[pos] = moving;
  }

  void sift_down(std::size_t pos) {
    const std::size_t size = heap_.size();
    HeapSlot moving = heap_[pos];
    for (;;) {
      const std::size_t first_child = 4 * pos + 1;
      if (first_child >= size) break;
      std::size_t best = first_child;
      const std::size_t last_child = std::min(first_child + 4, size);
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      if (!earlier(heap_[best], moving)) break;
      heap_[pos] = heap_[best];
      pos = best;
    }
    heap_[pos] = moving;
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  bool stopped_ = false;
  std::vector<HeapSlot> heap_;     // live slots, plus stale_ cancelled ones
  std::size_t stale_ = 0;
  std::size_t high_water_ = 0;
  std::vector<PooledEvent> pool_;  // free-listed closure storage
  std::uint32_t free_head_ = kNone;
};

/// Schedules a callback onto ANOTHER shard's event loop at an absolute
/// virtual time — a cross-shard mailbox post (netsim/shard.hpp). A link
/// direction or switch egress port wired with one of these delivers into
/// the remote shard's mailbox instead of scheduling locally; the stamped
/// time must respect the engine's lookahead contract.
using RemoteScheduler = std::function<void(SimTime when, EventCallback fn)>;

}  // namespace smt::sim
