// Homa's completed-message dedup window (§4.3): the identities of recently
// delivered messages, so a spurious retransmission of one is dropped
// instead of being reassembled and delivered again.
//
// One flat structure replaces a node-per-entry hash set plus an order
// queue:
//
//   * a ring of (completion time, key) in completion order, so the expired
//     entries are always a prefix and the oldest entry is the one evicted
//     at the count bound. It grows by doubling up to `limit` entries, so an
//     endpoint that completes few messages holds a small ring;
//   * an open-addressed index of ring positions (uint16_t, at least twice
//     the ring's capacity, linear probing), kept exact by backward-shift
//     deletion, so a lookup never walks a tombstone.
//
// Nothing is allocated per entry; growth reallocates both arrays.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/hash.hpp"
#include "common/time.hpp"

namespace smt::transport {

template <class Key>
class DedupWindow {
 public:
  /// `limit` is the most entries the window holds; a push at the limit
  /// evicts the oldest.
  explicit DedupWindow(std::size_t limit) : limit_(limit) {
    assert(limit > 0 && limit < kEmpty && "ring positions must fit uint16_t");
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return ring_.size(); }

  bool contains(const Key& key) const noexcept {
    if (size_ == 0) return false;
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      if (index_[i] == kEmpty) return false;
      if (ring_[index_[i]].key == key) return true;
    }
  }

  /// Drops, oldest first, every entry completed before `cutoff`.
  void drop_before(SimTime cutoff) noexcept {
    while (size_ > 0 && ring_[head_].when < cutoff) pop_oldest();
  }

  /// Records `key` as completed at `when`, which must not precede the
  /// newest entry's time. `key` must not be in the window. At the limit the
  /// oldest entry makes room.
  void push(SimTime when, const Key& key) {
    assert(!contains(key) && "a key is in the window at most once");
    assert((size_ == 0 || when >= newest().when) && "pushes in time order");
    if (size_ == ring_.size()) {
      if (ring_.size() < limit_) {
        grow();
      } else {
        pop_oldest();
      }
    }
    std::size_t pos = head_ + size_;
    if (pos >= ring_.size()) pos -= ring_.size();
    ring_[pos] = Entry{when, key};
    ++size_;
    std::size_t i = home(key);
    while (index_[i] != kEmpty) i = (i + 1) & mask();
    index_[i] = std::uint16_t(pos);
  }

  /// Empties the window; it keeps its capacity.
  void clear() noexcept {
    std::fill(index_.begin(), index_.end(), kEmpty);
    head_ = 0;
    size_ = 0;
  }

 private:
  struct Entry {
    SimTime when = 0;
    Key key{};
  };

  static constexpr std::uint16_t kEmpty = 0xffff;
  static constexpr std::size_t kMinCapacity = 16;

  std::size_t mask() const noexcept { return index_.size() - 1; }
  std::size_t home(const Key& key) const noexcept {
    return TableHash{}(key) & mask();
  }
  const Entry& newest() const noexcept {
    std::size_t pos = head_ + size_ - 1;
    if (pos >= ring_.size()) pos -= ring_.size();
    return ring_[pos];
  }

  void pop_oldest() noexcept {
    // Find the index slot that points at the head, then close the gap:
    // each later entry of the probe run moves back into the hole unless
    // its home lies cyclically after the hole.
    std::size_t hole = home(ring_[head_].key);
    while (index_[hole] != head_) hole = (hole + 1) & mask();
    for (std::size_t next = (hole + 1) & mask(); index_[next] != kEmpty;
         next = (next + 1) & mask()) {
      const std::size_t want = home(ring_[index_[next]].key);
      if (((next - want) & mask()) >= ((next - hole) & mask())) {
        index_[hole] = index_[next];
        hole = next;
      }
    }
    index_[hole] = kEmpty;
    if (++head_ == ring_.size()) head_ = 0;
    --size_;
  }

  void grow() {
    const std::size_t capacity =
        std::min(limit_, std::max(kMinCapacity, 2 * ring_.size()));
    std::vector<Entry> ring(capacity);
    for (std::size_t n = 0; n < size_; ++n) {
      std::size_t pos = head_ + n;
      if (pos >= ring_.size()) pos -= ring_.size();
      ring[n] = ring_[pos];
    }
    ring_ = std::move(ring);
    head_ = 0;
    index_.assign(std::bit_ceil(2 * capacity), kEmpty);
    for (std::size_t pos = 0; pos < size_; ++pos) {
      std::size_t i = home(ring_[pos].key);
      while (index_[i] != kEmpty) i = (i + 1) & mask();
      index_[i] = std::uint16_t(pos);
    }
  }

  std::size_t limit_;
  std::vector<Entry> ring_;             // capacity() slots, oldest at head_
  std::vector<std::uint16_t> index_;    // ring positions, kEmpty if free
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace smt::transport
