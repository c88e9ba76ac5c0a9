// Message-ID uniqueness enforcement (paper §4.4.1 / §6.1
// "Non-replayability").
//
// Per-message record sequence spaces mean *relative* record numbers repeat
// across messages, so replay defence rests on message-ID uniqueness within
// the secure session. The receiver discards any message ID it has already
// accepted — without decrypting it, like TCP drops past sequence numbers.
//
// Senders allocate IDs monotonically, so the filter keeps a compact
// low-water mark plus the sparse set of out-of-order IDs above it; memory
// stays bounded no matter how many messages a session carries. The sparse
// set is a sorted vector: it holds the few IDs that overtook an earlier
// one, so a node per ID would cost an allocation per reordered message.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace smt::proto {

class MessageIdFilter {
 public:
  /// Returns true if `msg_id` is fresh (and records it); false on replay.
  bool accept(std::uint64_t msg_id) {
    if (msg_id < next_expected_) return false;  // already covered
    if (msg_id == next_expected_) {
      ++next_expected_;
      // Fold in any contiguous run waiting in the sparse set.
      auto it = above_.begin();
      while (it != above_.end() && *it == next_expected_) {
        ++next_expected_;
        ++it;
      }
      above_.erase(above_.begin(), it);
      return true;
    }
    const auto it = std::lower_bound(above_.begin(), above_.end(), msg_id);
    if (it != above_.end() && *it == msg_id) return false;
    above_.insert(it, msg_id);
    return true;
  }

  /// True if the ID has been seen (without recording anything).
  bool seen(std::uint64_t msg_id) const {
    return msg_id < next_expected_ ||
           std::binary_search(above_.begin(), above_.end(), msg_id);
  }

  /// All IDs below this are known-seen.
  std::uint64_t low_water_mark() const noexcept { return next_expected_; }

  /// Sparse out-of-order entries currently held (memory diagnostics).
  std::size_t sparse_size() const noexcept { return above_.size(); }

  /// A key change (session resumption) resets the ID space (§4.5.2).
  void reset() {
    next_expected_ = 0;
    above_.clear();
  }

 private:
  std::uint64_t next_expected_ = 0;
  std::vector<std::uint64_t> above_;  // ascending, all > next_expected_
};

}  // namespace smt::proto
