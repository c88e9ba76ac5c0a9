// DedupWindow against a reference model of the window it replaced: an
// ordered set of keys plus a deque of (completion time, key), where a
// completion inserts and then prunes by time and count, and a data packet
// prunes by time before its lookup.
#include "transport/homa/dedup_window.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <set>

#include "transport/homa/homa.hpp"

namespace smt::transport {
namespace {

using Key = std::pair<PeerAddr, std::uint64_t>;
constexpr SimDuration kRetention = msec(30);

class ReferenceWindow {
 public:
  explicit ReferenceWindow(std::size_t limit) : limit_(limit) {}

  void complete(SimTime now, const Key& key) {
    keys_.insert(key);
    order_.emplace_back(now, key);
    prune(now);
  }
  void prune(SimTime now) {
    while (!order_.empty() && (order_.front().first + kRetention < now ||
                               order_.size() > limit_)) {
      keys_.erase(order_.front().second);
      order_.pop_front();
    }
  }
  void clear() {
    keys_.clear();
    order_.clear();
  }
  bool contains(const Key& key) const { return keys_.count(key) > 0; }
  std::size_t size() const { return order_.size(); }

 private:
  std::size_t limit_;
  std::set<Key> keys_;
  std::deque<std::pair<SimTime, Key>> order_;
};

/// The window the way HomaEndpoint drives it.
void complete(DedupWindow<Key>& window, SimTime now, const Key& key) {
  window.drop_before(now - kRetention);
  window.push(now, key);
}

Key random_key(std::mt19937_64& rng) {
  // Few peers and a narrow id range, so keys recur after they leave the
  // window and many share a home slot.
  const std::uint32_t ip = std::uint32_t(rng() % 4) + 1;
  return Key{PeerAddr{ip, std::uint16_t(1000 + ip)}, rng() % 12000};
}

/// `max_step` bounds the time between operations: a short one fills the
/// window to its count bound inside one retention period, which
/// `reaches_limit` then checks.
void run_differential(std::size_t limit, std::uint64_t seed,
                      std::size_t operations, SimDuration max_step,
                      bool reaches_limit) {
  SCOPED_TRACE(testing::Message() << "limit " << limit << " seed " << seed);
  std::mt19937_64 rng(seed);
  DedupWindow<Key> window(limit);
  ReferenceWindow reference(limit);
  SimTime now = 0;
  std::size_t pushes = 0;
  std::size_t peak = 0;
  for (std::size_t op = 0; op < operations; ++op) {
    const std::uint64_t pick = rng() % 100000;
    if (pick < 5) {
      // A quiet spell longer than the retention empties both.
      now += kRetention + SimDuration(rng() % 1000);
    } else {
      now += SimDuration(rng() % std::uint64_t(max_step));
    }
    const Key key = random_key(rng);
    if (pick >= 5 && pick < 10) {
      window.clear();  // flush_dedup_state on a rekey
      reference.clear();
    } else if (pick < 60000) {
      // A completion: only a key outside the window can complete.
      window.drop_before(now - kRetention);
      reference.prune(now);
      ASSERT_EQ(window.contains(key), reference.contains(key));
      if (!reference.contains(key)) {
        complete(window, now, key);
        reference.complete(now, key);
        ++pushes;
      }
    } else {
      // A data packet: prune by time, then look the key up.
      window.drop_before(now - kRetention);
      reference.prune(now);
      ASSERT_EQ(window.contains(key), reference.contains(key));
    }
    ASSERT_EQ(window.size(), reference.size()) << "at operation " << op;
    ASSERT_LE(window.capacity(), limit);
    peak = std::max(peak, window.size());
  }
  EXPECT_GT(pushes, operations / 3);
  EXPECT_EQ(peak == limit, reaches_limit) << "peak " << peak;
}

TEST(DedupWindow, MatchesReferenceAtHomaLimit) {
  // About 1 800 live entries at 20 us steps (the time bound rules), and
  // past the 4 096 cap at 4 us steps (the count bound rules).
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    run_differential(HomaEndpoint::kDedupHistoryLimit, seed, 60000, usec(20),
                     false);
    run_differential(HomaEndpoint::kDedupHistoryLimit, seed, 60000, usec(4),
                     true);
  }
}

TEST(DedupWindow, MatchesReferenceAtSmallLimits) {
  // Non-power-of-two limits wrap the ring at an odd capacity; tiny ones
  // evict on nearly every completion.
  for (const std::size_t limit : {1u, 2u, 7u, 16u, 100u, 1000u}) {
    for (std::uint64_t seed = 11; seed <= 13; ++seed) {
      run_differential(limit, seed, 20000, usec(20), true);
    }
  }
}

TEST(DedupWindow, GrowsOnDemandFromEmptyToTheLimit) {
  DedupWindow<Key> window(HomaEndpoint::kDedupHistoryLimit);
  EXPECT_EQ(window.capacity(), 0u);
  EXPECT_FALSE(window.contains(Key{PeerAddr{1, 1}, 1}));

  std::size_t last_capacity = 0;
  std::size_t growths = 0;
  for (std::uint64_t id = 0; id < HomaEndpoint::kDedupHistoryLimit; ++id) {
    complete(window, SimTime(id), Key{PeerAddr{1, 1}, id});
    if (window.capacity() != last_capacity) {
      ++growths;
      EXPECT_TRUE(last_capacity == 0 || window.capacity() == 2 * last_capacity);
      last_capacity = window.capacity();
    }
    ASSERT_GE(window.capacity(), window.size());
  }
  EXPECT_EQ(window.capacity(), HomaEndpoint::kDedupHistoryLimit);
  EXPECT_EQ(growths, 9u);  // 16, 32, ..., 4096
  for (std::uint64_t id = 0; id < HomaEndpoint::kDedupHistoryLimit; ++id) {
    ASSERT_TRUE(window.contains(Key{PeerAddr{1, 1}, id})) << id;
  }
}

TEST(DedupWindow, EvictsOldestAtTheCapWithoutGrowing) {
  constexpr std::size_t kLimit = HomaEndpoint::kDedupHistoryLimit;
  DedupWindow<Key> window(kLimit);
  for (std::uint64_t id = 0; id < kLimit + 10; ++id) {
    complete(window, SimTime(id), Key{PeerAddr{2, 7}, id});
  }
  EXPECT_EQ(window.size(), kLimit);
  EXPECT_EQ(window.capacity(), kLimit);
  for (std::uint64_t id = 0; id < 10; ++id) {
    EXPECT_FALSE(window.contains(Key{PeerAddr{2, 7}, id})) << id;
  }
  for (std::uint64_t id = 10; id < kLimit + 10; ++id) {
    ASSERT_TRUE(window.contains(Key{PeerAddr{2, 7}, id})) << id;
  }
}

TEST(DedupWindow, WrapsAroundTheRing) {
  // Expire the older half, refill past the end of the ring, and check
  // every live key from the wrapped head onwards.
  DedupWindow<Key> window(16);
  for (std::uint64_t id = 0; id < 16; ++id) {
    complete(window, SimTime(id) * msec(1), Key{PeerAddr{3, 3}, id});
  }
  window.drop_before(SimTime(8) * msec(1));
  EXPECT_EQ(window.size(), 8u);
  for (std::uint64_t id = 16; id < 28; ++id) {
    complete(window, SimTime(16) * msec(1), Key{PeerAddr{3, 3}, id});
  }
  EXPECT_EQ(window.size(), 16u);
  EXPECT_EQ(window.capacity(), 16u);
  for (std::uint64_t id = 0; id < 28; ++id) {
    EXPECT_EQ(window.contains(Key{PeerAddr{3, 3}, id}), id >= 12) << id;
  }
}

TEST(DedupWindow, ClearKeepsCapacityAndForgetsEveryKey) {
  DedupWindow<Key> window(64);
  for (std::uint64_t id = 0; id < 40; ++id) {
    complete(window, 0, Key{PeerAddr{4, 4}, id});
  }
  const std::size_t capacity = window.capacity();
  window.clear();
  EXPECT_TRUE(window.empty());
  EXPECT_EQ(window.capacity(), capacity);
  for (std::uint64_t id = 0; id < 40; ++id) {
    EXPECT_FALSE(window.contains(Key{PeerAddr{4, 4}, id}));
  }
  // Message ids restart after a rekey: the same keys complete again.
  for (std::uint64_t id = 0; id < 40; ++id) {
    complete(window, 1, Key{PeerAddr{4, 4}, id});
  }
  EXPECT_EQ(window.size(), 40u);
}

}  // namespace
}  // namespace smt::transport
