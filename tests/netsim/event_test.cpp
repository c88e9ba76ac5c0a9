#include "netsim/event.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace smt::sim {
namespace {

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(usec(3), [&] { order.push_back(3); });
  loop.schedule(usec(1), [&] { order.push_back(1); });
  loop.schedule(usec(2), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), usec(3));
}

TEST(EventLoop, FifoAmongSameTimeEvents) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule(usec(5), [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(EventLoop, NestedScheduling) {
  EventLoop loop;
  std::vector<SimTime> times;
  loop.schedule(usec(1), [&] {
    times.push_back(loop.now());
    loop.schedule(usec(1), [&] { times.push_back(loop.now()); });
  });
  loop.run();
  EXPECT_EQ(times, (std::vector<SimTime>{usec(1), usec(2)}));
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int count = 0;
  loop.schedule(usec(1), [&] { ++count; });
  loop.schedule(usec(5), [&] { ++count; });  // exactly at the deadline: runs
  loop.schedule(usec(10), [&] { ++count; });
  const std::size_t executed = loop.run_until(usec(5));
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(loop.now(), usec(5));
  loop.run();
  EXPECT_EQ(count, 3);
}

TEST(EventLoop, NegativeDelayClamped) {
  EventLoop loop;
  bool ran = false;
  loop.schedule(-100, [&] { ran = true; });
  loop.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(loop.now(), 0);
}

TEST(EventLoop, ScheduleAtPastClamped) {
  EventLoop loop;
  std::vector<SimTime> times;
  loop.schedule(usec(5), [&] {
    loop.schedule_at(usec(1), [&] { times.push_back(loop.now()); });
  });
  loop.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], usec(5));  // not in the past
}

namespace {
/// Counts copies/moves through the scheduling pipeline. The old
/// priority_queue engine copied queue_.top() before popping — a full
/// deep copy of the callback (and anything it captured) per event run.
struct CopyCounter {
  int* copies;
  int* moves;
  explicit CopyCounter(int* c, int* m) : copies(c), moves(m) {}
  CopyCounter(const CopyCounter& other) : copies(other.copies), moves(other.moves) {
    ++*copies;
  }
  CopyCounter(CopyCounter&& other) noexcept
      : copies(other.copies), moves(other.moves) {
    ++*moves;
  }
  CopyCounter& operator=(const CopyCounter&) = delete;
  CopyCounter& operator=(CopyCounter&&) = delete;
  void operator()() const {}
};

/// Same, but too big for the inline store — exercises the heap fallback,
/// which must ALSO never copy (it relocates by pointer).
struct BigCopyCounter : CopyCounter {
  using CopyCounter::CopyCounter;
  std::uint64_t pad[EventCallback::kInlineCapacity / sizeof(std::uint64_t)] =
      {};
};
}  // namespace

TEST(EventLoop, PopByMoveNeverCopiesInlineCallbacks) {
  static_assert(sizeof(CopyCounter) <= EventCallback::kInlineCapacity);
  EventLoop loop;
  int copies = 0, moves = 0;
  for (int i = 0; i < 100; ++i) {
    loop.schedule(usec(std::int64_t(i % 7)), CopyCounter(&copies, &moves));
  }
  loop.run();
  EXPECT_EQ(copies, 0) << "an event-engine stage copied a callback";
  EXPECT_GT(moves, 0);  // moved through schedule -> pool -> run, never copied
}

TEST(EventLoop, PopByMoveNeverCopiesHeapCallbacks) {
  static_assert(sizeof(BigCopyCounter) > EventCallback::kInlineCapacity);
  EventLoop loop;
  int copies = 0, moves = 0;
  for (int i = 0; i < 100; ++i) {
    loop.schedule(usec(std::int64_t(i % 7)), BigCopyCounter(&copies, &moves));
  }
  loop.run();
  EXPECT_EQ(copies, 0) << "the heap fallback copied a callback";
}

TEST(EventLoop, PoolReuseSurvivesChurn) {
  // Self-rescheduling chains churn the free-listed pool; order and count
  // must match the naive engine exactly.
  EventLoop loop;
  std::vector<int> order;
  std::function<void(int, int)> chain = [&](int id, int left) {
    order.push_back(id);
    if (left > 0) {
      loop.schedule(usec(1), [&chain, id, left] { chain(id, left - 1); });
    }
  };
  for (int id = 0; id < 4; ++id) {
    loop.schedule(usec(1), [&chain, id] { chain(id, 50); });
  }
  const std::size_t executed = loop.run();
  EXPECT_EQ(executed, 4u * 51u);
  ASSERT_EQ(order.size(), 4u * 51u);
  // FIFO tie-break: within every virtual timestamp the four chains run in
  // id order (they were scheduled in id order).
  for (std::size_t step = 0; step < order.size(); step += 4) {
    for (int id = 0; id < 4; ++id) {
      EXPECT_EQ(order[step + std::size_t(id)], id) << "at step " << step;
    }
  }
}

TEST(EventLoop, PendingCount) {
  EventLoop loop;
  EXPECT_TRUE(loop.empty());
  loop.schedule(usec(1), [] {});
  loop.schedule(usec(2), [] {});
  EXPECT_EQ(loop.pending(), 2u);
  loop.run();
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoop, CancelledEventNeverRuns) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(usec(1), [&] { order.push_back(1); });
  const TimerId two = loop.schedule(usec(2), [&] { order.push_back(2); });
  loop.schedule(usec(3), [&] { order.push_back(3); });
  loop.cancel(two);
  EXPECT_EQ(loop.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventLoop, PendingEarliestAndEmptyExcludeCancelled) {
  EventLoop loop;
  const TimerId a = loop.schedule(usec(1), [] {});
  const TimerId b = loop.schedule(usec(2), [] {});
  const TimerId c = loop.schedule(usec(3), [] {});
  loop.cancel(a);  // the earliest: earliest() must move past it
  EXPECT_EQ(loop.pending(), 2u);
  EXPECT_EQ(loop.earliest(), usec(2));
  loop.cancel(c);  // not at the top
  EXPECT_EQ(loop.pending(), 1u);
  EXPECT_EQ(loop.earliest(), usec(2));
  EXPECT_FALSE(loop.empty());
  loop.cancel(b);
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_TRUE(loop.empty());
  EXPECT_EQ(loop.earliest(), EventLoop::kNoEvent);
  // Nothing left to run: the clock stays where it was, not at 3 us.
  EXPECT_EQ(loop.run(), 0u);
  EXPECT_EQ(loop.now(), 0);
  EXPECT_EQ(loop.pending_high_water(), 3u);
}

TEST(EventLoop, StaleAndDoubleCancelAreNoOps) {
  EventLoop loop;
  int ran = 0;
  const TimerId first = loop.schedule(usec(1), [&] { ++ran; });
  loop.run();
  ASSERT_EQ(ran, 1);
  // The next event reuses the first one's pool slot; the old handle must
  // not name it.
  const TimerId second = loop.schedule(usec(1), [&] { ++ran; });
  ASSERT_EQ(second.index, first.index);
  loop.cancel(first);
  loop.cancel(TimerId{});
  EXPECT_EQ(loop.pending(), 1u);
  loop.cancel(second);
  loop.cancel(second);
  EXPECT_EQ(loop.pending(), 0u);
  const TimerId third = loop.schedule(usec(1), [&] { ++ran; });
  loop.cancel(second);  // stale again, now that a third event holds the slot
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_EQ(ran, 2);
  loop.cancel(third);  // already ran
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoop, CancelFromOwnCallbackIsANoOp) {
  EventLoop loop;
  TimerId self;
  int ran = 0;
  self = loop.schedule(usec(1), [&] {
    ++ran;
    loop.cancel(self);
    loop.schedule(usec(1), [&] { ++ran; });
  });
  loop.run();
  EXPECT_EQ(ran, 2);
}

TEST(EventLoop, ScheduledIsTrueExactlyWhilePending) {
  for (const bool on_lane : {false, true}) {
    SCOPED_TRACE(on_lane ? "lane events" : "heap events");
    EventLoop loop;
    const LaneId lane = loop.new_lane();
    const auto schedule = [&](SimDuration delay, EventLoop::Callback&& fn) {
      return on_lane ? loop.schedule(lane, delay, std::move(fn))
                     : loop.schedule(delay, std::move(fn));
    };
    EXPECT_FALSE(loop.scheduled(TimerId{}));

    TimerId first;
    int seen_inside = -1;
    first = schedule(usec(1), [&] { seen_inside = loop.scheduled(first); });
    const TimerId second = schedule(usec(2), [] {});  // behind a lane front
    const TimerId third = schedule(usec(3), [] {});
    EXPECT_TRUE(loop.scheduled(first));
    EXPECT_TRUE(loop.scheduled(second));
    EXPECT_TRUE(loop.scheduled(third));

    loop.run_until(usec(1));
    EXPECT_EQ(seen_inside, 0);  // false inside its own callback
    EXPECT_FALSE(loop.scheduled(first));
    EXPECT_TRUE(loop.scheduled(second));

    loop.cancel(second);
    EXPECT_FALSE(loop.scheduled(second));
    EXPECT_TRUE(loop.scheduled(third));

    // New events reuse the freed pool slots; the old handles stay false.
    const TimerId reuses_second = schedule(usec(4), [] {});
    const TimerId reuses_first = schedule(usec(5), [] {});
    ASSERT_EQ(reuses_second.index, second.index);
    ASSERT_EQ(reuses_first.index, first.index);
    EXPECT_FALSE(loop.scheduled(first));
    EXPECT_FALSE(loop.scheduled(second));
    EXPECT_TRUE(loop.scheduled(reuses_second));
    EXPECT_TRUE(loop.scheduled(reuses_first));

    loop.run();
    EXPECT_FALSE(loop.scheduled(third));
    EXPECT_FALSE(loop.scheduled(reuses_second));
    EXPECT_FALSE(loop.scheduled(reuses_first));
  }
}

TEST(EventLoop, CancelDestroysCapturesAtOnce) {
  EventLoop loop;
  auto token = std::make_shared<int>(0);
  struct Big {
    std::shared_ptr<int> held;
    char pad[EventCallback::kInlineCapacity] = {};
    void operator()() const {}
  };
  const TimerId small = loop.schedule(usec(1), [held = token] { (void)held; });
  const TimerId big = loop.schedule(usec(2), Big{token});
  loop.schedule(usec(3), [] {});
  ASSERT_EQ(token.use_count(), 3);
  loop.cancel(small);  // inline store
  EXPECT_EQ(token.use_count(), 2);
  loop.cancel(big);  // heap fallback
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventLoop, CompactionKeepsOrderWhenMostEventsAreCancelled) {
  // A live event at the top pins every cancelled slot below it, so the
  // stale slots outnumber the live ones and the heap is rebuilt; the
  // survivors must still run in (when, seq) order.
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(0, [&] { order.push_back(-1); });
  std::vector<TimerId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(loop.schedule(usec(1000 - i % 97),
                                [&order, i] { order.push_back(i); }));
  }
  std::vector<int> expected;
  for (int i = 0; i < 1000; ++i) {
    if (i % 4 == 0) {
      expected.push_back(i);
    } else {
      loop.cancel(ids[std::size_t(i)]);
    }
  }
  EXPECT_EQ(loop.pending(), 251u);
  std::stable_sort(expected.begin(), expected.end(), [](int a, int b) {
    return 1000 - a % 97 < 1000 - b % 97;
  });
  expected.insert(expected.begin(), -1);
  EXPECT_EQ(loop.run(), 251u);
  EXPECT_EQ(order, expected);
}

TEST(EventLoop, DigestPinsTheSchedule) {
  const auto digest_of = [](SimTime late) {
    EventLoop loop;
    loop.schedule(usec(2), [] {});
    loop.schedule(usec(1), [&loop, late] { loop.schedule_at(late, [] {}); });
    loop.schedule(usec(1), [] {});
    loop.run();
    return loop.digest();
  };
  EXPECT_EQ(EventLoop{}.digest(), 0u);
  EXPECT_EQ(digest_of(usec(3)), digest_of(usec(3)));
  EXPECT_NE(digest_of(usec(3)), digest_of(usec(3) + 1));
  // Same times, other seqs: the late event now runs before the 2 us one.
  EXPECT_NE(digest_of(usec(3)), digest_of(usec(2) - 1));
}

/// One randomised schedule, run two ways. Events get random times with
/// many ties; a quarter are cancelled up front, and each running event may
/// cancel a random other one (which may already have run, or been
/// cancelled) and schedule a child. `cancel` = true cancels for real;
/// false runs every event but turns the victims into no-ops. The two runs
/// must execute the survivors in the same order.
struct TwinRun {
  std::vector<int> order;
  std::size_t executed = 0;
  std::size_t voided = 0;
};

TwinRun run_twin(bool cancel) {
  constexpr int kEvents = 10000;
  Rng rng(20261017);
  std::vector<SimTime> when(kEvents);
  std::vector<int> victim(kEvents, -1);
  std::vector<SimDuration> child_delay(kEvents, -1);
  for (int i = 0; i < kEvents; ++i) {
    when[std::size_t(i)] = SimTime(rng.next_below(2000));
    if (rng.chance(0.8)) victim[std::size_t(i)] = int(rng.next_below(kEvents));
    if (rng.chance(0.3)) {
      child_delay[std::size_t(i)] = SimDuration(rng.next_below(50));
    }
  }
  EventLoop loop;
  TwinRun result;
  std::vector<TimerId> ids(kEvents);
  std::vector<bool> dead(kEvents, false);
  auto void_event = [&](int i) {
    if (cancel) {
      loop.cancel(ids[std::size_t(i)]);
    } else {
      dead[std::size_t(i)] = true;
    }
  };
  for (int i = 0; i < kEvents; ++i) {
    ids[std::size_t(i)] = loop.schedule_at(when[std::size_t(i)], [&, i] {
      if (dead[std::size_t(i)]) {
        ++result.voided;
        return;
      }
      result.order.push_back(i);
      if (victim[std::size_t(i)] >= 0) void_event(victim[std::size_t(i)]);
      if (child_delay[std::size_t(i)] >= 0) {
        loop.schedule(child_delay[std::size_t(i)],
                      [&result, i] { result.order.push_back(kEvents + i); });
      }
    });
  }
  for (int i = 0; i < kEvents; ++i) {
    if (rng.chance(0.25)) void_event(i);
  }
  result.executed = loop.run();
  return result;
}

TEST(EventLoop, CancellingMatchesNoOpTwinRun) {
  const TwinRun cancelled = run_twin(true);
  const TwinRun noop = run_twin(false);
  EXPECT_EQ(cancelled.order, noop.order);
  EXPECT_EQ(cancelled.voided, 0u);
  EXPECT_EQ(cancelled.executed, noop.executed - noop.voided);
  // About half the original events never ran.
  EXPECT_GT(noop.voided, 4000u);
  EXPECT_LT(noop.voided, 6000u);
}


// --- lanes ----------------------------------------------------------------

TEST(EventLoop, LaneRunsInTimeOrderAmongHeapEvents) {
  EventLoop loop;
  const LaneId lane = loop.new_lane();
  std::vector<int> order;
  loop.schedule_at(lane, usec(1), [&] { order.push_back(1); });
  loop.schedule_at(lane, usec(3), [&] { order.push_back(3); });
  loop.schedule_at(usec(2), [&] { order.push_back(2); });
  loop.schedule_at(usec(3), [&] { order.push_back(4); });  // after lane's 3
  loop.schedule_at(lane, usec(3), [&] { order.push_back(5); });
  EXPECT_EQ(loop.pending(), 5u);
  EXPECT_EQ(loop.earliest(), usec(1));
  EXPECT_EQ(loop.run(), 5u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(EventLoop, EarlierThanTheLaneTailFallsBackToTheHeap) {
  EventLoop loop;
  const LaneId lane = loop.new_lane();
  std::vector<int> order;
  loop.schedule_at(lane, usec(10), [&] { order.push_back(10); });
  loop.schedule_at(lane, usec(20), [&] { order.push_back(20); });
  // Earlier than the tail: still runs at its own time, before the tail.
  loop.schedule_at(lane, usec(15), [&] { order.push_back(15); });
  loop.schedule_at(lane, usec(5), [&] { order.push_back(5); });
  // Back in order behind the tail: the lane takes it again.
  loop.schedule_at(lane, usec(20), [&] {
    order.push_back(21);
    // A past time clamps to now, then queues behind the (empty) lane.
    loop.schedule_at(lane, usec(1), [&] { order.push_back(int(loop.now())); });
  });
  loop.schedule(lane, usec(30), [&] { order.push_back(30); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{5, 10, 15, 20, 21, 20000, 30}));
}

TEST(EventLoop, LaneCancelsAtFrontMiddleAndTail) {
  EventLoop loop;
  const LaneId lane = loop.new_lane();
  std::vector<int> order;
  std::vector<TimerId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(loop.schedule_at(lane, usec(i), [&order, i] {
      order.push_back(i);
    }));
  }
  loop.schedule_at(usec(2), [&] { order.push_back(100); });
  loop.cancel(ids[0]);  // the front: its successor takes a heap slot
  loop.cancel(ids[3]);  // the middle
  loop.cancel(ids[5]);  // the tail: the next push queues behind 4
  EXPECT_EQ(loop.pending(), 4u);
  EXPECT_EQ(loop.earliest(), usec(1));
  loop.schedule_at(lane, usec(4), [&] { order.push_back(6); });
  EXPECT_EQ(loop.pending_high_water(), 7u);
  loop.cancel(ids[1]);  // the new front
  EXPECT_EQ(loop.earliest(), usec(2));
  EXPECT_EQ(loop.run(), 4u);
  EXPECT_EQ(order, (std::vector<int>{2, 100, 4, 6}));
  EXPECT_TRUE(loop.empty());
  EXPECT_EQ(loop.pending_high_water(), 7u);
}

TEST(EventLoop, PendingCountsLaneEventsLikeHeapEvents) {
  EventLoop lanes;
  EventLoop heap;
  const LaneId lane = lanes.new_lane();
  std::vector<TimerId> in_lane, in_heap;
  for (int i = 0; i < 8; ++i) {
    in_lane.push_back(lanes.schedule(lane, usec(i), [] {}));
    in_heap.push_back(heap.schedule(usec(i), [] {}));
  }
  for (const int i : {0, 4, 7, 4}) {
    lanes.cancel(in_lane[std::size_t(i)]);
    heap.cancel(in_heap[std::size_t(i)]);
    EXPECT_EQ(lanes.pending(), heap.pending());
    EXPECT_EQ(lanes.earliest(), heap.earliest());
  }
  lanes.schedule(lane, usec(9), [] {});
  heap.schedule(usec(9), [] {});
  EXPECT_EQ(lanes.pending_high_water(), heap.pending_high_water());
  EXPECT_EQ(lanes.run_until(usec(3)), heap.run_until(usec(3)));
  EXPECT_EQ(lanes.pending(), heap.pending());
  EXPECT_EQ(lanes.run(), heap.run());
  EXPECT_EQ(lanes.digest(), heap.digest());
  EXPECT_EQ(lanes.pending_high_water(), 8u);
}

TEST(EventLoop, CompactionDropsStaleLaneFronts) {
  // Every lane's front is cancelled (a stale heap slot each, and the
  // successor takes a slot of its own), then half the successors too:
  // stale slots outnumber live ones and the heap is rebuilt. The
  // survivors still run in (when, seq) order.
  EventLoop loop;
  std::vector<std::pair<SimTime, int>> order;
  loop.schedule(0, [&] { order.emplace_back(0, -1); });
  std::vector<std::pair<TimerId, TimerId>> ids;
  std::vector<std::pair<SimTime, int>> expected{{0, -1}};
  for (int i = 0; i < 300; ++i) {
    const LaneId lane = loop.new_lane();
    const SimTime first = usec(1000 - i % 97);
    const TimerId front = loop.schedule_at(lane, first, [] {});
    const TimerId next = loop.schedule_at(lane, first + 5, [&, i, first] {
      order.emplace_back(first + 5, i);
    });
    loop.schedule_at(lane, first + 9, [&, i, first] {
      order.emplace_back(first + 9, 1000 + i);
    });
    ids.emplace_back(front, next);
    if (i % 2 == 1) expected.emplace_back(first + 5, i);
    expected.emplace_back(first + 9, 1000 + i);
  }
  for (const auto& [front, next] : ids) loop.cancel(front);
  EXPECT_EQ(loop.pending(), 601u);
  for (std::size_t i = 0; i < ids.size(); i += 2) loop.cancel(ids[i].second);
  EXPECT_EQ(loop.pending(), 451u);
  // Same time: the lane scheduled first (lower i) runs first.
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  EXPECT_EQ(loop.run(), 451u);
  EXPECT_EQ(order, expected);
}

/// A seeded differential run: random schedules on four lanes (in order,
/// behind the lane's last live event, or out of order, which falls back to
/// the heap) and on the heap, cancels of a lane's front, middle and tail
/// and of random handles, some from inside callbacks, all driven through
/// run_until, run_ready_before and run. The reference model is the set of
/// pending (when, seq) keys: every executed event must be its least, and
/// pending() and earliest() must match it after every step.
class LaneDifferential {
 public:
  explicit LaneDifferential(std::uint64_t seed) : rng_(seed) {
    for (auto& lane : lanes_) lane.id = loop_.new_lane();
  }

  void run() {
    for (int step = 0; step < 10000; ++step) {
      const std::uint64_t op = rng_.next_below(10);
      if (op < 5) {
        schedule_random();
      } else if (op < 8) {
        cancel_random();
      } else if (op == 8) {
        const SimTime until = loop_.now() + SimTime(rng_.next_below(40));
        loop_.run_until(until);
        EXPECT_EQ(loop_.now(), until);
      } else {
        loop_.run_ready_before(loop_.now() + SimTime(rng_.next_below(40)));
      }
      check_model();
    }
    loop_.run();
    check_model();
    EXPECT_TRUE(model_.empty());
  }

  std::size_t executed() const { return executed_; }
  std::size_t lane_cancels() const { return lane_cancels_; }
  std::size_t fallbacks() const { return fallbacks_; }

 private:
  struct Lane {
    LaneId id;
    std::deque<std::size_t> members;  // live lane events, in lane order
  };

  void check_model() {
    ASSERT_EQ(loop_.pending(), model_.size());
    EXPECT_EQ(loop_.earliest(),
              model_.empty() ? EventLoop::kNoEvent : model_.begin()->first);
  }

  void schedule_random() {
    const SimTime now = loop_.now();
    const std::size_t lane_index = rng_.next_below(lanes_.size() + 1);
    const std::size_t k = ids_.size();
    ids_.emplace_back();
    when_.emplace_back();
    lane_of_.push_back(-1);
    auto fn = [this, k] { on_run(k); };
    if (lane_index == lanes_.size()) {
      const SimTime when = now + SimTime(rng_.next_below(60)) - 5;
      ids_[k] = loop_.schedule_at(when, fn);
      when_[k] = std::max(when, now);
      model_.emplace(when_[k], ids_[k].seq);
      return;
    }
    Lane& lane = lanes_[lane_index];
    const SimTime tail =
        lane.members.empty() ? now : when_[lane.members.back()];
    // Mostly at or after the tail; otherwise anywhere from now up to it.
    const SimTime when =
        rng_.chance(0.75)
            ? tail + SimTime(rng_.next_below(8))
            : now + SimTime(rng_.next_below(std::uint64_t(tail - now) + 1));
    ids_[k] = loop_.schedule_at(lane.id, when, fn);
    when_[k] = std::max(when, now);
    model_.emplace(when_[k], ids_[k].seq);
    if (lane.members.empty() || when_[k] >= tail) {
      lane.members.push_back(k);
      lane_of_[k] = int(lane_index);
    } else {
      ++fallbacks_;
    }
  }

  void cancel_random() {
    const std::size_t lane_index = rng_.next_below(lanes_.size() + 1);
    if (lane_index < lanes_.size() && !lanes_[lane_index].members.empty()) {
      std::deque<std::size_t>& members = lanes_[lane_index].members;
      const std::uint64_t where = rng_.next_below(3);
      const std::size_t pos = where == 0   ? 0
                              : where == 1 ? members.size() - 1
                                           : rng_.next_below(members.size());
      ++lane_cancels_;
      cancel(members[pos]);
    } else if (!ids_.empty()) {
      cancel(rng_.next_below(ids_.size()));  // may have run or be gone
    }
  }

  void cancel(std::size_t k) {
    model_.erase({when_[k], ids_[k].seq});
    forget(k);
    loop_.cancel(ids_[k]);
  }

  /// Drops `k` from its lane's membership list, if it is there.
  void forget(std::size_t k) {
    if (lane_of_[k] < 0) return;
    std::deque<std::size_t>& members = lanes_[std::size_t(lane_of_[k])].members;
    members.erase(std::find(members.begin(), members.end(), k));
    lane_of_[k] = -1;
  }

  void on_run(std::size_t k) {
    ++executed_;
    ASSERT_FALSE(model_.empty());
    const std::pair<SimTime, std::uint64_t> expected = *model_.begin();
    EXPECT_EQ(expected.first, loop_.now());
    EXPECT_EQ(expected.second, ids_[k].seq);
    model_.erase(model_.begin());
    if (lane_of_[k] >= 0) {
      EXPECT_EQ(lanes_[std::size_t(lane_of_[k])].members.front(), k);
    }
    forget(k);
    // Callbacks schedule and cancel too.
    if (rng_.chance(0.3)) schedule_random();
    if (rng_.chance(0.2)) cancel_random();
  }

  EventLoop loop_;
  Rng rng_;
  std::array<Lane, 4> lanes_;
  std::vector<TimerId> ids_;
  std::vector<SimTime> when_;  // as clamped at schedule time
  std::vector<int> lane_of_;  // lane index while a lane member, else -1
  std::set<std::pair<SimTime, std::uint64_t>> model_;
  std::size_t executed_ = 0;
  std::size_t lane_cancels_ = 0;
  std::size_t fallbacks_ = 0;
};

TEST(EventLoop, LanesMatchTheReferenceOrder) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    LaneDifferential run(seed);
    run.run();
    EXPECT_GT(run.executed(), 4000u);
    EXPECT_GT(run.lane_cancels(), 800u);
    EXPECT_GT(run.fallbacks(), 150u);
  }
}

}  // namespace
}  // namespace smt::sim
