#include "netsim/event.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
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
  loop.schedule(usec(10), [&] { ++count; });
  const std::size_t executed = loop.run_until(usec(5));
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(loop.now(), usec(5));
  loop.run();
  EXPECT_EQ(count, 2);
}

TEST(EventLoop, StopFromCallback) {
  EventLoop loop;
  int count = 0;
  loop.schedule(usec(1), [&] {
    ++count;
    loop.stop();
  });
  loop.schedule(usec(2), [&] { ++count; });
  loop.run();
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(loop.stopped());
  loop.reset_stop();
  loop.run();
  EXPECT_EQ(count, 2);
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

}  // namespace
}  // namespace smt::sim
