// Sharded engine: mailbox ordering under concurrent producers, the
// lookahead-boundary window edge, cross-shard links and switch egress,
// run-to-run determinism, and the 2-shard == 1-shard virtual-time
// comparison on a fixed scenario (docs/determinism.md is the contract
// these tests pin down).
#include "netsim/shard.hpp"

#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "netsim/link.hpp"
#include "netsim/switch.hpp"

namespace smt::sim {
namespace {

Packet make_packet(std::size_t payload_size, std::uint32_t dst_ip = 0) {
  Packet pkt;
  pkt.hdr.flow.dst_ip = dst_ip;
  pkt.payload.assign(payload_size, 0xab);
  return pkt;
}

TEST(ShardedEngine, OneShardIsThePlainEventLoop) {
  ShardedEngine engine(1, usec(1));
  std::vector<SimTime> fired;
  engine.loop(0).schedule_at(5, [&] { fired.push_back(engine.now(0)); });
  // A "cross-shard" post in one-shard mode is a plain schedule_at.
  engine.post_from(0, 0, 3, [&] { fired.push_back(engine.now(0)); });
  const std::size_t executed = engine.run();
  EXPECT_EQ(executed, 2u);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], 3);
  EXPECT_EQ(fired[1], 5);
  // No window machinery ran: byte-identical to EventLoop::run().
  EXPECT_EQ(engine.stats().windows, 0u);
  EXPECT_EQ(engine.stats().cross_posts, 0u);
}

TEST(ShardedEngine, PostBeforeRunIsDelivered) {
  ShardedEngine engine(3, nsec(100));
  bool fired = false;
  engine.post_from(2, 1, 50, [&] { fired = true; });
  engine.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(engine.now(1), 50);
  EXPECT_EQ(engine.stats().cross_posts, 1u);
}

TEST(ShardedEngine, LookaheadBoundaryArrivalExecutesOnce) {
  // An arrival stamped EXACTLY at the window edge (now + lookahead) is the
  // tightest post the conservative contract allows: it must land in the
  // next window, exactly once, at exactly its stamp.
  constexpr SimDuration kLookahead = nsec(1000);
  ShardedEngine engine(2, kLookahead);
  int count = 0;
  SimTime fired_at = -1;
  engine.loop(1).schedule_at(500, [&] {
    engine.post_from(1, 0, engine.now(1) + kLookahead, [&] {
      ++count;
      fired_at = engine.now(0);
    });
  });
  engine.run();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(fired_at, 1500);
}

/// Four producer shards each drive a local event chain that posts two
/// tagged messages per tick into shard 0's mailbox, all stamped with the
/// SAME arrival times — the worst case for mailbox ordering. The
/// deterministic drain order is (when, src shard, per-source program
/// order), regardless of how the producer threads interleaved.
std::vector<std::string> run_concurrent_producers() {
  constexpr SimDuration kLookahead = nsec(100);
  constexpr int kTicks = 50;
  ShardedEngine engine(5, kLookahead);
  std::vector<std::string> trace;
  for (std::size_t p = 1; p <= 4; ++p) {
    for (int k = 0; k < kTicks; ++k) {
      engine.loop(p).schedule_at(k * 100, [&engine, &trace, p] {
        const SimTime arrival = engine.now(p) + kLookahead;
        for (int sub = 0; sub < 2; ++sub) {
          engine.post_from(p, 0, arrival, [&engine, &trace, p, sub] {
            char buf[64];
            std::snprintf(buf, sizeof buf, "t=%lld p=%zu sub=%d",
                          static_cast<long long>(engine.now(0)), p, sub);
            trace.emplace_back(buf);
          });
        }
      });
    }
  }
  engine.run();
  EXPECT_EQ(engine.stats().cross_posts, std::uint64_t(4 * kTicks * 2));
  return trace;
}

TEST(ShardedEngine, MailboxOrderingUnderConcurrentProducers) {
  const std::vector<std::string> trace = run_concurrent_producers();
  ASSERT_EQ(trace.size(), 400u);
  // At each arrival time, sources in shard order, each source's two posts
  // in program order.
  std::size_t i = 0;
  for (int k = 0; k < 50; ++k) {
    for (std::size_t p = 1; p <= 4; ++p) {
      for (int sub = 0; sub < 2; ++sub) {
        char expect[64];
        std::snprintf(expect, sizeof expect, "t=%lld p=%zu sub=%d",
                      static_cast<long long>(k * 100 + 100), p, sub);
        EXPECT_EQ(trace[i], expect) << "at index " << i;
        ++i;
      }
    }
  }
  // Run-to-run: a fresh engine over the same schedule replays the exact
  // same trace even though producers run on concurrent threads.
  EXPECT_EQ(trace, run_concurrent_producers());
}

/// Fixed two-node scenario: a ping-pong over a full-duplex Link plus a
/// local timer chain on each node (same-loop events interleaving with
/// mailbox arrivals). All times are multiples of 10 except the timers
/// (phase 3 mod 10), so no same-timestamp tie ever crosses a shard
/// boundary — the regime where shard count cannot change virtual time.
std::string run_pingpong(ShardedEngine& engine, std::size_t shard_a,
                         std::size_t shard_b) {
  LinkConfig lc;
  lc.bandwidth_gbps = 8.0;  // 100 B payload + 70 B header = 170 ns
  lc.propagation = usec(1);
  Link link(engine.loop(shard_a), engine.loop(shard_b), lc);
  if (shard_a != shard_b) {
    link.a2b().set_remote_scheduler(engine.remote_scheduler(shard_a, shard_b));
    link.b2a().set_remote_scheduler(engine.remote_scheduler(shard_b, shard_a));
  }

  // Per-side traces and counters: each is touched only by its own shard's
  // thread (sharing one string across shards would itself be a race).
  std::string trace_a, trace_b;
  int rounds_a = 0, rounds_b = 0;
  std::uint64_t timer_ticks_a = 0, timer_ticks_b = 0;
  // Last event time witnessed per side, recorded by the callbacks
  // themselves: a shard's loop.now() after run() only reflects the last
  // event THAT SHARD executed, so it is not comparable across shard
  // layouts — the event-visible timestamps are.
  SimTime last_a = 0, last_b = 0;
  const auto record = [](std::string& trace, const char* tag, SimTime now,
                         int value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s@%lld=%d\n", tag,
                  static_cast<long long>(now), value);
    trace += buf;
  };

  link.b2a().set_receiver([&](Packet pkt) {
    last_a = engine.now(shard_a);
    record(trace_a, "a-rx", engine.now(shard_a), rounds_a);
    if (++rounds_a < 20) {
      engine.loop(shard_a).schedule(nsec(130), [&, pkt]() mutable {
        link.a2b().send(std::move(pkt));
      });
    }
  });
  link.a2b().set_receiver([&](Packet pkt) {
    last_b = engine.now(shard_b);
    record(trace_b, "b-rx", engine.now(shard_b), rounds_b);
    ++rounds_b;
    engine.loop(shard_b).schedule(nsec(250), [&, pkt]() mutable {
      link.b2a().send(std::move(pkt));
    });
  });

  // Local timers: phase 3 mod 10 — never collides with packet events.
  std::function<void()> tick_a = [&] {
    ++timer_ticks_a;
    last_a = engine.now(shard_a);
    if (engine.now(shard_a) < usec(50)) {
      engine.loop(shard_a).schedule(nsec(770), tick_a);
    }
  };
  std::function<void()> tick_b = [&] {
    ++timer_ticks_b;
    last_b = engine.now(shard_b);
    if (engine.now(shard_b) < usec(50)) {
      engine.loop(shard_b).schedule(nsec(1330), tick_b);
    }
  };
  engine.loop(shard_a).schedule_at(3, tick_a);
  engine.loop(shard_b).schedule_at(3, tick_b);

  link.a2b().send(make_packet(100));
  engine.run();

  char tail[160];
  std::snprintf(tail, sizeof tail,
                "rounds=%d/%d ticks_a=%llu ticks_b=%llu end_a=%lld end_b=%lld\n",
                rounds_a, rounds_b,
                static_cast<unsigned long long>(timer_ticks_a),
                static_cast<unsigned long long>(timer_ticks_b),
                static_cast<long long>(last_a),
                static_cast<long long>(last_b));
  return trace_a + trace_b + tail;
}

TEST(ShardedEngine, TwoShardByteIdenticalToOneShard) {
  ShardedEngine one(1, usec(1));
  const std::string single = run_pingpong(one, 0, 0);
  ShardedEngine two(2, usec(1));
  const std::string sharded = run_pingpong(two, 0, 1);
  EXPECT_EQ(single, sharded);
  // And deterministically so, run-to-run.
  ShardedEngine two_again(2, usec(1));
  EXPECT_EQ(sharded, run_pingpong(two_again, 0, 1));
  EXPECT_GT(two.stats().cross_posts, 0u);
}

TEST(ShardedEngine, DigestFoldsTheShardLoopsInOrder) {
  ShardedEngine one(1, usec(1));
  run_pingpong(one, 0, 0);
  EXPECT_NE(one.digest(), 0u);
  EXPECT_EQ(one.digest(), one.loop(0).digest());
  ShardedEngine two(2, usec(1));
  run_pingpong(two, 0, 1);
  ShardedEngine two_again(2, usec(1));
  run_pingpong(two_again, 0, 1);
  EXPECT_EQ(two.digest(), two_again.digest());
  EXPECT_EQ(two.digest(), mix64(two.loop(0).digest()) ^ two.loop(1).digest());
  // Swapping the shards' roles runs another schedule on each loop.
  ShardedEngine swapped(2, usec(1));
  run_pingpong(swapped, 1, 0);
  EXPECT_NE(swapped.digest(), two.digest());
}

#if defined(__linux__)
TEST(ShardedEngine, TwoShardsOnOneCpuMatchAnUnrestrictedRun) {
  // The worker pool is sized by the CPUs this thread may use, so pinned
  // to one CPU the two shards share one worker. The schedule depends on
  // the shard count alone: the results and the digest cannot move.
  ShardedEngine free_run(2, usec(1));
  const std::string unrestricted = run_pingpong(free_run, 0, 1);

  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof saved, &saved), 0);
  int first_cpu = 0;
  while (!CPU_ISSET(first_cpu, &saved)) ++first_cpu;
  cpu_set_t one_cpu;
  CPU_ZERO(&one_cpu);
  CPU_SET(first_cpu, &one_cpu);
  ASSERT_EQ(sched_setaffinity(0, sizeof one_cpu, &one_cpu), 0);
  ShardedEngine pinned(2, usec(1));
  const std::string restricted = run_pingpong(pinned, 0, 1);
  ASSERT_EQ(sched_setaffinity(0, sizeof saved, &saved), 0);

  EXPECT_EQ(restricted, unrestricted);
  EXPECT_EQ(pinned.digest(), free_run.digest());
  EXPECT_EQ(pinned.stats().windows, free_run.stats().windows);
  EXPECT_EQ(pinned.stats().cross_posts, free_run.stats().cross_posts);
}
#endif

TEST(ShardedEngine, CancelledFarEventAddsNoWindow) {
  // Shard 1 arms a far-future timer and cancels it from its next event:
  // the barrier floor must never see it, so the run has exactly the
  // windows of one that never armed it, and shard 1's clock stops at its
  // last live event.
  const auto run = [](bool arm_far) {
    ShardedEngine engine(2, usec(1));
    engine.loop(0).schedule_at(usec(10), [] {});
    TimerId far;
    if (arm_far) far = engine.loop(1).schedule_at(msec(5), [] {});
    engine.loop(1).schedule_at(usec(5), [&engine, far] {
      engine.loop(1).cancel(far);
    });
    engine.run();
    return std::make_pair(engine.stats().windows, engine.now(1));
  };
  const auto plain = run(false);
  const auto cancelled = run(true);
  EXPECT_EQ(cancelled.first, plain.first);
  EXPECT_EQ(cancelled.second, usec(5));
}

TEST(ShardedEngine, SwitchRemoteEgressDeliversCrossShard) {
  // Host-facing egress port on shard 1, switch fabric on shard 0: after
  // queueing + serialisation on the switch's shard, delivery is posted at
  // now + egress_latency into the host's shard.
  ShardedEngine engine(2, nsec(500));
  Switch sw(engine.loop(0), SwitchConfig{});

  std::vector<SimTime> deliveries;
  const std::size_t port = sw.add_port(
      [&](Packet) { deliveries.push_back(engine.now(1)); });
  sw.set_port_bandwidth(port, 8.0);  // 170 B wire = 170 ns serialisation
  sw.set_port_remote(port, engine.remote_scheduler(0, 1), nsec(500));
  sw.set_route(/*dst_ip=*/7, port);

  sw.receive(make_packet(100, /*dst_ip=*/7));
  sw.receive(make_packet(100, /*dst_ip=*/7));
  engine.run();

  // First: 300 (Switch::kForwardingLatency) + 170 (serialisation) + 500
  // (egress cable); second serialises behind it on the same port.
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], 300 + 170 + 500);
  EXPECT_EQ(deliveries[1], 300 + 2 * 170 + 500);
  EXPECT_EQ(sw.stats().forwarded, 2u);
}

TEST(ShardedEngine, FourShardRunToRunDeterminism) {
  // A 4-shard ring of links with staggered injections: the whole-run event
  // count, window count, and cross-post count must replay exactly.
  const auto run_ring = [](std::uint64_t& events, std::string& trace) {
    ShardedEngine engine(4, usec(1));
    LinkConfig lc;
    lc.propagation = usec(1);
    std::vector<std::unique_ptr<Link>> links;
    for (std::size_t i = 0; i < 4; ++i) {
      const std::size_t next = (i + 1) % 4;
      links.push_back(std::make_unique<Link>(engine.loop(i), engine.loop(next), lc));
      links.back()->a2b().set_remote_scheduler(
          engine.remote_scheduler(i, next));
    }
    // Per-shard traces and hop budgets: link i's receiver runs on shard
    // (i+1)%4's thread, so each array slot has exactly one writer.
    std::array<std::string, 4> shard_trace;
    std::array<int, 4> hops{};
    for (std::size_t i = 0; i < 4; ++i) {
      const std::size_t next = (i + 1) % 4;
      links[i]->a2b().set_receiver([&, next](Packet pkt) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "hop@%zu t=%lld\n", next,
                      static_cast<long long>(engine.now(next)));
        shard_trace[next] += buf;
        if (++hops[next] < 16) links[next]->a2b().send(std::move(pkt));
      });
    }
    for (std::size_t i = 0; i < 4; ++i) {
      engine.loop(i).schedule_at(SimTime(i) * 37 + 10, [&, i] {
        links[i]->a2b().send(make_packet(64));
      });
    }
    events = engine.run();
    for (const std::string& t : shard_trace) trace += t;
    char tail[96];
    std::snprintf(tail, sizeof tail, "windows=%llu posts=%llu\n",
                  static_cast<unsigned long long>(engine.stats().windows),
                  static_cast<unsigned long long>(engine.stats().cross_posts));
    trace += tail;
  };
  std::uint64_t events1 = 0, events2 = 0;
  std::string trace1, trace2;
  run_ring(events1, trace1);
  run_ring(events2, trace2);
  EXPECT_EQ(events1, events2);
  EXPECT_EQ(trace1, trace2);
  EXPECT_FALSE(trace1.empty());
}

// --- thread-safety annotation primitives ----------------------------------
//
// smt::Mutex / smt::MutexLock are what clang's -Wthread-safety sees; these
// tests pin their runtime behavior (they must be real locks, not just
// annotation carriers) and give TSan a workload to vet them under the
// sanitizer CI jobs.

class GuardedCounter {
 public:
  void bump() {
    const smt::MutexLock lock(mutex_);
    ++value_;
  }
  int value() {
    const smt::MutexLock lock(mutex_);
    return value_;
  }

 private:
  smt::Mutex mutex_;
  int value_ SMT_GUARDED_BY(mutex_) = 0;
};

TEST(ThreadAnnotations, MutexLockExcludesConcurrentWriters) {
  GuardedCounter counter;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrements; ++i) counter.bump();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kIncrements);
}

TEST(ThreadAnnotations, TryLockReportsContention) {
  smt::Mutex mutex;
  // Plain `if` rather than ASSERT-wrapping: clang's analysis tracks the
  // try_lock result only through a direct branch.
  if (mutex.try_lock()) {
    mutex.unlock();
  } else {
    ADD_FAILURE() << "uncontended try_lock failed";
  }
  mutex.lock();
  std::thread contender([&mutex] {
    // Held by the main thread: try_lock must fail, not block.
    if (mutex.try_lock()) {
      mutex.unlock();
      ADD_FAILURE() << "try_lock succeeded on a held mutex";
    }
  });
  contender.join();
  mutex.unlock();
}

TEST(ThreadAnnotations, NotionalCapabilityIsZeroCost) {
  // Purely static: acquire/release compile to nothing but let functions
  // REQUIRE the capability (ShardedEngine's parked_ role).
  smt::NotionalCapability role;
  role.acquire();
  role.release();
}

}  // namespace
}  // namespace smt::sim
