#include "netsim/link.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

namespace smt::sim {
namespace {

Packet make_packet(std::size_t payload_size) {
  Packet pkt;
  pkt.payload.assign(payload_size, 0xab);
  return pkt;
}

TEST(Link, DeliversWithPropagationAndSerialization) {
  EventLoop loop;
  LinkConfig config;
  config.bandwidth_gbps = 100.0;
  config.propagation = usec(1);
  LinkDirection dir(loop, config);

  SimTime arrival = -1;
  dir.set_receiver([&](Packet) { arrival = loop.now(); });
  const Packet pkt = make_packet(1430);  // 1500 B on the wire
  dir.send(pkt);
  loop.run();
  // 1500 B = 12000 bits at 100 Gb/s = 120 ns serialization + 1000 ns prop.
  EXPECT_EQ(arrival, 120 + 1000);
}

TEST(Link, BackToBackPacketsQueueBehindEachOther) {
  EventLoop loop;
  LinkConfig config;
  config.bandwidth_gbps = 100.0;
  config.propagation = 0;
  LinkDirection dir(loop, config);

  std::vector<SimTime> arrivals;
  dir.set_receiver([&](Packet) { arrivals.push_back(loop.now()); });
  dir.send(make_packet(1430));
  dir.send(make_packet(1430));
  dir.send(make_packet(1430));
  loop.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], 120);
  EXPECT_EQ(arrivals[1], 240);  // serialized after the first
  EXPECT_EQ(arrivals[2], 360);
}

TEST(Link, SlowerLinkTakesLonger) {
  EventLoop loop;
  LinkConfig config;
  config.bandwidth_gbps = 10.0;
  config.propagation = 0;
  LinkDirection dir(loop, config);
  SimTime arrival = -1;
  dir.set_receiver([&](Packet) { arrival = loop.now(); });
  dir.send(make_packet(1430));
  loop.run();
  EXPECT_EQ(arrival, 1200);  // 10x slower than 100 Gb/s
}

TEST(Link, RandomLossDropsSomePackets) {
  EventLoop loop;
  LinkConfig config;
  config.fault.good_loss_rate = 0.5;  // uniform: the chain never goes bad
  config.fault.seed = 7;
  LinkDirection dir(loop, config);
  int received = 0;
  dir.set_receiver([&](Packet) { ++received; });
  for (int i = 0; i < 1000; ++i) dir.send(make_packet(100));
  loop.run();
  EXPECT_GT(received, 350);
  EXPECT_LT(received, 650);
  EXPECT_EQ(dir.stats().packets_sent, 1000u);
  EXPECT_EQ(dir.stats().dropped_by_fault, 1000u - std::uint64_t(received));
}

TEST(Link, DropPredicateKillsTargetedPackets) {
  EventLoop loop;
  LinkDirection dir(loop, LinkConfig{});
  std::vector<std::uint64_t> received;
  dir.set_receiver([&](Packet pkt) { received.push_back(pkt.hdr.msg_id); });
  dir.set_drop_predicate(
      [](const Packet& pkt) { return pkt.hdr.msg_id == 2; });
  for (std::uint64_t id = 1; id <= 3; ++id) {
    Packet pkt = make_packet(10);
    pkt.hdr.msg_id = id;
    dir.send(pkt);
  }
  loop.run();
  EXPECT_EQ(received, (std::vector<std::uint64_t>{1, 3}));
}

TEST(Link, FullDuplexDirectionsIndependent) {
  EventLoop loop;
  LinkConfig config;
  config.propagation = usec(1);
  Link link(loop, config);
  int a_received = 0, b_received = 0;
  link.a2b().set_receiver([&](Packet) { ++b_received; });
  link.b2a().set_receiver([&](Packet) { ++a_received; });
  link.a2b().send(make_packet(100));
  link.b2a().send(make_packet(100));
  loop.run();
  EXPECT_EQ(a_received, 1);
  EXPECT_EQ(b_received, 1);
}

TEST(Link, DeterministicLossPattern) {
  const auto run_once = [] {
    EventLoop loop;
    LinkConfig config;
    config.fault.good_loss_rate = 0.3;
    config.fault.seed = 42;
    LinkDirection dir(loop, config);
    std::vector<int> received;
    int counter = 0;
    dir.set_receiver([&](Packet pkt) {
      received.push_back(int(pkt.hdr.msg_id));
      (void)counter;
    });
    for (int i = 0; i < 100; ++i) {
      Packet pkt = make_packet(10);
      pkt.hdr.msg_id = std::uint64_t(i);
      dir.send(pkt);
    }
    loop.run();
    return received;
  };
  const std::vector<int> first = run_once();
  EXPECT_LT(first.size(), 100u);  // the stream really dropped packets
  EXPECT_EQ(first, run_once());
}

// --- fault-model bugfixes (adversity PR satellites) ------------------------

// The two directions of a Link share one LinkConfig; before the SplitMix64
// stream mix they seeded identical RNGs and drew byte-identical drop
// patterns (perfectly correlated bidirectional loss).
TEST(Link, DirectionsDrawDecorrelatedLossPatterns) {
  const auto run_once = [] {
    EventLoop loop;
    LinkConfig config;
    config.fault.good_loss_rate = 0.3;
    config.fault.seed = 42;
    config.propagation = 0;
    Link link(loop, config);
    std::vector<int> a2b_received, b2a_received;
    link.a2b().set_receiver(
        [&](Packet pkt) { a2b_received.push_back(int(pkt.hdr.msg_id)); });
    link.b2a().set_receiver(
        [&](Packet pkt) { b2a_received.push_back(int(pkt.hdr.msg_id)); });
    for (int i = 0; i < 200; ++i) {
      Packet pkt = make_packet(10);
      pkt.hdr.msg_id = std::uint64_t(i);
      link.a2b().send(pkt);
      link.b2a().send(pkt);
    }
    loop.run();
    return std::make_pair(a2b_received, b2a_received);
  };
  const auto [a2b, b2a] = run_once();
  EXPECT_LT(a2b.size(), 200u);  // both streams really dropped packets
  EXPECT_LT(b2a.size(), 200u);
  EXPECT_NE(a2b, b2a);  // decorrelated streams from one shared seed
  // ...while each stream stays run-to-run deterministic.
  EXPECT_EQ(run_once(), run_once());
}

TEST(Link, SplitDropCountersChargeOneCauseEach) {
  EventLoop loop;
  LinkConfig config;
  config.fault.good_loss_rate = 0.5;
  config.fault.seed = 7;
  LinkDirection dir(loop, config);
  int delivered = 0;
  dir.set_receiver([&](Packet) { ++delivered; });
  // Predicate kills even msg_ids BEFORE the loss draw sees them.
  dir.set_drop_predicate(
      [](const Packet& pkt) { return pkt.hdr.msg_id % 2 == 0; });
  for (std::uint64_t id = 0; id < 1000; ++id) {
    Packet pkt = make_packet(100);
    pkt.hdr.msg_id = id;
    dir.send(pkt);
  }
  loop.run();
  EXPECT_EQ(dir.stats().dropped_by_predicate, 500u);
  EXPECT_GT(dir.stats().dropped_by_fault, 0u);
  // Every offered packet was delivered or charged to exactly one cause.
  EXPECT_EQ(std::uint64_t(delivered) + dir.stats().dropped_by_predicate +
                dir.stats().dropped_by_fault,
            dir.stats().packets_sent);
}

// Contract: next_free_ advances for killed packets too — a dropped packet
// still occupied its serialisation slot, so loss cannot inflate measured
// link capacity. A survivor sent after a killed packet queues BEHIND it.
TEST(Link, DroppedPacketsStillChargeSerialisation) {
  EventLoop loop;
  LinkConfig config;
  config.bandwidth_gbps = 100.0;
  config.propagation = 0;
  LinkDirection dir(loop, config);
  std::vector<SimTime> arrivals;
  dir.set_receiver([&](Packet) { arrivals.push_back(loop.now()); });
  dir.set_drop_predicate(
      [](const Packet& pkt) { return pkt.hdr.msg_id == 1; });
  for (std::uint64_t id = 0; id < 3; ++id) {
    Packet pkt = make_packet(1430);  // 120 ns each at 100 Gb/s
    pkt.hdr.msg_id = id;
    dir.send(pkt);
  }
  loop.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 120);
  // The killed middle packet held [120, 240): the third arrives at 360,
  // NOT 240 — the wire was not returned to the link.
  EXPECT_EQ(arrivals[1], 360);
  EXPECT_EQ(dir.stats().dropped_by_predicate, 1u);
}

// --- fault model (tentpole) ------------------------------------------------

TEST(Link, GilbertElliottBurstsLoseMoreThanUniform) {
  const auto deliveries = [](FaultProfile fault) {
    EventLoop loop;
    LinkConfig config;
    config.propagation = 0;
    config.fault = fault;
    LinkDirection dir(loop, config);
    int received = 0;
    dir.set_receiver([&](Packet) { ++received; });
    for (int i = 0; i < 5000; ++i) dir.send(make_packet(100));
    loop.run();
    return received;
  };
  FaultProfile bursty;
  bursty.p_good_to_bad = 0.02;
  bursty.p_bad_to_good = 0.2;
  bursty.bad_loss_rate = 0.8;  // ~9% average loss, clustered
  const int received = deliveries(bursty);
  EXPECT_GT(received, 3500);
  EXPECT_LT(received, 4900);
  // Determinism: same profile, same stream, same count.
  EXPECT_EQ(deliveries(bursty), received);
}

TEST(Link, CorruptionDeliversFlaggedPackets) {
  EventLoop loop;
  LinkConfig config;
  config.propagation = 0;
  config.fault.corrupt_rate = 0.3;
  LinkDirection dir(loop, config);
  int clean = 0, corrupted = 0;
  dir.set_receiver([&](Packet pkt) {
    (pkt.hdr.corrupted ? corrupted : clean) += 1;
  });
  for (int i = 0; i < 1000; ++i) dir.send(make_packet(100));
  loop.run();
  // Deliver-but-flag: nothing is dropped at the link...
  EXPECT_EQ(clean + corrupted, 1000);
  EXPECT_EQ(dir.stats().dropped_by_fault, 0u);
  // ...and the corruption counter matches what receivers saw.
  EXPECT_EQ(dir.stats().packets_corrupted, std::uint64_t(corrupted));
  EXPECT_GT(corrupted, 150);
  EXPECT_LT(corrupted, 450);
}

TEST(Link, ReorderJitterOnlyAddsDelayAndCanOvertake) {
  EventLoop loop;
  LinkConfig config;
  config.bandwidth_gbps = 100.0;
  config.propagation = usec(1);
  config.fault.reorder_rate = 0.5;
  config.fault.reorder_jitter = usec(50);
  LinkDirection dir(loop, config);
  std::vector<std::uint64_t> order;
  std::vector<SimTime> arrival_of(200, -1);  // indexed by msg_id
  std::vector<SimTime> baselines(200, 0);    // no-fault arrival per packet
  dir.set_receiver([&](Packet pkt) {
    order.push_back(pkt.hdr.msg_id);
    arrival_of[pkt.hdr.msg_id] = loop.now();
  });
  SimTime cursor = 0;
  for (std::uint64_t id = 0; id < 200; ++id) {
    Packet pkt = make_packet(1430);
    pkt.hdr.msg_id = id;
    cursor += 120;  // serialisation of 1500 wire bytes at 100 Gb/s
    baselines[id] = cursor + usec(1);
    dir.send(pkt);
  }
  loop.run();
  ASSERT_EQ(order.size(), 200u);
  // Jitter never delivers EARLIER than the unjittered arrival (the
  // cross-shard lookahead contract depends on this)...
  for (std::size_t id = 0; id < 200; ++id) {
    EXPECT_GE(arrival_of[id], baselines[id]);
  }
  // ...and with 50 us of jitter against 120 ns spacing, some packet
  // must have overtaken another.
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()));
}

TEST(Link, FlapWindowDropsEverythingAndResetsCursor) {
  EventLoop loop;
  LinkConfig config;
  config.bandwidth_gbps = 100.0;
  config.propagation = 0;
  config.fault.flap_period = usec(10);
  config.fault.flap_down = usec(4);
  config.fault.flap_offset = usec(2);
  LinkDirection dir(loop, config);
  std::vector<SimTime> arrivals;
  dir.set_receiver([&](Packet) { arrivals.push_back(loop.now()); });
  // One packet every microsecond for 20 us: sends at t=2..5 us and
  // t=12..15 us fall inside down windows.
  for (int i = 0; i < 20; ++i) {
    loop.schedule_at(usec(i), [&] { dir.send(make_packet(1430)); });
  }
  loop.run();
  EXPECT_EQ(dir.stats().packets_sent, 20u);
  EXPECT_EQ(dir.stats().dropped_by_fault, 8u);
  EXPECT_EQ(arrivals.size(), 12u);
  // Every survivor was sent onto an idle wire: arrival = send + 120 ns.
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i] % 1000, 120);
  }
}

TEST(Link, FlapUpTransitionResetsSerialisationCursor) {
  EventLoop loop;
  LinkConfig config;
  config.bandwidth_gbps = 100.0;
  config.propagation = 0;
  config.fault.flap_period = usec(100);
  config.fault.flap_down = usec(4);
  config.fault.flap_offset = usec(2);
  LinkDirection dir(loop, config);
  SimTime probe_arrival = -1;
  dir.set_receiver([&](Packet pkt) {
    if (pkt.hdr.msg_id == 999) probe_arrival = loop.now();
  });
  // Build a 12 us serialisation backlog before the outage at t=2 us.
  for (int i = 0; i < 100; ++i) dir.send(make_packet(1430));
  // A send inside the down window [2, 6) us dies and marks the outage.
  loop.schedule_at(usec(3), [&] { dir.send(make_packet(1430)); });
  // The first post-outage send finds a RESET cursor: it serialises from
  // its own send time (arrival 6.12 us), not behind the stale pre-outage
  // backlog (which would have meant 12.12 us).
  loop.schedule_at(usec(6), [&] {
    Packet pkt = make_packet(1430);
    pkt.hdr.msg_id = 999;
    dir.send(pkt);
  });
  loop.run();
  EXPECT_EQ(probe_arrival, usec(6) + 120);
  EXPECT_EQ(dir.stats().dropped_by_fault, 1u);
}

}  // namespace
}  // namespace smt::sim
