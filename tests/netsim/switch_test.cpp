#include "netsim/switch.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>

namespace smt::sim {
namespace {

class SwitchTest : public ::testing::Test {
 protected:
  SwitchTest() : sw_(loop_, config()) {
    port_a_ = sw_.add_port([this](Packet pkt) { to_a_.push_back(std::move(pkt)); });
    port_b_ = sw_.add_port([this](Packet pkt) { to_b_.push_back(std::move(pkt)); });
    sw_.set_route(1, port_a_);
    sw_.set_route(2, port_b_);
  }

  static SwitchConfig config() {
    SwitchConfig c;
    c.queue_capacity_bytes = 8 * 1024;  // tiny, to force overflow in tests
    return c;
  }

  Packet data_packet(std::uint32_t dst_ip, std::size_t size,
                     std::uint64_t msg_id = 1) {
    Packet pkt;
    pkt.hdr.flow.dst_ip = dst_ip;
    pkt.hdr.type = PacketType::data;
    pkt.hdr.msg_id = msg_id;
    pkt.payload.assign(size, 0x5a);
    return pkt;
  }

  EventLoop loop_;
  Switch sw_;
  std::size_t port_a_ = 0, port_b_ = 0;
  std::vector<Packet> to_a_, to_b_;
};

TEST_F(SwitchTest, RoutesByDestination) {
  sw_.receive(data_packet(1, 100));
  sw_.receive(data_packet(2, 100));
  loop_.run();
  EXPECT_EQ(to_a_.size(), 1u);
  EXPECT_EQ(to_b_.size(), 1u);
}

TEST_F(SwitchTest, UnroutableDropped) {
  sw_.receive(data_packet(99, 100));
  loop_.run();
  EXPECT_EQ(sw_.stats().dropped, 1u);
  // An unrouted packet reaches no port, so no port counts it.
  EXPECT_EQ(sw_.port_stats(port_a_), Switch::PortStats{});
  EXPECT_EQ(sw_.port_stats(port_b_), Switch::PortStats{});
  EXPECT_TRUE(to_a_.empty() && to_b_.empty());
}

TEST_F(SwitchTest, OverflowTrimsInsteadOfDropping) {
  // Flood port A beyond its 8 KB queue: overflow packets arrive as
  // trimmed stubs with metadata intact.
  for (int i = 0; i < 12; ++i) {
    Packet pkt = data_packet(1, 1400, std::uint64_t(i));
    pkt.hdr.tso_off = std::uint32_t(i) * 1400;
    sw_.receive(std::move(pkt));
  }
  loop_.run();
  EXPECT_EQ(to_a_.size(), 12u);  // everything arrives, some as stubs
  EXPECT_GT(sw_.stats().trimmed, 0u);
  std::size_t stubs = 0;
  for (const Packet& pkt : to_a_) {
    if (pkt.hdr.trimmed) {
      ++stubs;
      EXPECT_TRUE(pkt.payload.empty());
      EXPECT_EQ(pkt.hdr.trimmed_len, 1400u);  // original length preserved
    }
  }
  EXPECT_EQ(stubs, sw_.stats().trimmed);
}

TEST_F(SwitchTest, TrimmingDisabledDrops) {
  SwitchConfig c = config();
  c.trimming_enabled = false;
  Switch sw2(loop_, c);
  std::vector<Packet> out;
  const auto port = sw2.add_port([&](Packet pkt) { out.push_back(std::move(pkt)); });
  sw2.set_route(1, port);
  for (int i = 0; i < 12; ++i) sw2.receive(data_packet(1, 1400));
  loop_.run();
  EXPECT_LT(out.size(), 12u);
  EXPECT_GT(sw2.stats().dropped, 0u);
}

TEST_F(SwitchTest, ControlPacketsBypassDataQueuePressure) {
  // Fill the data queue, then send a GRANT: it must not be trimmed or
  // dropped, and strict priority delivers it before queued data.
  for (int i = 0; i < 5; ++i) sw_.receive(data_packet(1, 1400));
  Packet grant;
  grant.hdr.flow.dst_ip = 1;
  grant.hdr.type = PacketType::grant;
  sw_.receive(grant);
  loop_.run();
  ASSERT_GE(to_a_.size(), 6u);
  // The grant overtakes at least the tail of the data queue.
  std::size_t grant_pos = 0;
  for (std::size_t i = 0; i < to_a_.size(); ++i) {
    if (to_a_[i].hdr.type == PacketType::grant) grant_pos = i;
  }
  EXPECT_LT(grant_pos, to_a_.size() - 1);
  EXPECT_EQ(sw_.stats().trimmed, 0u);
  EXPECT_EQ(sw_.stats().dropped, 0u);
}

TEST_F(SwitchTest, SerializationPacesDelivery) {
  sw_.receive(data_packet(1, 1430));
  sw_.receive(data_packet(1, 1430));
  loop_.run();
  ASSERT_EQ(to_a_.size(), 2u);
  // 1500 B at 100 Gb/s = 120 ns per packet after the forwarding latency.
  EXPECT_EQ(loop_.now(), 300 + 2 * 120);
}

PacketHeader flow_header(std::uint32_t src_ip, std::uint16_t src_port,
                         std::uint32_t dst_ip) {
  PacketHeader hdr;
  hdr.flow.src_ip = src_ip;
  hdr.flow.src_port = src_port;
  hdr.flow.dst_ip = dst_ip;
  hdr.flow.dst_port = 80;
  hdr.flow.proto = Proto::smt;
  return hdr;
}

TEST(SwitchEcmp, SelectionIsDeterministicAcrossInstances) {
  // route_port is a pure function of (flow hash, seed, group): the same
  // flow maps to the same port on every call and on a freshly built
  // identical switch — path choices survive restarts and shard counts.
  EventLoop loop;
  const auto build = [&loop] {
    SwitchConfig c;
    c.ecmp_seed = 0x1234;
    auto sw = std::make_unique<Switch>(loop, c);
    for (int i = 0; i < 4; ++i) sw->add_port([](Packet) {});
    sw->set_ecmp_route(7, {0, 1, 2, 3});
    return sw;
  };
  const auto first = build();
  const auto second = build();
  for (std::uint16_t port = 1000; port < 1064; ++port) {
    const PacketHeader hdr = flow_header(1, port, 7);
    const std::size_t choice = first->route_port(hdr);
    EXPECT_EQ(choice, first->route_port(hdr));
    EXPECT_EQ(choice, second->route_port(hdr));
  }
}

TEST(SwitchEcmp, DistinctFlowsSpreadAcrossAllPorts) {
  EventLoop loop;
  SwitchConfig c;
  Switch sw(loop, c);
  for (int i = 0; i < 4; ++i) sw.add_port([](Packet) {});
  sw.set_ecmp_route(7, {0, 1, 2, 3});
  std::set<std::size_t> used;
  for (std::uint16_t port = 1000; port < 1064; ++port) {
    used.insert(sw.route_port(flow_header(1, port, 7)));
  }
  EXPECT_EQ(used.size(), 4u);  // 64 flows cover every next hop
}

TEST(SwitchEcmp, SeedDecorrelatesConsecutiveHops) {
  // Two switches with the same group but different seeds (consecutive
  // hops on a path) must not make identical choices for every flow —
  // otherwise a collision at hop 1 persists at hop 2.
  EventLoop loop;
  SwitchConfig c1, c2;
  c1.ecmp_seed = 1;
  c2.ecmp_seed = 2;
  Switch hop1(loop, c1), hop2(loop, c2);
  for (int i = 0; i < 4; ++i) {
    hop1.add_port([](Packet) {});
    hop2.add_port([](Packet) {});
  }
  hop1.set_ecmp_route(7, {0, 1, 2, 3});
  hop2.set_ecmp_route(7, {0, 1, 2, 3});
  int differing = 0;
  for (std::uint16_t port = 1000; port < 1064; ++port) {
    const PacketHeader hdr = flow_header(1, port, 7);
    if (hop1.route_port(hdr) != hop2.route_port(hdr)) ++differing;
  }
  EXPECT_GT(differing, 16);  // ~3/4 of flows expected to diverge
}

TEST(SwitchEcmp, DefaultRouteCatchesUnknownDestinations) {
  EventLoop loop;
  Switch sw(loop, SwitchConfig{});
  std::vector<Packet> up;
  const auto uplink = sw.add_port([&](Packet p) { up.push_back(std::move(p)); });
  sw.add_port([](Packet) {});
  sw.set_default_route({uplink});
  EXPECT_EQ(sw.route_port(flow_header(1, 1000, 42)), uplink);
  Packet pkt;
  pkt.hdr = flow_header(1, 1000, 42);
  pkt.payload.assign(64, 0x01);
  sw.receive(std::move(pkt));
  loop.run();
  EXPECT_EQ(up.size(), 1u);

  Switch bare(loop, SwitchConfig{});
  bare.add_port([](Packet) {});
  EXPECT_EQ(bare.route_port(flow_header(1, 1000, 42)), Switch::kNoRoute);
}

TEST_F(SwitchTest, PerPortCountersChargeTheOverflowingPort) {
  // Flood port A past its 8 KB queue while port B stays idle: trims land
  // on A's counters only, and the aggregate matches the per-port sums.
  for (int i = 0; i < 12; ++i) sw_.receive(data_packet(1, 1400));
  sw_.receive(data_packet(2, 100));
  loop_.run();
  const auto& a = sw_.port_stats(port_a_);
  const auto& b = sw_.port_stats(port_b_);
  EXPECT_EQ(a.forwarded + b.forwarded, sw_.stats().forwarded);
  EXPECT_EQ(a.trimmed, sw_.stats().trimmed);
  EXPECT_GT(a.trimmed, 0u);
  EXPECT_GT(a.max_queued_bytes, 0u);
  EXPECT_LE(a.max_queued_bytes, 8u * 1024u);
  EXPECT_EQ(b.trimmed, 0u);
  EXPECT_EQ(b.dropped, 0u);
  EXPECT_EQ(b.forwarded, 1u);
}

TEST(SwitchEcmp, PerPortDropCountersWithTrimmingDisabled) {
  EventLoop loop;
  SwitchConfig c;
  c.trimming_enabled = false;
  c.queue_capacity_bytes = 4 * 1024;
  Switch sw(loop, c);
  std::vector<Packet> out;
  const auto port = sw.add_port([&](Packet p) { out.push_back(std::move(p)); });
  sw.set_route(1, port);
  for (int i = 0; i < 12; ++i) {
    Packet pkt;
    pkt.hdr = flow_header(2, 1000, 1);
    pkt.payload.assign(1400, 0x5a);
    sw.receive(std::move(pkt));
  }
  loop.run();
  EXPECT_GT(sw.port_stats(port).dropped, 0u);
  EXPECT_EQ(sw.port_stats(port).dropped, sw.stats().dropped);
  EXPECT_EQ(out.size() + sw.stats().dropped, 12u);
}

TEST(SwitchEcmp, PortLatencyPipelinesDelivery) {
  // Egress latency delays delivery but does not serialise behind it: two
  // packets arrive one serialisation quantum apart, both shifted by the
  // propagation delay.
  EventLoop loop;
  Switch sw(loop, SwitchConfig{});
  std::vector<SimTime> arrivals;
  const auto port = sw.add_port([&](Packet) { arrivals.push_back(loop.now()); });
  sw.set_port_latency(port, usec(2));
  sw.set_route(1, port);
  for (int i = 0; i < 2; ++i) {
    Packet pkt;
    pkt.hdr = flow_header(2, 1000, 1);
    pkt.payload.assign(1430, 0x5a);
    sw.receive(std::move(pkt));
  }
  loop.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // forwarding(300) + serialisation(120) + propagation(2000), then the
  // second packet one 120 ns quantum later — not 2 us later.
  EXPECT_EQ(arrivals[0], 300 + 120 + usec(2));
  EXPECT_EQ(arrivals[1] - arrivals[0], 120);
}

// ---------------------------------------------------------------------------
// Link-health state machine + rank-preserving ECMP group shrink.

/// A flap that is DOWN for the first 500 us of the run and up afterwards
/// — long enough to observe dark-path behaviour mid-run, short enough
/// that the probe schedule restores the port and the loop drains.
FaultProfile down_early_fault() {
  FaultProfile f;
  f.flap_period = sec(1);
  f.flap_down = usec(500);
  f.flap_offset = 0;
  f.seed = 5;
  return f;
}

TEST(SwitchHealth, GroupShrinkPreservesRanksAndHealthyPaths) {
  // Darken one port of a 4-way group, then compare route_port against
  // two references: a clean switch (flows whose nominal port is healthy
  // must be untouched — byte-identical selection) and a switch whose
  // group simply omits the dark port (re-steered flows must land exactly
  // on the rank-preserving shrunken selection).
  EventLoop loop;
  SwitchConfig c;
  c.ecmp_seed = 0x1234;
  c.health_dark_threshold = 1;
  Switch sw(loop, c);
  for (int i = 0; i < 4; ++i) sw.add_port([](Packet) {});
  sw.set_ecmp_route(7, {0, 1, 2, 3});
  sw.set_route(5, 2);  // kill traffic pinned to port 2
  sw.set_port_fault(2, down_early_fault(), /*stream=*/0);

  SwitchConfig clean_config = c;
  clean_config.health_dark_threshold = 0;
  Switch clean(loop, clean_config);
  for (int i = 0; i < 4; ++i) clean.add_port([](Packet) {});
  clean.set_ecmp_route(7, {0, 1, 2, 3});
  Switch shrunk(loop, clean_config);
  for (int i = 0; i < 4; ++i) shrunk.add_port([](Packet) {});
  shrunk.set_ecmp_route(7, {0, 1, 3});  // group order, rank 2 deleted

  Packet kill;
  kill.hdr = flow_header(1, 999, 5);
  kill.payload.assign(64, 0x5a);
  sw.receive(std::move(kill));  // fault-killed at drain => port 2 dark

  std::size_t checked = 0, resteered = 0;
  loop.schedule_at(usec(50), [&] {
    ASSERT_TRUE(sw.port_dark(2));
    for (std::uint16_t port = 1000; port < 1128; ++port) {
      const PacketHeader hdr = flow_header(1, port, 7);
      const std::size_t nominal = clean.route_port(hdr);
      if (nominal != 2) {
        // Healthy-path selection stays byte-identical.
        EXPECT_EQ(sw.route_port(hdr), nominal);
      } else {
        // Re-steered selection == nominal selection over the shrunken
        // group (rank preservation).
        EXPECT_EQ(sw.route_port(hdr), shrunk.route_port(hdr));
        EXPECT_NE(sw.route_port(hdr), 2u);
        ++resteered;
      }
      ++checked;
    }
  });
  loop.run();
  EXPECT_EQ(checked, 128u);
  EXPECT_GT(resteered, 0u);  // some flows really did hash onto port 2
}

TEST(SwitchHealth, DarkProbeRestoreCycle) {
  EventLoop loop;
  SwitchConfig c;
  c.health_dark_threshold = 1;
  c.health_probe_interval = usec(100);
  Switch sw(loop, c);
  std::vector<Packet> out;
  const auto port = sw.add_port([&](Packet p) { out.push_back(std::move(p)); });
  sw.set_route(1, port);
  sw.set_port_fault(port, down_early_fault(), /*stream=*/0);

  Packet pkt;
  pkt.hdr = flow_header(2, 1000, 1);
  pkt.payload.assign(64, 0x5a);
  sw.receive(std::move(pkt));

  bool dark_mid_run = false;
  loop.schedule_at(usec(50), [&] { dark_mid_run = sw.port_dark(port); });
  loop.run();
  EXPECT_TRUE(dark_mid_run);
  // The flap window ends at 500 us; the next probe after that restores
  // the port, and the route is the nominal one again.
  EXPECT_FALSE(sw.port_dark(port));
  EXPECT_EQ(sw.route_port(flow_header(2, 1000, 1)), port);
  EXPECT_EQ(sw.stats().dark_transitions, 1u);
  EXPECT_EQ(sw.port_stats(port).dark_transitions, 1u);
  EXPECT_EQ(sw.stats().fault_dropped, 1u);
  EXPECT_TRUE(out.empty());  // the triggering packet was killed
}

TEST(SwitchHealth, AllPortsDarkDropsAndCounts) {
  // Single-port group: once the port is dark there is no healthy
  // alternative — packets die as dropped_dark (split from queue drops)
  // and route_port reports kNoRoute while dark.
  EventLoop loop;
  SwitchConfig c;
  c.health_dark_threshold = 1;
  Switch sw(loop, c);
  std::vector<Packet> out;
  const auto port = sw.add_port([&](Packet p) { out.push_back(std::move(p)); });
  sw.set_route(1, port);
  sw.set_port_fault(port, down_early_fault(), /*stream=*/0);

  Packet first;
  first.hdr = flow_header(2, 1000, 1);
  first.payload.assign(64, 0x5a);
  sw.receive(std::move(first));

  loop.schedule_at(usec(50), [&] {
    EXPECT_EQ(sw.route_port(flow_header(2, 1000, 1)), Switch::kNoRoute);
    Packet second;
    second.hdr = flow_header(2, 1001, 1);
    second.payload.assign(64, 0x5a);
    sw.receive(std::move(second));
  });
  loop.run();
  EXPECT_EQ(sw.stats().dropped_dark, 1u);
  EXPECT_EQ(sw.port_stats(port).dropped_dark, 1u);
  EXPECT_EQ(sw.stats().dropped, 0u);  // dark drops are their own cause
  EXPECT_TRUE(out.empty());
}

TEST(SwitchHealth, StatsAreThePortSumsPlusUnroutedDrops) {
  // The ports are the only store of a switch's facts: after traffic that
  // forwards, trims, tail-drops, fault-drops, corrupts and re-steers,
  // stats() is exactly their sum plus the packets no route accepted.
  EventLoop loop;
  SwitchConfig c;
  c.queue_capacity_bytes = 4 * 1024;
  c.health_dark_threshold = 1;
  Switch sw(loop, c);
  for (int i = 0; i < 4; ++i) sw.add_port([](Packet) {});
  sw.set_route(1, 0);            // the congested port
  sw.set_route(5, 2);            // pinned to the port that goes dark
  sw.set_ecmp_route(7, {2, 3});  // re-steered off port 2 while dark
  sw.set_port_fault(2, down_early_fault(), /*stream=*/0);
  FaultProfile corrupting;
  corrupting.corrupt_rate = 0.5;
  corrupting.seed = 9;
  sw.set_port_fault(3, corrupting, /*stream=*/1);

  const auto send = [&sw](std::uint32_t dst, std::uint16_t port,
                          std::size_t bytes) {
    Packet pkt;
    pkt.hdr = flow_header(1, port, dst);
    pkt.hdr.type = PacketType::data;
    pkt.payload.assign(bytes, 0x5a);
    sw.receive(std::move(pkt));
  };
  send(1, 1000, c.queue_capacity_bytes - kWireHeaderBytes);  // fills port 0
  for (int i = 0; i < 2; ++i) send(1, 1000, 0);     // header-only: dropped
  for (int i = 0; i < 3; ++i) send(1, 1000, 1400);  // trimmed
  send(5, 999, 64);                                 // killed: port 2 dark
  send(99, 1000, 64);                               // no route
  loop.schedule_at(usec(50), [&] {
    for (std::uint16_t port = 1000; port < 1032; ++port) send(7, port, 64);
  });
  loop.run();

  const Switch::Stats stats = sw.stats();
  EXPECT_GT(stats.forwarded, 0u);
  EXPECT_GT(stats.trimmed, 0u);
  EXPECT_GT(stats.fault_dropped, 0u);
  EXPECT_GT(stats.corrupted, 0u);
  EXPECT_GT(stats.dark_transitions, 0u);
  EXPECT_GT(stats.resteered_flows, 0u);
  Switch::Stats sum;
  sum.dropped = 1;  // the unrouted packet
  for (std::size_t p = 0; p < sw.port_count(); ++p) sum += sw.port_stats(p);
  EXPECT_EQ(sw.port_stats(0).dropped, 2u);  // the tail drops
  EXPECT_EQ(stats, sum);
}

TEST(SwitchHealth, ResteeredFlowsCountsDistinctFlows) {
  EventLoop loop;
  SwitchConfig c;
  c.ecmp_seed = 0x1234;
  c.health_dark_threshold = 1;
  Switch sw(loop, c);
  std::vector<Packet> delivered;
  sw.add_port([&](Packet p) { delivered.push_back(std::move(p)); });
  sw.add_port([&](Packet p) { delivered.push_back(std::move(p)); });
  sw.set_ecmp_route(7, {0, 1});
  sw.set_route(5, 0);  // kill traffic pinned to port 0
  sw.set_port_fault(0, down_early_fault(), /*stream=*/0);

  SwitchConfig clean_config = c;
  clean_config.health_dark_threshold = 0;
  Switch clean(loop, clean_config);
  clean.add_port([](Packet) {});
  clean.add_port([](Packet) {});
  clean.set_ecmp_route(7, {0, 1});

  Packet kill;
  kill.hdr = flow_header(1, 999, 5);
  kill.payload.assign(64, 0x5a);
  sw.receive(std::move(kill));

  std::size_t expect_resteered = 0;
  loop.schedule_at(usec(50), [&] {
    ASSERT_TRUE(sw.port_dark(0));
    for (std::uint16_t port = 1000; port < 1032; ++port) {
      const PacketHeader hdr = flow_header(1, port, 7);
      if (clean.route_port(hdr) != 0) continue;
      ++expect_resteered;
      // Two packets of the SAME flow: the distinct-flow counter must
      // move once, not twice.
      for (int rep = 0; rep < 2; ++rep) {
        Packet pkt;
        pkt.hdr = hdr;
        pkt.payload.assign(64, 0x5a);
        sw.receive(std::move(pkt));
      }
    }
  });
  loop.run();
  EXPECT_GT(expect_resteered, 0u);
  EXPECT_EQ(sw.stats().resteered_flows, expect_resteered);
  EXPECT_EQ(sw.port_stats(0).resteered_flows, expect_resteered);
  // Everything re-steered onto healthy port 1 was actually delivered.
  EXPECT_EQ(delivered.size(), 2 * expect_resteered);
}

}  // namespace
}  // namespace smt::sim
