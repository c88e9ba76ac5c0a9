// TopologyBuilder: construction from a ScenarioConfig, its validation
// errors, the 2-host degenerate shape, and shard placement rules.
#include "stack/topology.hpp"

#include <gtest/gtest.h>

#include "netsim/shard.hpp"

namespace smt::stack {
namespace {

ScenarioConfig shape(std::size_t racks, std::size_t hosts_per_rack,
                     std::size_t spines) {
  ScenarioConfig scenario;
  scenario.topology.racks = racks;
  scenario.topology.hosts_per_rack = hosts_per_rack;
  scenario.topology.spines = spines;
  return scenario;
}

ScenarioConfig propagation(SimDuration propagation) {
  ScenarioConfig scenario;
  scenario.edge_link.propagation = propagation;
  return scenario;
}

TEST(TopologyBuilderTest, DefaultShapeIsTwoHostDirect) {
  sim::ShardedEngine engine(1);
  sim::EventLoop& loop = engine.loop(0);
  auto built = TopologyBuilder().build(engine);
  ASSERT_TRUE(built.ok());
  auto topology = std::move(built).take();
  EXPECT_EQ(topology->host_count(), 2u);
  EXPECT_EQ(topology->ip_of(0), 1u);
  EXPECT_EQ(topology->ip_of(1), 2u);
  EXPECT_NE(topology->direct_link(), nullptr);
  EXPECT_EQ(topology->fabric(), nullptr);
  EXPECT_EQ(&topology->host(0).loop(), &loop);
  EXPECT_EQ(topology->host(0).config().ip, 1u);
  EXPECT_EQ(topology->host(1).config().ip, 2u);
}

void send_raw(Host& from, std::uint32_t dst_ip, std::uint16_t dst_port) {
  sim::SegmentDescriptor seg;
  seg.segment.hdr.flow.src_ip = from.ip();
  seg.segment.hdr.flow.dst_ip = dst_ip;
  seg.segment.hdr.flow.src_port = 1000;
  seg.segment.hdr.flow.dst_port = dst_port;
  seg.segment.hdr.flow.proto = sim::Proto::smt;
  seg.segment.payload.assign(64, 0x5a);
  from.nic().post_segment(0, seg);
}

TEST(TopologyBuilderTest, DirectModeDeliversBothWays) {
  sim::ShardedEngine engine(1);
  auto topology = std::move(TopologyBuilder().build(engine)).take();
  int a_got = 0, b_got = 0;
  topology->host(0).register_endpoint(sim::Proto::smt, 80,
                                      [&](sim::Packet) { ++a_got; });
  topology->host(1).register_endpoint(sim::Proto::smt, 80,
                                      [&](sim::Packet) { ++b_got; });
  send_raw(topology->host(0), topology->ip_of(1), 80);
  send_raw(topology->host(1), topology->ip_of(0), 80);
  engine.run();
  EXPECT_EQ(a_got, 1);
  EXPECT_EQ(b_got, 1);
}

TEST(TopologyBuilderTest, PerHostOverridesApply) {
  sim::ShardedEngine engine(1);
  ScenarioConfig scenario;
  scenario.host.app_cores = 2;
  HostConfig big;
  big.app_cores = 6;
  auto built = TopologyBuilder(scenario).host_config(1, big).build(engine);
  ASSERT_TRUE(built.ok());
  auto topology = std::move(built).take();
  EXPECT_EQ(topology->host(0).app_core_count(), 2u);
  EXPECT_EQ(topology->host(1).app_core_count(), 6u);
  // The override's ip is still assigned by index, not taken from `big`.
  EXPECT_EQ(topology->host(1).config().ip, 2u);
}

TEST(TopologyBuilderTest, RejectsInvalidShape) {
  sim::ShardedEngine engine(1);
  // 4 racks and no spines: multi-rack traffic has nowhere to go.
  const auto built = TopologyBuilder(shape(4, 2, 0)).build(engine);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.code(), Errc::invalid_argument);
}

TEST(TopologyBuilderTest, RejectsInvalidHostTemplate) {
  sim::ShardedEngine engine(1);
  ScenarioConfig scenario;
  scenario.host.app_cores = 0;
  const auto built = TopologyBuilder(scenario).build(engine);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.code(), Errc::invalid_argument);
}

TEST(TopologyBuilderTest, RejectsHostShardInFabricMode) {
  sim::ShardedEngine engine(2, usec(1));
  const auto built = TopologyBuilder(shape(2, 2, 1))
                         .host_shard(0, 1)  // fabric placement is rack-affine
                         .build(engine);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.code(), Errc::invalid_argument);
}

TEST(TopologyBuilderTest, RejectsDirectCrossShardBelowLookahead) {
  sim::ShardedEngine engine(2, usec(2));
  // 1 us < lookahead: the cross-shard hop would deadlock.
  const auto built = TopologyBuilder(propagation(usec(1)))
                         .host_shard(0, 0)
                         .host_shard(1, 1)
                         .build(engine);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.code(), Errc::invalid_argument);
}

TEST(TopologyBuilderTest, DirectCrossShardAtLookaheadBuilds) {
  sim::ShardedEngine engine(2, usec(1));
  auto built = TopologyBuilder(propagation(usec(1)))
                   .host_shard(0, 0)
                   .host_shard(1, 1)
                   .build(engine);
  ASSERT_TRUE(built.ok());
  auto topology = std::move(built).take();
  EXPECT_EQ(topology->shard_of(0), 0u);
  EXPECT_EQ(topology->shard_of(1), 1u);
  EXPECT_EQ(&topology->loop_of(0), &engine.loop(0));
  EXPECT_EQ(&topology->loop_of(1), &engine.loop(1));
}

TEST(TopologyBuilderTest, FabricShardPlacementIsRackAffine) {
  sim::ShardedEngine engine(4, usec(1));
  auto built = TopologyBuilder(shape(8, 4, 4)).build(engine);
  ASSERT_TRUE(built.ok());
  auto topology = std::move(built).take();
  ASSERT_NE(topology->fabric(), nullptr);
  for (std::size_t i = 0; i < topology->host_count(); ++i) {
    const std::size_t rack = i / 4;
    EXPECT_EQ(topology->shard_of(i), rack % 4);
    EXPECT_EQ(&topology->loop_of(i), &engine.loop(rack % 4));
  }
}

TEST(TopologyBuilderTest, SingleRackRoutesThroughOneTor) {
  // 1 rack x 3 hosts, no spines: one ToR switch, no direct link. Host 2
  // stays idle.
  sim::ShardedEngine engine(1);
  auto built = TopologyBuilder(shape(1, 3, 0)).build(engine);
  ASSERT_TRUE(built.ok());
  auto topology = std::move(built).take();
  ASSERT_NE(topology->fabric(), nullptr);
  EXPECT_EQ(topology->direct_link(), nullptr);
  EXPECT_EQ(topology->fabric()->tor_count(), 1u);
  EXPECT_EQ(topology->fabric()->spine_count(), 0u);
  EXPECT_EQ(topology->host_count(), 3u);
  ASSERT_NE(topology->uplink(0), nullptr);

  int got = 0;
  topology->host(1).register_endpoint(sim::Proto::smt, 80,
                                      [&](sim::Packet) { ++got; });
  send_raw(topology->host(0), topology->ip_of(1), 80);
  engine.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(topology->switch_totals().forwarded, 1u);
}

TEST(TopologyBuilderTest, FabricModeDeliversAcrossRacks) {
  sim::ShardedEngine engine(1);
  auto built = TopologyBuilder(shape(2, 2, 2)).build(engine);
  ASSERT_TRUE(built.ok());
  auto topology = std::move(built).take();

  int got = 0;
  topology->host(3).register_endpoint(sim::Proto::smt, 80,
                                      [&](sim::Packet) { ++got; });
  send_raw(topology->host(0), topology->ip_of(3), 80);
  engine.run();
  EXPECT_EQ(got, 1);
  // ToR0 -> spine -> ToR1: three switch traversals.
  EXPECT_EQ(topology->switch_totals().forwarded, 3u);
}

TEST(TopologyBuilderTest, BuilderSeededFromScenarioConfig) {
  ScenarioConfig scenario = shape(2, 2, 1);
  scenario.host.app_cores = 3;
  sim::ShardedEngine engine(1);
  auto built = TopologyBuilder(scenario).build(engine);
  ASSERT_TRUE(built.ok());
  auto topology = std::move(built).take();
  EXPECT_EQ(topology->host_count(), 4u);
  EXPECT_EQ(topology->host(0).app_core_count(), 3u);
  EXPECT_EQ(topology->scenario().topology.spines, 1u);
}

}  // namespace
}  // namespace smt::stack
