// The 128-host Clos acceptance scenario: an 8-rack x 16-host 3-tier
// fabric (4 spines, 2 aggs/pod, 4 racks/pod) built through
// stack::TopologyBuilder, driven by the N-host RpcFabric incast shape
// (one client per remote rack -> one server), must be byte-identical
// run-to-run under sim::ShardedEngine — at 1 shard and at 4 shards: every
// RPC completion and the whole Topology::counters() record (all 128 hosts,
// every uplink, every switch port).
//
// Run-to-run determinism is exact PER shard count: the builder places
// rack r on shard r % shards, cross-shard fabric hops go through the
// (when, src, seq)-ordered mailbox, and nothing in the construction or
// the workload consults wall-clock or unseeded randomness. Across shard
// counts the mailbox preserves arrival times, so the fabric performs
// identical work (completions, frames, switch forwards) even where
// same-timestamp ties legitimately re-order micro-schedules (see
// shard_determinism_test.cpp for the two-host statement of that caveat).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "apps/rpc.hpp"

namespace smt::apps {
namespace {

// One closed-loop client per remote rack (7 clients -> the rack-0 server):
// every RPC crosses the fabric, most cross pods, and with 4 shards every
// client lives on a different shard than at 1 shard.
std::pair<ClosedLoopResult, stack::Topology::Counters> run_incast(
    std::size_t shards) {
  sim::ShardedEngine engine(shards, usec(1));

  stack::ScenarioConfig scenario;
  scenario.topology.racks = 8;
  scenario.topology.hosts_per_rack = 16;
  scenario.topology.spines = 4;
  scenario.topology.aggs_per_pod = 2;
  scenario.topology.racks_per_pod = 4;
  scenario.host.app_cores = 2;
  scenario.host.softirq_cores = 2;
  auto built = stack::TopologyBuilder(scenario).build(engine);
  if (!built.ok()) {
    ADD_FAILURE() << "topology build failed: " << built.error().message;
    std::abort();
  }
  auto topology = std::move(built).take();
  EXPECT_EQ(topology->host_count(), 128u);

  RpcFabricConfig config;
  config.kind = TransportKind::smt_hw;
  std::vector<std::size_t> clients;
  for (std::size_t rack = 1; rack < 8; ++rack) clients.push_back(rack * 16);
  RpcFabric fabric(config, *topology, /*server_index=*/0, clients);

  // With 4 shards the 7 clients span every shard thread; ClosedLoop keeps
  // each client's completions apart until result() merges them.
  ClosedLoop rpcs(fabric, {.channels_per_client = 1,
                           .ops_per_client = 24,
                           .request_bytes = 256,
                           .response_bytes = 1024});
  rpcs.start();
  engine.run();
  return {rpcs.result(), topology->counters()};
}

TEST(FabricDeterminism, OneShardRunToRunByteIdentical) {
  const auto [rpc1, counters1] = run_incast(1);
  const auto [rpc2, counters2] = run_incast(1);
  ASSERT_EQ(rpc1.completions.size(), 7u * 24u);
  EXPECT_GT(counters1.switch_totals.forwarded, 0u);
  EXPECT_TRUE(rpc1 == rpc2) << "1-shard 128-host RPCs diverged";
  EXPECT_TRUE(counters1 == counters2) << "1-shard 128-host counters diverged";
}

TEST(FabricDeterminism, FourShardRunToRunByteIdentical) {
  const auto [rpc1, counters1] = run_incast(4);
  const auto [rpc2, counters2] = run_incast(4);
  ASSERT_EQ(rpc1.completions.size(), 7u * 24u);
  EXPECT_GT(counters1.switch_totals.forwarded, 0u);
  EXPECT_TRUE(rpc1 == rpc2) << "4-shard 128-host RPCs diverged";
  EXPECT_TRUE(counters1 == counters2) << "4-shard 128-host counters diverged";
}

TEST(FabricDeterminism, ShardCountsPerformIdenticalWork) {
  const auto [one, one_counters] = run_incast(1);
  const auto [four, four_counters] = run_incast(4);
  EXPECT_EQ(one.completions.size(), four.completions.size());
  const sim::NicCounters& one_server = one_counters.hosts.at(0).nic;
  const sim::NicCounters& four_server = four_counters.hosts.at(0).nic;
  EXPECT_EQ(one_server.rx_frames, four_server.rx_frames);
  EXPECT_EQ(one_server.rx_delivered, four_server.rx_delivered);
  EXPECT_EQ(one_server.segments, four_server.segments);
  EXPECT_EQ(one_server.records_encrypted, four_server.records_encrypted);
  EXPECT_TRUE(one_counters.switch_totals == four_counters.switch_totals);
}

}  // namespace
}  // namespace smt::apps
