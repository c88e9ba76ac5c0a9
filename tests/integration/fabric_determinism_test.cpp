// The 128-host Clos acceptance scenario: an 8-rack x 16-host 3-tier
// fabric (4 spines, 2 aggs/pod, 4 racks/pod) built through
// stack::TopologyBuilder, driven by the N-host RpcFabric incast shape
// (one client per remote rack -> one server), must be byte-identical
// run-to-run under sim::ShardedEngine — at 1 shard and at 4 shards.
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

#include <cstdint>
#include <vector>

#include "apps/rpc.hpp"

namespace smt::apps {
namespace {

struct RunSnapshot {
  ClosedLoopResult rpc;
  std::uint64_t server_app_busy_ns = 0;
  std::uint64_t server_softirq_busy_ns = 0;
  std::uint64_t server_irq_busy_ns = 0;
  std::uint64_t client_busy_ns = 0;
  sim::NicCounters server_nic;
  sim::Switch::Stats switches;

  friend bool operator==(const RunSnapshot&, const RunSnapshot&) = default;
};

// One closed-loop client per remote rack (7 clients -> the rack-0 server):
// every RPC crosses the fabric, most cross pods, and with 4 shards every
// client lives on a different shard than at 1 shard.
RunSnapshot run_incast(std::size_t shards) {
  sim::ShardedEngine engine(shards, usec(1));

  stack::HostConfig hc;
  hc.app_cores = 2;
  hc.softirq_cores = 2;
  auto built = stack::TopologyBuilder()
                   .racks(8)
                   .hosts_per_rack(16)
                   .spines(4)
                   .aggs_per_pod(2)
                   .racks_per_pod(4)
                   .host_config(hc)
                   .build(engine);
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

  RunSnapshot snap;
  snap.rpc = rpcs.result();
  snap.server_app_busy_ns = fabric.server_host().total_app_busy_ns();
  snap.server_softirq_busy_ns = fabric.server_host().total_softirq_busy_ns();
  snap.server_irq_busy_ns = fabric.server_host().total_irq_busy_ns();
  snap.client_busy_ns = fabric.client_busy_ns();
  snap.server_nic = fabric.server_host().nic().counters();
  snap.switches = topology->switch_totals();
  return snap;
}

TEST(FabricDeterminism, OneShardRunToRunByteIdentical) {
  const RunSnapshot first = run_incast(1);
  const RunSnapshot second = run_incast(1);
  ASSERT_EQ(first.rpc.completions.size(), 7u * 24u);
  EXPECT_GT(first.switches.forwarded, 0u);
  EXPECT_TRUE(first == second) << "1-shard 128-host run diverged";
}

TEST(FabricDeterminism, FourShardRunToRunByteIdentical) {
  const RunSnapshot first = run_incast(4);
  const RunSnapshot second = run_incast(4);
  ASSERT_EQ(first.rpc.completions.size(), 7u * 24u);
  EXPECT_GT(first.switches.forwarded, 0u);
  EXPECT_TRUE(first == second) << "4-shard 128-host run diverged";
}

TEST(FabricDeterminism, ShardCountsPerformIdenticalWork) {
  const RunSnapshot one = run_incast(1);
  const RunSnapshot four = run_incast(4);
  EXPECT_EQ(one.rpc.completions.size(), four.rpc.completions.size());
  EXPECT_EQ(one.server_nic.rx_frames, four.server_nic.rx_frames);
  EXPECT_EQ(one.server_nic.rx_delivered, four.server_nic.rx_delivered);
  EXPECT_EQ(one.server_nic.segments, four.server_nic.segments);
  EXPECT_EQ(one.server_nic.records_encrypted, four.server_nic.records_encrypted);
  EXPECT_TRUE(one.switches == four.switches);
}

}  // namespace
}  // namespace smt::apps
