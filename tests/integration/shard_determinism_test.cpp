// Determinism regression for the sharded engine driving the full stack:
// an RpcFabric (smt_hw, the richest datapath — TLS records, NIC TX
// offload, coalesced RX, softirq charging) with its two hosts on TWO
// different shards must produce byte-identical counters run-to-run, even
// though the shards execute on concurrent OS threads and every packet
// hop crosses the shard boundary through the mailbox. This locks in the
// cross-shard ordering contract from netsim/shard.hpp: (when, src, seq)
// mailbox delivery between windows, never mid-window.
//
// Also pinned here: the exact shape of the cross-shard-count guarantee —
// a 2-shard run performs identical WORK to the 1-shard run (same
// completions, same frames, same bytes, same records) even though its
// micro-schedule may legitimately differ:
// with 24 concurrent channels and interrupt coalescing, same-timestamp
// local/remote ties at a host do occur, and the (when, seq) tie then
// resolves by scheduling order, which sharding changes. That caveat is
// the one docs/determinism.md documents; this test demonstrates it is
// bounded to micro-ordering, never to what the simulation computes.
#include <gtest/gtest.h>

#include <algorithm>

#include "../common/host_snapshot.hpp"
#include "apps/rpc.hpp"

namespace smt::apps {
namespace {

using test::FabricSnapshot;
using test::HostSnapshot;

// Closed-loop smt_hw workload on a ShardedEngine with the client on shard
// 0 and the server on shard `shards - 1` (i.e. same shard when
// shards == 1, a true cross-shard link when shards == 2).
FabricSnapshot run_workload(std::size_t shards) {
  RpcFabricConfig config;
  config.kind = TransportKind::smt_hw;
  config.link.propagation = usec(2);  // >= engine lookahead, cross-shard safe

  sim::ShardedEngine engine(shards, config.link.propagation);
  RpcFabric fabric(config, engine, 0, shards - 1);
  ClosedLoop rpcs(fabric, {.channels_per_client = 24,
                           .ops_per_client = 600,
                           .request_bytes = 512,
                           .response_bytes = 2048});
  rpcs.start();
  engine.run();

  return test::snapshot_fabric(fabric, rpcs);
}

TEST(ShardDeterminism, TwoShardRunToRunByteIdentical) {
  const FabricSnapshot first = run_workload(2);
  const FabricSnapshot second = run_workload(2);

  ASSERT_EQ(first.rpc.completions.size(), 600u);
  // The run must actually cross the shard boundary, or this guards nothing.
  EXPECT_GT(first.server.nic.rx_interrupts, 0u);

  EXPECT_EQ(first.final_time, second.final_time);
  EXPECT_TRUE(first.rpc == second.rpc) << "RPC completions diverged";
  EXPECT_TRUE(first.client == second.client) << "client counters diverged";
  EXPECT_TRUE(first.server == second.server) << "server counters diverged";
  EXPECT_TRUE(first == second);
}

TEST(ShardDeterminism, TwoShardPerformsIdenticalWorkToOneShard) {
  // Cross-SHARD-COUNT guarantee (weaker than run-to-run determinism,
  // which is exact per shard count): the mailbox delivers every
  // cross-shard packet at exactly the arrival time the one-shard
  // schedule would have used, so the simulation performs identical work —
  // every RPC completes, every frame and record is identical. What MAY
  // shift is micro-ordering: this workload does produce same-timestamp
  // local/remote ties at the hosts (interrupt coalescing + 24 concurrent
  // channels), so batching-sensitive counters (interrupt counts, busy-ns,
  // the final timestamp) can differ by the tie resolution — byte-exact
  // 1-vs-N equality for tie-free scenarios is pinned separately in
  // netsim/shard_test.cpp.
  const FabricSnapshot one = run_workload(1);
  const FabricSnapshot two = run_workload(2);

  EXPECT_EQ(one.rpc.completions.size(), two.rpc.completions.size());
  EXPECT_EQ(one.rpc.response_bytes, two.rpc.response_bytes);
  auto expect_same_work = [](const HostSnapshot& a, const HostSnapshot& b,
                             const char* side) {
    EXPECT_EQ(a.nic.segments, b.nic.segments) << side;
    EXPECT_EQ(a.nic.packets, b.nic.packets) << side;
    EXPECT_EQ(a.nic.records_encrypted, b.nic.records_encrypted) << side;
    EXPECT_EQ(a.nic.out_of_sequence_records, b.nic.out_of_sequence_records)
        << side;
    EXPECT_EQ(a.nic.rx_frames, b.nic.rx_frames) << side;
    EXPECT_EQ(a.nic.rx_delivered, b.nic.rx_delivered) << side;
    EXPECT_EQ(a.nic.rx_dropped, b.nic.rx_dropped) << side;
    EXPECT_EQ(a.nic.context_misses, b.nic.context_misses) << side;
  };
  expect_same_work(one.client, two.client, "client");
  expect_same_work(one.server, two.server, "server");
  // The schedules stay close even where they are not identical: the tie
  // re-orderings shift the final completion by at most a handful of
  // coalescing hold-offs, not by any macroscopic amount.
  const SimTime hi =
      std::max(one.rpc.last_completion(), two.rpc.last_completion());
  const SimTime lo =
      std::min(one.rpc.last_completion(), two.rpc.last_completion());
  EXPECT_LT(hi - lo, hi / 100) << "virtual end times diverged by >1%";
}

}  // namespace
}  // namespace smt::apps
