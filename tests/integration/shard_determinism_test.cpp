// Determinism regression for the sharded engine driving the full stack:
// an RpcFabric (smt_hw, the richest datapath — TLS records, NIC TX
// offload, coalesced RX, softirq charging) with its two hosts on TWO
// different shards must produce byte-identical RPC completions and
// topology counters run-to-run, even though the shards execute on
// concurrent OS threads and every packet hop crosses the shard boundary
// through the mailbox. This locks in the
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
#include <utility>

#include "apps/rpc.hpp"

namespace smt::apps {
namespace {

// Closed-loop smt_hw workload on a ShardedEngine with the client on shard
// 0 and the server on shard `shards - 1` (i.e. same shard when
// shards == 1, a true cross-shard link when shards == 2).
std::pair<ClosedLoopResult, stack::Topology::Counters> run_workload(
    std::size_t shards) {
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

  return {rpcs.result(), fabric.topology().counters()};
}

TEST(ShardDeterminism, TwoShardRunToRunByteIdentical) {
  const auto [rpc1, counters1] = run_workload(2);
  const auto [rpc2, counters2] = run_workload(2);

  ASSERT_EQ(rpc1.completions.size(), 600u);
  // The run must actually cross the shard boundary, or this guards nothing.
  EXPECT_GT(counters1.hosts.at(1).nic.rx_interrupts, 0u);

  EXPECT_TRUE(rpc1 == rpc2) << "RPC completions diverged";
  EXPECT_TRUE(counters1 == counters2) << "topology counters diverged";
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
  const auto [one, one_counters] = run_workload(1);
  const auto [two, two_counters] = run_workload(2);

  EXPECT_EQ(one.completions.size(), two.completions.size());
  EXPECT_EQ(one.response_bytes, two.response_bytes);
  const char* const sides[] = {"client", "server"};
  for (std::size_t h = 0; h < 2; ++h) {
    const sim::NicCounters& a = one_counters.hosts.at(h).nic;
    const sim::NicCounters& b = two_counters.hosts.at(h).nic;
    EXPECT_EQ(a.segments, b.segments) << sides[h];
    EXPECT_EQ(a.packets, b.packets) << sides[h];
    EXPECT_EQ(a.records_encrypted, b.records_encrypted) << sides[h];
    EXPECT_EQ(a.out_of_sequence_records, b.out_of_sequence_records)
        << sides[h];
    EXPECT_EQ(a.rx_frames, b.rx_frames) << sides[h];
    EXPECT_EQ(a.rx_delivered, b.rx_delivered) << sides[h];
    EXPECT_EQ(a.rx_dropped, b.rx_dropped) << sides[h];
    EXPECT_EQ(a.context_misses, b.context_misses) << sides[h];
  }
  // The schedules stay close even where they are not identical: the tie
  // re-orderings shift the final completion by at most a handful of
  // coalescing hold-offs, not by any macroscopic amount.
  const SimTime hi = std::max(one.last_completion(), two.last_completion());
  const SimTime lo = std::min(one.last_completion(), two.last_completion());
  EXPECT_LT(hi - lo, hi / 100) << "virtual end times diverged by >1%";
}

}  // namespace
}  // namespace smt::apps
