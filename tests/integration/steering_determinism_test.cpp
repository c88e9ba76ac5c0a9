// Determinism regression for the steering subsystem: the fig7-style
// traffic mix, run twice with the same seed and with BOTH the irqbalance
// rebalancer and DIM-style adaptive coalescing active, must produce
// byte-identical NIC and host counters. This locks in the "delivery always
// via the event loop" invariant from the RX datapath for the new
// reprogram/migration machinery: no steering decision may depend on
// anything but virtual time and the deterministic event order.
#include <gtest/gtest.h>

#include "../common/host_snapshot.hpp"
#include "apps/rpc.hpp"

namespace smt::apps {
namespace {

using test::FabricSnapshot;

FabricSnapshot run_fig7_mix() {
  RpcFabricConfig config;
  config.kind = TransportKind::smt_hw;
  config.nic.adaptive_rx_coalesce = true;    // DIM on
  config.irq_rebalance_period = usec(100);   // rebalancer on
  RpcFabric fabric(config);

  ClosedLoop rpcs(fabric, {.channels_per_client = 40,
                           .ops_per_client = 1200,
                           .request_bytes = 1024,
                           .response_bytes = 1024});
  rpcs.start();
  fabric.loop().run();

  return test::snapshot_fabric(fabric, rpcs);
}

TEST(SteeringDeterminism, IdenticalCountersAcrossRepeatedRuns) {
  const FabricSnapshot first = run_fig7_mix();
  const FabricSnapshot second = run_fig7_mix();

  ASSERT_EQ(first.rpc.completions.size(), 1200u);
  // The run must actually exercise the steering machinery, or this test
  // guards nothing.
  EXPECT_GT(first.server.migrations, 0u);
  EXPECT_GT(first.server.nic.rss_reprograms, 0u);
  EXPECT_GT(first.server.nic.rx_interrupts, 0u);

  EXPECT_EQ(first.final_time, second.final_time);
  EXPECT_TRUE(first.rpc == second.rpc) << "RPC completions diverged";
  EXPECT_TRUE(first.client == second.client) << "client counters diverged";
  EXPECT_TRUE(first.server == second.server) << "server counters diverged";
  EXPECT_TRUE(first == second);
}

}  // namespace
}  // namespace smt::apps
