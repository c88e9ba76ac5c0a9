// Determinism regression for the steering subsystem: the fig7-style
// traffic mix, run twice with the same seed and with BOTH the irqbalance
// rebalancer and DIM-style adaptive coalescing active, must produce
// byte-identical RPC completions and topology counters. This locks in the "delivery always
// via the event loop" invariant from the RX datapath for the new
// reprogram/migration machinery: no steering decision may depend on
// anything but virtual time and the deterministic event order.
#include <gtest/gtest.h>

#include <utility>

#include "apps/rpc.hpp"

namespace smt::apps {
namespace {

std::pair<ClosedLoopResult, stack::Topology::Counters> run_fig7_mix() {
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

  return {rpcs.result(), fabric.topology().counters()};
}

TEST(SteeringDeterminism, IdenticalCountersAcrossRepeatedRuns) {
  const auto [rpc1, counters1] = run_fig7_mix();
  const auto [rpc2, counters2] = run_fig7_mix();

  ASSERT_EQ(rpc1.completions.size(), 1200u);
  // The run must actually exercise the steering machinery, or this test
  // guards nothing.
  const stack::HostCounters& server = counters1.hosts.at(1);
  EXPECT_GT(server.rebalance.migrations, 0u);
  EXPECT_GT(server.nic.rss_reprograms, 0u);
  EXPECT_GT(server.nic.rx_interrupts, 0u);

  EXPECT_TRUE(rpc1 == rpc2) << "RPC completions diverged";
  EXPECT_TRUE(counters1 == counters2) << "topology counters diverged";
}

}  // namespace
}  // namespace smt::apps
