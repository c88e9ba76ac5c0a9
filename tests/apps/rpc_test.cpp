// Integration tests: the RPC fabric across all seven transport variants.
#include "apps/rpc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

namespace smt::apps {
namespace {

class RpcFabricTest : public ::testing::TestWithParam<TransportKind> {};

TEST_P(RpcFabricTest, SingleEchoCall) {
  RpcFabricConfig config;
  config.kind = GetParam();
  RpcFabric fabric(config);

  auto channel = fabric.make_channel(0);
  bool done = false;
  SimDuration rtt = 0;
  channel->call(Bytes(64, 0x11), 64, [&](SimDuration d, Bytes response) {
    done = true;
    rtt = d;
    EXPECT_EQ(response.size(), 64u);
  });
  fabric.loop().run();
  ASSERT_TRUE(done);
  EXPECT_GT(rtt, 0);
  EXPECT_LT(rtt, msec(1));  // sane unloaded RTT
}

TEST_P(RpcFabricTest, CustomHandlerPayload) {
  RpcFabricConfig config;
  config.kind = GetParam();
  RpcFabric fabric(config);
  fabric.set_handler([](ByteView request) {
    RpcReply reply;
    reply.payload = to_bytes(request);
    std::reverse(reply.payload.begin(), reply.payload.end());
    reply.cpu_cost = usec(1);
    return reply;
  });

  auto channel = fabric.make_channel(0);
  Bytes response;
  channel->call(Bytes{1, 2, 3, 4}, 4,
                [&](SimDuration, Bytes r) { response = std::move(r); });
  fabric.loop().run();
  EXPECT_EQ(response, (Bytes{4, 3, 2, 1}));
}

TEST_P(RpcFabricTest, ManyConcurrentCallsComplete) {
  RpcFabricConfig config;
  config.kind = GetParam();
  RpcFabric fabric(config);

  constexpr int kChannels = 8;
  constexpr int kCallsPerChannel = 25;
  std::vector<std::unique_ptr<RpcChannel>> channels;
  int completed = 0;
  for (int c = 0; c < kChannels; ++c) {
    channels.push_back(fabric.make_channel(std::size_t(c)));
  }
  for (int c = 0; c < kChannels; ++c) {
    for (int i = 0; i < kCallsPerChannel; ++i) {
      channels[std::size_t(c)]->call(Bytes(128, std::uint8_t(i)), 128,
                                     [&](SimDuration, Bytes) { ++completed; });
    }
  }
  fabric.loop().run();
  EXPECT_EQ(completed, kChannels * kCallsPerChannel);
}

TEST_P(RpcFabricTest, LargeRequestAndResponse) {
  RpcFabricConfig config;
  config.kind = GetParam();
  RpcFabric fabric(config);
  auto channel = fabric.make_channel(0);
  bool done = false;
  channel->call(Bytes(65536, 0x22), 65536, [&](SimDuration, Bytes response) {
    done = true;
    EXPECT_EQ(response.size(), 65536u);
  });
  fabric.loop().run();
  EXPECT_TRUE(done);
}

TEST_P(RpcFabricTest, PipelinedCallsOnOneChannel) {
  RpcFabricConfig config;
  config.kind = GetParam();
  RpcFabric fabric(config);
  auto channel = fabric.make_channel(0);
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    channel->call(Bytes(256, std::uint8_t(i)), 256,
                  [&](SimDuration, Bytes) { ++completed; });
  }
  fabric.loop().run();
  EXPECT_EQ(completed, 10);
  EXPECT_EQ(channel->inflight(), 0u);
}

TEST_P(RpcFabricTest, ServerBusyAccountingGrows) {
  RpcFabricConfig config;
  config.kind = GetParam();
  RpcFabric fabric(config);
  auto channel = fabric.make_channel(0);
  channel->call(Bytes(1024, 0x01), 1024, [](SimDuration, Bytes) {});
  fabric.loop().run();
  EXPECT_GT(fabric.server_busy_ns(), 0u);
  EXPECT_GT(fabric.client_busy_ns(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllTransports, RpcFabricTest,
    ::testing::Values(TransportKind::tcp, TransportKind::ktls_sw,
                      TransportKind::ktls_hw, TransportKind::homa,
                      TransportKind::smt_sw, TransportKind::smt_hw,
                      TransportKind::tcpls),
    [](const ::testing::TestParamInfo<TransportKind>& info) {
      std::string name = transport_name(info.param);
      for (char& c : name) {
        if (c == '-' || c == '/') c = '_';
      }
      return name;
    });

TEST(RpcFabricShape, EncryptedCostsMoreThanPlain) {
  // Sanity for the §5 comparisons: with identical traffic, kTLS-sw burns
  // more server CPU than TCP, and SMT-sw more than Homa.
  const auto busy_for = [](TransportKind kind) {
    RpcFabricConfig config;
    config.kind = kind;
    RpcFabric fabric(config);
    auto channel = fabric.make_channel(0);
    int completed = 0;
    for (int i = 0; i < 20; ++i) {
      channel->call(Bytes(4096, 0x01), 4096,
                    [&](SimDuration, Bytes) { ++completed; });
    }
    fabric.loop().run();
    EXPECT_EQ(completed, 20);
    return fabric.server_busy_ns() + fabric.client_busy_ns();
  };
  EXPECT_GT(busy_for(TransportKind::ktls_sw), busy_for(TransportKind::tcp));
  EXPECT_GT(busy_for(TransportKind::smt_sw), busy_for(TransportKind::homa));
}

TEST(RpcFabricShape, HwOffloadSavesCpuVsSoftware) {
  const auto busy_for = [](TransportKind kind) {
    RpcFabricConfig config;
    config.kind = kind;
    RpcFabric fabric(config);
    auto channel = fabric.make_channel(0);
    for (int i = 0; i < 20; ++i) {
      channel->call(Bytes(8192, 0x01), 8192, [](SimDuration, Bytes) {});
    }
    fabric.loop().run();
    // TX-side crypto lives here. IRQ-class time (interrupt servicing,
    // doorbells) is excluded: it is charged to the same cores but its
    // count varies with response arrival spacing, not with where the
    // crypto runs — noise for this hw-vs-sw comparison.
    return fabric.client_busy_ns() - fabric.client_irq_ns();
  };
  EXPECT_LT(busy_for(TransportKind::smt_hw), busy_for(TransportKind::smt_sw));
  EXPECT_LT(busy_for(TransportKind::ktls_hw), busy_for(TransportKind::ktls_sw));
}

TEST(RpcFabricShape, NicConfigReachesBothHosts) {
  RpcFabricConfig config;
  config.kind = TransportKind::smt_hw;
  config.nic.num_queues = 2;
  config.nic.rx_coalesce_frames = 4;
  RpcFabric fabric(config);
  for (stack::Host* host : {&fabric.client_host(), &fabric.server_host()}) {
    const sim::NicConfig& nic = host->nic().config();
    EXPECT_EQ(nic.num_queues, 2u);
    EXPECT_EQ(nic.rx_coalesce_frames, 4u);
    EXPECT_EQ(host->nic().rx_ring_count(), 2u);
  }
}

TEST(RpcFabricShape, LinkPropagationReachesTheWire) {
  const auto unloaded_rtt = [](SimDuration propagation) {
    RpcFabricConfig config;
    config.kind = TransportKind::smt_hw;
    config.link.propagation = propagation;
    RpcFabric fabric(config);
    auto channel = fabric.make_channel(0);
    SimDuration rtt = 0;
    channel->call(Bytes(64, 0x11), 64,
                  [&](SimDuration d, Bytes) { rtt = d; });
    fabric.loop().run();
    EXPECT_GT(rtt, 0);
    return rtt;
  };
  // The request and the response each cross the link once: +2 us each.
  EXPECT_GE(unloaded_rtt(usec(3)) - unloaded_rtt(usec(1)), usec(4));
}

// A 2-rack leaf-spine of 4 hosts: host 0 serves, hosts 1-3 are clients.
// On a 2-shard engine rack r sits on shard r, so the clients span both.
std::unique_ptr<stack::Topology> four_hosts(sim::ShardedEngine& engine) {
  auto built =
      stack::TopologyBuilder().racks(2).hosts_per_rack(2).spines(1).build(
          engine);
  EXPECT_TRUE(built.ok());
  return std::move(built).take();
}

const std::vector<std::size_t> kClients = {1, 2, 3};

RpcFabricConfig smt_hw() {
  RpcFabricConfig config;
  config.kind = TransportKind::smt_hw;
  return config;
}

TEST(ClosedLoop, IssuesTheBudgetWithOneCallPerChannel) {
  sim::ShardedEngine engine(1);
  auto topology = four_hosts(engine);
  RpcFabric fabric(smt_hw(), *topology, 0, kClients);
  constexpr std::size_t kChannels = 4, kOps = 30;
  ClosedLoop rpcs(fabric, {.channels_per_client = kChannels,
                           .ops_per_client = kOps,
                           .request_bytes = 256,
                           .response_bytes = 128});
  EXPECT_EQ(rpcs.result().issued, 0u);
  rpcs.start();
  EXPECT_EQ(rpcs.result().issued, 3 * kChannels);
  engine.run();

  const ClosedLoopResult r = rpcs.result();
  EXPECT_EQ(r.issued, 3 * kOps);
  ASSERT_EQ(r.completions.size(), r.issued);
  EXPECT_EQ(r.response_bytes, 3 * kOps * 128);
  // A call is in flight over [at - rtt, at]. A reissue starts at its
  // predecessor's `at`, so ends sort before starts at equal times.
  for (std::size_t client = 0; client < kClients.size(); ++client) {
    std::vector<std::pair<SimTime, int>> edges;
    for (std::size_t i = 0; i < kOps; ++i) {
      const ClosedLoopResult::Completion& c = r.completions[client * kOps + i];
      edges.emplace_back(c.at - c.rtt, +1);
      edges.emplace_back(c.at, -1);
    }
    std::sort(edges.begin(), edges.end());
    int in_flight = 0;
    for (const auto& [when, delta] : edges) {
      in_flight += delta;
      EXPECT_LE(in_flight, int(kChannels)) << "client " << client;
    }
  }
}

TEST(ClosedLoop, CompletionsOfOneClientAreInTimeOrder) {
  RpcFabric fabric(smt_hw());
  ClosedLoop rpcs(fabric, {.channels_per_client = 8,
                           .ops_per_client = 100,
                           .request_bytes = 1024,
                           .response_bytes = 1024});
  rpcs.start();
  fabric.loop().run();

  const ClosedLoopResult r = rpcs.result();
  ASSERT_EQ(r.completions.size(), 100u);
  for (std::size_t i = 1; i < r.completions.size(); ++i) {
    EXPECT_LE(r.completions[i - 1].at, r.completions[i].at) << i;
  }
  EXPECT_EQ(r.last_completion(), r.completions.back().at);
}

ClosedLoopResult run_three_clients_on_two_shards() {
  sim::ShardedEngine engine(2, usec(1));
  auto topology = four_hosts(engine);
  RpcFabric fabric(smt_hw(), *topology, 0, kClients);
  ClosedLoop rpcs(fabric, {.channels_per_client = 2,
                           .ops_per_client = 20,
                           .request_bytes = 512,
                           .response_bytes = 256});
  rpcs.start();
  engine.run();
  return rpcs.result();
}

TEST(ClosedLoop, TwoShardRunsAreIdentical) {
  // Clients on both shard threads complete concurrently; each touches
  // only its own slot, which TSan checks here.
  const ClosedLoopResult first = run_three_clients_on_two_shards();
  const ClosedLoopResult second = run_three_clients_on_two_shards();
  ASSERT_EQ(first.completions.size(), 3u * 20u);
  EXPECT_TRUE(first == second);
}

}  // namespace
}  // namespace smt::apps
