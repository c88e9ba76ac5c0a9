// Fault injection across the full stack: random loss, targeted drops,
// and hardware-offload retransmission paths under stress.
#include <gtest/gtest.h>

#include "apps/rpc.hpp"
#include "crypto/drbg.hpp"
#include "smt/endpoint.hpp"

namespace smt::proto {
namespace {

/// Uniform loss: the fault model's good state alone (p_good_to_bad = 0).
sim::FaultProfile uniform_loss(double rate, std::uint64_t seed) {
  sim::FaultProfile fault;
  fault.good_loss_rate = rate;
  fault.seed = seed;
  return fault;
}

/// Two hosts on a direct link, an SMT session between them: the client
/// on shard 0, the server on shard `shards - 1`.
struct Testbed {
  sim::ShardedEngine engine;
  sim::EventLoop& loop;
  std::unique_ptr<stack::Topology> topology;
  stack::Host* client_host = nullptr;
  stack::Host* server_host = nullptr;
  sim::Link* link = nullptr;
  std::unique_ptr<SmtEndpoint> client;
  std::unique_ptr<SmtEndpoint> server;

  explicit Testbed(bool hw_offload, const sim::FaultProfile& fault = {},
                   std::size_t shards = 1)
      : engine(shards), loop(engine.loop(0)) {
    sim::LinkConfig lc;
    lc.propagation = usec(1);
    lc.fault = fault;
    auto built =
        stack::TopologyBuilder().link(lc).host_shard(1, shards - 1).build(
            engine);
    EXPECT_TRUE(built.ok());
    topology = std::move(built).take();
    client_host = &topology->host(0);
    server_host = &topology->host(1);
    link = topology->direct_link();

    SmtConfig config;
    config.hw_offload = hw_offload;
    client = std::make_unique<SmtEndpoint>(*client_host, 1000, config);
    server = std::make_unique<SmtEndpoint>(*server_host, 80, config);
    tls::TrafficKeys tx{Bytes(16, 0x21), Bytes(12, 0x22)};
    tls::TrafficKeys rx{Bytes(16, 0x23), Bytes(12, 0x24)};
    EXPECT_TRUE(client
                    ->register_session({2, 80},
                                       tls::CipherSuite::aes_128_gcm_sha256,
                                       tx, rx)
                    .ok());
    EXPECT_TRUE(server
                    ->register_session({1, 1000},
                                       tls::CipherSuite::aes_128_gcm_sha256,
                                       rx, tx)
                    .ok());
  }

  std::uint64_t dropped_by_fault() const {
    return link->a2b().stats().dropped_by_fault +
           link->b2a().stats().dropped_by_fault;
  }
};

class LossSweep : public ::testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(LossSweep, AllMessagesEventuallyDecrypt) {
  const auto [hw, loss_pct] = GetParam();
  Testbed bed(hw, uniform_loss(loss_pct / 100.0,
                               std::uint64_t(loss_pct) * 7 + 1));
  std::map<std::uint64_t, std::size_t> delivered;
  bed.server->set_on_message(
      [&](SmtEndpoint::MessageMeta meta, Bytes data) {
        delivered[meta.msg_id] = data.size();
      });

  constexpr int kMessages = 30;
  for (int i = 0; i < kMessages; ++i) {
    const std::size_t size = 100 + std::size_t(i) * 700;  // up to ~20 KB
    ASSERT_TRUE(bed.client->send_message({2, 80}, Bytes(size, std::uint8_t(i))).ok());
  }
  bed.loop.run();
  EXPECT_GT(bed.dropped_by_fault(), 0u);  // the stream really dropped packets
  EXPECT_EQ(delivered.size(), std::size_t(kMessages));
  EXPECT_EQ(bed.server->stats().decrypt_failures, 0u)
      << "retransmission must never corrupt records (resync correctness)";
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(delivered[std::uint64_t(i)], 100 + std::size_t(i) * 700);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rates, LossSweep,
    ::testing::Combine(::testing::Values(false, true),
                       ::testing::Values(1, 5, 10)),
    [](const ::testing::TestParamInfo<std::tuple<bool, int>>& info) {
      return std::string(std::get<0>(info.param) ? "Hw" : "Sw") + "Loss" +
             std::to_string(std::get<1>(info.param)) + "pct";
    });

TEST(FaultInjection, HwOffloadRetransmitKillsFirstPacketOfEveryMessage) {
  // Adversarial drop pattern: the first DATA packet of every message dies
  // once. Every retransmitted record must be re-encrypted with a resync
  // and still authenticate.
  Testbed bed(/*hw=*/true);
  std::set<std::uint64_t> killed;
  bed.link->a2b().set_drop_predicate([&killed](const sim::Packet& pkt) {
    if (pkt.hdr.type != sim::PacketType::data) return false;
    if (pkt.hdr.ip_id != pkt.hdr.ipid_base) return false;  // first pkt only
    return killed.insert(pkt.hdr.msg_id).second;  // once per message
  });
  int delivered = 0;
  bed.server->set_on_message(
      [&](SmtEndpoint::MessageMeta, Bytes) { ++delivered; });
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(bed.client->send_message({2, 80}, Bytes(5000, std::uint8_t(i))).ok());
  }
  bed.loop.run();
  EXPECT_EQ(delivered, 10);
  EXPECT_EQ(bed.server->stats().decrypt_failures, 0u);
  EXPECT_GT(bed.client_host->nic().counters().resyncs, 0u);
}

TEST(FaultInjection, ControlPacketLossRecovered) {
  // Drop GRANTs and ACKs (not data): large transfers must still finish via
  // timers and retries.
  Testbed bed(/*hw=*/false);
  int dropped_ctrl = 0;
  bed.link->b2a().set_drop_predicate([&dropped_ctrl](const sim::Packet& pkt) {
    if ((pkt.hdr.type == sim::PacketType::grant ||
         pkt.hdr.type == sim::PacketType::ack) &&
        dropped_ctrl < 3) {
      ++dropped_ctrl;
      return true;
    }
    return false;
  });
  Bytes received;
  bed.server->set_on_message(
      [&](SmtEndpoint::MessageMeta, Bytes data) { received = std::move(data); });
  // Large enough to need grants (after crypto overhead > 60 KB unscheduled).
  const Bytes big(200000, 0x3d);
  ASSERT_TRUE(bed.client->send_message({2, 80}, big).ok());
  bed.loop.run();
  EXPECT_EQ(received, big);
  EXPECT_GT(dropped_ctrl, 0);
}

TEST(FaultInjection, BidirectionalLossStress) {
  Testbed bed(/*hw=*/true, uniform_loss(0.03, 99));
  int client_got = 0, server_got = 0;
  bed.server->set_on_message([&](SmtEndpoint::MessageMeta meta, Bytes data) {
    ++server_got;
    bed.server->send_message({meta.peer.ip, 1000}, std::move(data));
  });
  bed.client->set_on_message(
      [&](SmtEndpoint::MessageMeta, Bytes) { ++client_got; });
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(bed.client->send_message({2, 80}, Bytes(3000, std::uint8_t(i))).ok());
  }
  bed.loop.run();
  EXPECT_GT(bed.link->a2b().stats().dropped_by_fault, 0u);  // loss both ways
  EXPECT_GT(bed.link->b2a().stats().dropped_by_fault, 0u);
  EXPECT_EQ(server_got, 20);
  EXPECT_EQ(client_got, 20);
  EXPECT_EQ(bed.server->stats().decrypt_failures, 0u);
  EXPECT_EQ(bed.client->stats().decrypt_failures, 0u);
}

TEST(FaultInjection, CorruptedPacketsRecoveredLikeLoss) {
  // Corruption is deliver-but-flag: frames arrive, the transport discards
  // them at ingress (the GCM-tag/checksum failure point), and RESEND /
  // backstop timers fill the gaps — end-to-end payloads stay intact.
  sim::FaultProfile fault;
  fault.corrupt_rate = 0.05;
  Testbed bed(/*hw=*/true, fault);
  std::map<std::uint64_t, std::size_t> delivered;
  bed.server->set_on_message([&](SmtEndpoint::MessageMeta meta, Bytes data) {
    delivered[meta.msg_id] = data.size();
  });
  constexpr int kMessages = 20;
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(
        bed.client->send_message({2, 80}, Bytes(4000, std::uint8_t(i))).ok());
  }
  bed.loop.run();
  EXPECT_EQ(delivered.size(), std::size_t(kMessages));
  EXPECT_EQ(bed.server->stats().decrypt_failures, 0u)
      << "corrupted frames must die at transport ingress, never reach "
         "reassembly/decrypt";
  // The accounting chain agrees end to end: link flagged -> NIC saw ->
  // transport dropped (client-to-server direction).
  const std::uint64_t flagged = bed.link->a2b().stats().packets_corrupted;
  EXPECT_GT(flagged, 0u);
  EXPECT_GE(bed.server_host->nic().counters().rx_corrupt_frames, flagged);
}

TEST(FaultInjection, NicResetMidRunRecoversTransparently) {
  // A full NIC reset mid-run wipes the TLS flow-context table, queued
  // descriptors, and RX rings on the server. The FlowContextManager lease
  // path must transparently re-establish contexts (no wire resync), and
  // Homa's RESEND/backstop machinery must refill what the reset dropped —
  // every message still decrypts.
  Testbed bed(/*hw=*/true);
  std::map<std::uint64_t, std::size_t> delivered;
  bed.server->set_on_message([&](SmtEndpoint::MessageMeta meta, Bytes data) {
    delivered[meta.msg_id] = data.size();
  });
  constexpr int kBefore = 12, kAfter = 12;
  for (int i = 0; i < kBefore; ++i) {
    ASSERT_TRUE(
        bed.client->send_message({2, 80}, Bytes(6000, std::uint8_t(i))).ok());
  }
  // Resets land while traffic is in flight; the server loses RX frames
  // and every offload context, the client loses queued TX descriptors.
  bed.loop.schedule_at(usec(30), [&] { bed.server_host->reset_nic(); });
  bed.loop.schedule_at(usec(60), [&] { bed.client_host->reset_nic(); });
  bed.loop.schedule_at(usec(100), [&] {
    for (int i = 0; i < kAfter; ++i) {
      ASSERT_TRUE(bed.client
                      ->send_message({2, 80},
                                     Bytes(6000, std::uint8_t(kBefore + i)))
                      .ok());
    }
  });
  bed.loop.run();
  EXPECT_EQ(delivered.size(), std::size_t(kBefore + kAfter));
  EXPECT_EQ(bed.server->stats().decrypt_failures, 0u)
      << "post-reset re-establishment must seed fresh contexts correctly";
  EXPECT_EQ(bed.server_host->nic().counters().resets, 1u);
  EXPECT_EQ(bed.client_host->nic().counters().resets, 1u);
  // The recovery ran through the lease-miss path, not a hidden resync.
  EXPECT_GT(bed.client_host->flow_contexts().stats().reestablished, 0u);
}

TEST(FaultInjection, KtlsHwSurvivesClientNicReset) {
  // kTLS-hw leases its TX contexts from the client's FlowContextManager,
  // as SMT-hw does. A client NIC reset mid-run drops them with the device;
  // each connection's next post re-establishes its context seeded at that
  // record, so no record names a lost context and every RPC completes.
  apps::RpcFabricConfig config;
  config.kind = apps::TransportKind::ktls_hw;
  config.link.propagation = usec(1);
  apps::RpcFabric fabric(config);
  constexpr std::size_t kOps = 400;
  apps::ClosedLoop rpcs(fabric, {.channels_per_client = 8,
                                 .ops_per_client = kOps,
                                 .request_bytes = 2048,
                                 .response_bytes = 512});
  fabric.loop().schedule_at(usec(100),
                            [&] { fabric.client_host().reset_nic(); });
  rpcs.start();
  fabric.loop().run();

  const apps::ClosedLoopResult result = rpcs.result();
  EXPECT_EQ(result.issued, kOps);
  EXPECT_EQ(result.completions.size(), kOps);
  const sim::NicCounters nic = fabric.client_host().nic().counters();
  EXPECT_EQ(nic.resets, 1u);
  EXPECT_EQ(nic.context_misses, 0u);
  EXPECT_GT(fabric.client_host().flow_contexts().stats().reestablished, 0u);
}

// --- faults under the sharded engine (satellite: determinism) --------------

// Burst loss + flaps + corruption on a cross-shard link: the fault RNG and
// flap phase live on the SENDING shard, so the pattern must replay
// byte-identically run-to-run at any fixed shard count: every delivery, in
// order, and every counter of the topology.
std::pair<std::vector<std::pair<std::uint64_t, std::size_t>>,
          stack::Topology::Counters>
run_sharded_fault_workload(std::size_t shards) {
  sim::FaultProfile fault;
  fault.p_good_to_bad = 0.02;
  fault.p_bad_to_good = 0.2;
  fault.bad_loss_rate = 0.6;
  fault.corrupt_rate = 0.01;
  fault.flap_period = usec(400);
  fault.flap_down = usec(40);
  fault.flap_offset = usec(100);
  fault.seed = 1234;

  Testbed bed(/*hw=*/true, fault, shards);
  std::vector<std::pair<std::uint64_t, std::size_t>> delivered;
  bed.server->set_on_message([&](SmtEndpoint::MessageMeta meta, Bytes data) {
    delivered.emplace_back(meta.msg_id, data.size());
  });
  for (int i = 0; i < 25; ++i) {
    EXPECT_TRUE(
        bed.client->send_message({2, 80}, Bytes(3000, std::uint8_t(i))).ok());
  }
  bed.engine.run();

  // The stack recovered everything the fault model dropped.
  EXPECT_EQ(bed.server->stats().decrypt_failures, 0u);
  return {delivered, bed.topology->counters()};
}

// --- fabric-core faults: flapping core, dark paths, ECMP re-steering -------

// RPC traffic crossing a 4-rack leaf-spine core whose wires flap on a
// FLAP-ONLY fault profile (pure phase arithmetic, no RNG): ports go dark,
// ECMP re-steers flows onto the surviving spine, probes restore. Flap-only
// keeps the kill pattern a pure function of virtual time, so the work done
// (RPCs issued/completed, bytes returned) is identical at ANY shard count
// — and each fixed shard count must replay byte-identically run-to-run.
std::pair<apps::ClosedLoopResult, stack::Topology::Counters>
run_core_flap_workload(std::size_t shards) {
  sim::FaultProfile fault;
  fault.flap_period = usec(400);
  fault.flap_down = usec(60);
  fault.seed = 77;

  sim::SwitchConfig sc;
  sc.health_dark_threshold = 1;
  sc.health_probe_interval = usec(100);

  stack::HostConfig hc;
  hc.app_cores = 2;
  hc.softirq_cores = 2;

  sim::ShardedEngine engine(shards, usec(1));
  auto built = stack::TopologyBuilder()
                   .racks(4)
                   .hosts_per_rack(2)
                   .spines(2)
                   .host_config(hc)
                   .fabric_fault(fault)
                   .switch_config(sc)
                   .build(engine);
  EXPECT_TRUE(built.ok());
  auto topology = std::move(built).take();

  apps::RpcFabricConfig config;
  config.kind = apps::TransportKind::smt_hw;
  // Server on rack 0, one client per other rack: every RPC crosses the
  // flapping spine tier.
  const std::vector<std::size_t> clients = {2, 4, 6};
  apps::RpcFabric fabric(config, *topology, /*server_index=*/0, clients);

  apps::ClosedLoop rpcs(fabric, {.channels_per_client = 2,
                                 .ops_per_client = 8,
                                 .request_bytes = 2048,
                                 .response_bytes = 512});
  rpcs.start();
  engine.run();
  return {rpcs.result(), topology->counters()};
}

TEST(FaultInjection, CoreFlapShardedByteIdenticalRunToRun) {
  const auto [rpc1, counters1] = run_core_flap_workload(2);
  const auto [rpc2, counters2] = run_core_flap_workload(2);

  // The core fault model actually bit, the health machine marked ports
  // dark, flows were re-steered around them — and nothing was lost.
  const sim::Switch::Stats& switches = counters1.switch_totals;
  EXPECT_GT(switches.fault_dropped, 0u);
  EXPECT_GT(switches.dark_transitions, 0u);
  EXPECT_GT(switches.resteered_flows, 0u);
  EXPECT_EQ(rpc1.completions.size(), 24u);
  EXPECT_EQ(rpc1.issued, 24u);
  EXPECT_EQ(rpc1.response_bytes, 24u * 512u);

  EXPECT_TRUE(rpc1 == rpc2) << "2-shard core-flap RPCs diverged run-to-run";
  EXPECT_TRUE(counters1 == counters2)
      << "2-shard core-flap counters diverged run-to-run";
}

TEST(FaultInjection, CoreFlapWorkIdenticalAcrossShardCounts) {
  // Flap kills are pure time functions (no RNG), so sharding must not
  // change WHAT happens — every RPC completes with the same bytes at 1
  // and 4 shards (exact event interleavings at equal timestamps may
  // differ, so this compares work, not the full record).
  const auto [one, one_counters] = run_core_flap_workload(1);
  const auto [four, four_counters] = run_core_flap_workload(4);

  EXPECT_EQ(one.issued, four.issued);
  EXPECT_EQ(one.completions.size(), four.completions.size());
  EXPECT_EQ(one.response_bytes, four.response_bytes);
  EXPECT_GT(one_counters.switch_totals.dark_transitions, 0u);
  EXPECT_GT(four_counters.switch_totals.dark_transitions, 0u);
}

TEST(FaultInjection, ShardedBurstFlapByteIdenticalRunToRun) {
  const auto one_a = run_sharded_fault_workload(1);
  const auto one_b = run_sharded_fault_workload(1);
  const auto two_a = run_sharded_fault_workload(2);
  const auto two_b = run_sharded_fault_workload(2);

  // The fault model actually bit (bursts + flaps dropped traffic) and the
  // stack recovered everything anyway.
  const std::vector<sim::LinkDirection::Stats>& links = two_a.second.links;
  EXPECT_GT(links.at(0).dropped_by_fault + links.at(1).dropped_by_fault, 0u);
  EXPECT_EQ(two_a.first.size(), 25u);
  EXPECT_EQ(one_a.first.size(), 25u);

  // Byte-identical run-to-run, per shard count: every delivery in order,
  // and every host's and link direction's counters.
  EXPECT_TRUE(one_a == one_b) << "1-shard fault run diverged run-to-run";
  EXPECT_TRUE(two_a == two_b) << "2-shard fault run diverged run-to-run";
}

}  // namespace
}  // namespace smt::proto
