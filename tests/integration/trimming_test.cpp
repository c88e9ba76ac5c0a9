// §7 "In-network compute compatibility" / NDP trimming: SMT traffic
// through a congested switch. Trimmed stubs carry plaintext transport
// metadata, so receivers re-request the exact missing bytes immediately —
// the property that breaks if headers were encrypted (QUIC-style, §6.3).
#include <gtest/gtest.h>

#include "../common/topology_helpers.hpp"
#include "smt/endpoint.hpp"

namespace smt::proto {
namespace {

// Two hosts hanging off one ToR (a 1 x 3 rack whose third host stays
// idle) with an oversubscribed switch: hosts inject at 100 Gb/s, the
// switch drains at 20 Gb/s — bursts build the queue that congestion
// trimming targets.
struct SwitchedBed {
  sim::ShardedEngine engine{1};
  std::unique_ptr<stack::Topology> topology;
  sim::Switch* sw = nullptr;
  std::unique_ptr<SmtEndpoint> client;
  std::unique_ptr<SmtEndpoint> server;

  explicit SwitchedBed(std::size_t queue_bytes) {
    stack::ScenarioConfig scenario;
    scenario.topology.hosts_per_rack = 3;
    scenario.switch_config.queue_capacity_bytes = queue_bytes;
    auto built = stack::TopologyBuilder(scenario).build(engine);
    EXPECT_TRUE(built.ok()) << built.error().message;
    topology = std::move(built).take();
    sw = &topology->fabric()->tor(0);
    // The fabric programs host-facing ports at the edge rate (100 Gb/s);
    // slow the drains to 20 Gb/s AFTER the build to get the oversubscribed
    // switch this suite is about. Hosts attach in index order, so port i
    // faces host i on the single ToR.
    sw->set_port_bandwidth(0, 20.0);
    sw->set_port_bandwidth(1, 20.0);

    client = std::make_unique<SmtEndpoint>(topology->host(0), 1000);
    server = std::make_unique<SmtEndpoint>(topology->host(1), 80);
    tls::TrafficKeys tx{Bytes(16, 0x81), Bytes(12, 0x82)};
    tls::TrafficKeys rx{Bytes(16, 0x83), Bytes(12, 0x84)};
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
};

TEST(Trimming, SmtThroughUncongestedSwitch) {
  SwitchedBed bed(1 << 20);  // deep buffers: nothing trimmed
  Bytes received;
  bed.server->set_on_message(
      [&](SmtEndpoint::MessageMeta, Bytes data) { received = std::move(data); });
  const Bytes msg(50000, 0x42);
  ASSERT_TRUE(bed.client->send_message({2, 80}, msg).ok());
  bed.engine.run();
  EXPECT_EQ(received, msg);
  EXPECT_EQ(bed.sw->stats().trimmed, 0u);
}

TEST(Trimming, CongestionTrimsAndSmtRecoversFast) {
  SwitchedBed bed(16 * 1024);  // shallow buffers: bursts overflow
  std::map<std::uint64_t, std::size_t> delivered;
  bed.server->set_on_message([&](SmtEndpoint::MessageMeta meta, Bytes data) {
    delivered[meta.msg_id] = data.size();
  });
  // A burst of mid-size messages overruns the 16 KB output queue.
  constexpr int kMessages = 8;
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(bed.client->send_message({2, 80}, Bytes(20000, std::uint8_t(i))).ok());
  }
  bed.engine.run();
  // Everything is delivered and decrypts despite trimming.
  EXPECT_EQ(delivered.size(), std::size_t(kMessages));
  for (const auto& [id, size] : delivered) EXPECT_EQ(size, 20000u);
  EXPECT_EQ(bed.server->stats().decrypt_failures, 0u);
  // The switch really did trim, and the receiver recovered via immediate
  // RESENDs driven by the plaintext stub metadata (§7).
  EXPECT_GT(bed.sw->stats().trimmed, 0u);
  EXPECT_GT(bed.server->homa_stats().trim_resends, 0u);
}

TEST(Trimming, StubsPreserveExactLossInformation) {
  // Direct check: what Homa learns from a trimmed stub is exactly the
  // missing byte range, even though the payload (ciphertext) is gone.
  // The server's ToR uplink is re-pointed to snoop RESENDs on their way
  // into the switch.
  SwitchedBed bed(16 * 1024);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> resend_ranges;
  bed.topology->uplink(1)->set_receiver([&](sim::Packet pkt) {
    if (pkt.hdr.type == sim::PacketType::resend) {
      resend_ranges.emplace_back(pkt.hdr.resend_off - 1, pkt.hdr.grant_off);
    }
    bed.sw->receive(std::move(pkt));
  });
  int done = 0;
  bed.server->set_on_message([&](SmtEndpoint::MessageMeta, Bytes) { ++done; });
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(bed.client->send_message({2, 80}, Bytes(20000, 0x01)).ok());
  }
  bed.engine.run();
  EXPECT_EQ(done, 8);
  ASSERT_FALSE(resend_ranges.empty());
  for (const auto& [from, to] : resend_ranges) {
    EXPECT_LT(from, to);
    EXPECT_LE(to - from, 20000u + 1000u);  // a concrete, bounded range
  }
}

}  // namespace
}  // namespace smt::proto
