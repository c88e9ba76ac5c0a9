// Security-property integration tests mapping §6 of the paper to
// executable checks against an in-network attacker on the simulated link.
#include <gtest/gtest.h>

#include "../common/topology_helpers.hpp"
#include "common/rng.hpp"
#include "smt/endpoint.hpp"

namespace smt::proto {
namespace {

struct AttackBed {
  sim::ShardedEngine engine{1};
  sim::EventLoop& loop = engine.loop(0);
  std::unique_ptr<stack::Topology> topology;
  stack::Host* client_host = nullptr;
  stack::Host* server_host = nullptr;
  sim::Link* link = nullptr;
  std::unique_ptr<SmtEndpoint> client;
  std::unique_ptr<SmtEndpoint> server;
  std::vector<std::pair<std::uint64_t, Bytes>> delivered;

  AttackBed() {
    topology = test::two_host_topology(engine);
    client_host = &topology->host(0);
    server_host = &topology->host(1);
    link = topology->direct_link();
    client = std::make_unique<SmtEndpoint>(*client_host, 1000);
    server = std::make_unique<SmtEndpoint>(*server_host, 80);
    tls::TrafficKeys tx{Bytes(16, 0x61), Bytes(12, 0x62)};
    tls::TrafficKeys rx{Bytes(16, 0x63), Bytes(12, 0x64)};
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
    server->set_on_message([this](SmtEndpoint::MessageMeta meta, Bytes data) {
      delivered.emplace_back(meta.msg_id, std::move(data));
    });
  }

  /// Installs a man-in-the-middle transform on client->server packets.
  void mitm(std::function<void(sim::Packet&)> transform) {
    link->a2b().set_receiver(
        [this, transform = std::move(transform)](sim::Packet pkt) {
          transform(pkt);
          server_host->nic().receive(std::move(pkt));
        });
  }
};

TEST(Security, InjectionWithForgedPayloadRejected) {
  // §6.1 non-replayability: a new message ID with attacker-crafted payload
  // is detected at decryption, like TLS/TCP detects altered segments.
  AttackBed bed;
  // Capture one legitimate packet, then inject a forged message based on it.
  bool injected = false;
  bed.mitm([&](sim::Packet& pkt) {
    if (pkt.hdr.type == sim::PacketType::data && !injected) {
      injected = true;
      sim::Packet forged = pkt;
      forged.hdr.msg_id = 999;  // unseen ID: passes the replay filter
      for (auto& b : forged.payload.mutate()) b ^= 0x5a;  // attacker bytes
      bed.loop.schedule(usec(5), [&bed, forged]() mutable {
        bed.server_host->nic().receive(std::move(forged));
      });
    }
  });
  bed.client->send_message({2, 80}, Bytes(100, 0x01));
  bed.loop.run();
  ASSERT_EQ(bed.delivered.size(), 1u);  // only the genuine message
  EXPECT_EQ(bed.server->stats().decrypt_failures, 1u);
}

TEST(Security, HeaderManipulationCannotRedirectRecords) {
  // Flipping the plaintext message ID on a genuine packet moves it to a
  // different record space, where authentication fails (§4.4.1).
  AttackBed bed;
  bed.mitm([](sim::Packet& pkt) {
    if (pkt.hdr.type == sim::PacketType::data) pkt.hdr.msg_id += 1;
  });
  bed.client->send_message({2, 80}, Bytes(200, 0x02));
  bed.loop.run();
  EXPECT_TRUE(bed.delivered.empty());
  EXPECT_EQ(bed.server->stats().decrypt_failures, 1u);
}

TEST(Security, TruncationDetected) {
  // Cutting bytes out of a record leaves an unparseable/unauthenticated
  // wire message. (Transport-level lengths are adjusted so reassembly
  // completes and the crypto layer is what rejects it.)
  AttackBed bed;
  bed.mitm([](sim::Packet& pkt) {
    if (pkt.hdr.type == sim::PacketType::data && pkt.payload.size() > 32) {
      pkt.payload.truncate(pkt.payload.size() - 16);  // drop the tag bytes
      pkt.hdr.msg_len -= 16;
    }
  });
  bed.client->send_message({2, 80}, Bytes(300, 0x03));
  bed.loop.run();
  EXPECT_TRUE(bed.delivered.empty());
  EXPECT_EQ(bed.delivered.size(), 0u);
}

TEST(Security, CrossSessionInjectionRejected) {
  // Ciphertext from one session replayed into another (different keys)
  // must fail — message IDs overlap between sessions but keys differ.
  AttackBed bed_a;
  std::vector<sim::Packet> captured;
  bed_a.link->a2b().set_receiver([&](sim::Packet pkt) {
    captured.push_back(pkt);
    bed_a.server_host->nic().receive(std::move(pkt));
  });
  bed_a.client->send_message({2, 80}, Bytes(100, 0x04));
  bed_a.loop.run();
  ASSERT_FALSE(captured.empty());

  AttackBed bed_b;  // fresh bed; note: same addresses, DIFFERENT keys? No —
  // AttackBed uses fixed keys, so flip them to make session B distinct.
  tls::TrafficKeys other_tx{Bytes(16, 0x71), Bytes(12, 0x72)};
  tls::TrafficKeys other_rx{Bytes(16, 0x73), Bytes(12, 0x74)};
  ASSERT_TRUE(bed_b.server
                  ->rekey_session({1, 1000},
                                  tls::CipherSuite::aes_128_gcm_sha256,
                                  other_rx, other_tx)
                  .ok());
  for (auto& pkt : captured) bed_b.server_host->nic().receive(pkt);
  bed_b.loop.run();
  EXPECT_TRUE(bed_b.delivered.empty());
  EXPECT_GT(bed_b.server->stats().decrypt_failures, 0u);
}

TEST(Security, MassReplayCampaignAllDropped) {
  // Replay every data packet 3x with delays beyond the transport dedup
  // window; the SMT filter must drop every duplicate message without
  // double delivery, across 50 messages.
  AttackBed bed;
  Rng rng(4242);
  bed.link->a2b().set_receiver([&](sim::Packet pkt) {
    if (pkt.hdr.type == sim::PacketType::data) {
      for (int copy = 1; copy <= 3; ++copy) {
        sim::Packet dup = pkt;
        // Past the transport dedup window (30 ms, covering the sender
        // retry horizon) so the replays reach the SMT filter itself.
        bed.loop.schedule(msec(35 + 6 * copy) + SimDuration(rng.next_below(1000)),
                          [&bed, dup]() mutable {
                            bed.server_host->nic().receive(std::move(dup));
                          });
      }
    }
    bed.server_host->nic().receive(std::move(pkt));
  });
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(bed.client->send_message({2, 80}, Bytes(64, std::uint8_t(i))).ok());
  }
  bed.loop.run();
  EXPECT_EQ(bed.delivered.size(), 50u);
  std::set<std::uint64_t> ids;
  for (const auto& [id, data] : bed.delivered) ids.insert(id);
  EXPECT_EQ(ids.size(), 50u);  // no double delivery of any message
  EXPECT_GT(bed.server->stats().replays_dropped, 0u);
}

TEST(Security, EavesdropperSeesOnlyMetadataAndCiphertext) {
  // §4.3/§6.2: the wire exposes message ID/length (by design, for INC)
  // but never plaintext.
  AttackBed bed;
  Bytes wiretap;
  std::vector<std::uint64_t> observed_ids;
  bed.link->a2b().set_receiver([&](sim::Packet pkt) {
    append(wiretap, pkt.payload);
    if (pkt.hdr.type == sim::PacketType::data)
      observed_ids.push_back(pkt.hdr.msg_id);
    bed.server_host->nic().receive(std::move(pkt));
  });
  const Bytes secret = to_bytes(std::string_view(
      "TOP-SECRET: the database password is hunter2 hunter2 hunter2"));
  bed.client->send_message({2, 80}, secret);
  bed.loop.run();
  ASSERT_EQ(bed.delivered.size(), 1u);
  EXPECT_EQ(bed.delivered[0].second, secret);
  // Plaintext absent from the wire...
  EXPECT_EQ(std::search(wiretap.begin(), wiretap.end(), secret.begin(),
                        secret.end()),
            wiretap.end());
  // ...but message identity is visible (deliberately, §7 INC).
  ASSERT_FALSE(observed_ids.empty());
  EXPECT_EQ(observed_ids[0], bed.delivered[0].first);
}

}  // namespace
}  // namespace smt::proto
