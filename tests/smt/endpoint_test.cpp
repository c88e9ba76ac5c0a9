// End-to-end SMT tests: two hosts back-to-back, real TLS 1.3 handshake,
// key registration, encrypted messages through the simulated NIC/link —
// in both software and hardware (autonomous offload) crypto modes.
#include "smt/endpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "../common/topology_helpers.hpp"
#include "crypto/drbg.hpp"
#include "tls/engine.hpp"

namespace smt::proto {
namespace {

class SmtEndpointTest : public ::testing::TestWithParam<bool> {
 protected:
  SmtEndpointTest()
      : rng_(to_bytes(std::string_view("smt-endpoint-test"))),
        topology_(
            test::two_host_topology(engine_, host_config(), link_config())),
        client_host_(topology_->host(0)),
        server_host_(topology_->host(1)) {

    SmtConfig config;
    config.hw_offload = GetParam();
    client_ = std::make_unique<SmtEndpoint>(client_host_, 1000, config);
    server_ = std::make_unique<SmtEndpoint>(server_host_, 80, config);
    server_->set_on_message([this](SmtEndpoint::MessageMeta meta, Bytes data) {
      received_.emplace_back(meta, std::move(data));
    });

    establish_session();
  }

  static stack::HostConfig host_config() {
    stack::HostConfig config;
    config.app_cores = 2;
    config.softirq_cores = 2;
    return config;
  }
  static sim::LinkConfig link_config() {
    sim::LinkConfig config;
    config.propagation = usec(1);
    return config;
  }

  /// Real TLS 1.3 handshake, then kTLS-style key registration (§4.2).
  void establish_session() {
    auto ca = tls::CertificateAuthority::create("dc-root", rng_);
    const auto server_key = crypto::ecdsa_keypair_from_seed(rng_.generate(32));
    tls::CertChain chain;
    chain.certs.push_back(ca.issue(
        "server", crypto::encode_point(server_key.public_key), 0, 1u << 30));

    tls::ClientConfig cc;
    cc.server_name = "server";
    cc.trusted_ca = ca.public_key();
    cc.now = 100;
    tls::ServerConfig sc;
    sc.chain = chain;
    sc.sig_key = server_key;
    sc.trusted_ca = ca.public_key();
    sc.now = 100;

    tls::ClientHandshake client_hs(cc, rng_);
    tls::ServerHandshake server_hs(sc, rng_);
    auto f1 = client_hs.start();
    ASSERT_TRUE(f1.ok());
    auto sf = server_hs.on_client_flight(f1.value());
    ASSERT_TRUE(sf.ok());
    auto f2 = client_hs.on_server_flight(sf.value());
    ASSERT_TRUE(f2.ok());
    ASSERT_TRUE(server_hs.on_client_finished(f2.value()).ok());

    const tls::SessionSecrets& cs = client_hs.secrets();
    const tls::SessionSecrets& ss = server_hs.secrets();
    ASSERT_TRUE(client_
                    ->register_session(PeerAddr{2, 80}, cs.suite,
                                       cs.client_keys, cs.server_keys)
                    .ok());
    ASSERT_TRUE(server_
                    ->register_session(PeerAddr{1, 1000}, ss.suite,
                                       ss.server_keys, ss.client_keys)
                    .ok());
  }

  PeerAddr server_addr() const { return PeerAddr{2, 80}; }

  crypto::HmacDrbg rng_;
  sim::ShardedEngine engine_{1};
  sim::EventLoop& loop_ = engine_.loop(0);
  std::unique_ptr<stack::Topology> topology_;
  stack::Host& client_host_;
  stack::Host& server_host_;
  std::unique_ptr<SmtEndpoint> client_;
  std::unique_ptr<SmtEndpoint> server_;
  std::vector<std::pair<SmtEndpoint::MessageMeta, Bytes>> received_;
};

TEST_P(SmtEndpointTest, EncryptedMessageDelivered) {
  const Bytes msg = to_bytes(std::string_view("confidential rpc"));
  const auto id = client_->send_message(server_addr(), msg);
  ASSERT_TRUE(id.ok());
  loop_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].second, msg);
  EXPECT_EQ(received_[0].first.msg_id, id.value());
  EXPECT_EQ(server_->stats().messages_delivered, 1u);
  EXPECT_EQ(server_->stats().decrypt_failures, 0u);
}

TEST_P(SmtEndpointTest, WireBytesAreCiphertext) {
  // Tap the link: no plaintext may appear on the wire.
  const Bytes msg = to_bytes(std::string_view("super secret plaintext data"));
  Bytes wire_capture;
  topology_->direct_link()->a2b().set_receiver([this, &wire_capture](sim::Packet pkt) {
    append(wire_capture, pkt.payload);
    server_host_.nic().receive(std::move(pkt));
  });
  client_->send_message(server_addr(), msg);
  loop_.run();
  ASSERT_EQ(received_.size(), 1u);
  const auto it = std::search(wire_capture.begin(), wire_capture.end(),
                              msg.begin(), msg.end());
  EXPECT_EQ(it, wire_capture.end()) << "plaintext leaked onto the wire";
}

TEST_P(SmtEndpointTest, PlaintextMetadataVisibleOnWire) {
  // §4.3 / §7: message ID and length stay plaintext in the overlay header
  // so the network can do message-granularity operations.
  std::vector<sim::PacketHeader> headers;
  topology_->direct_link()->a2b().set_receiver([this, &headers](sim::Packet pkt) {
    headers.push_back(pkt.hdr);
    server_host_.nic().receive(std::move(pkt));
  });
  const auto id = client_->send_message(server_addr(), Bytes(5000, 0x01));
  ASSERT_TRUE(id.ok());
  loop_.run();
  bool found = false;
  for (const auto& hdr : headers) {
    if (hdr.type == sim::PacketType::data) {
      EXPECT_EQ(hdr.msg_id, id.value());
      EXPECT_GT(hdr.msg_len, 5000u);  // wire length incl. crypto overhead
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_P(SmtEndpointTest, SharesItsPortWithPlainHomaUnderItsOwnProtocol) {
  // SMT is Homa under its own protocol number (§4): a plain Homa endpoint
  // on the same port of the same host is a different socket. The host
  // demuxes on (protocol, port), so each endpoint sees only its traffic.
  transport::HomaEndpoint homa_server(server_host_, 80);
  transport::HomaEndpoint homa_client(client_host_, 1000);
  std::vector<Bytes> homa_received;
  homa_server.set_on_message(
      [&homa_received](transport::HomaEndpoint::MessageMeta, Bytes data) {
        homa_received.push_back(std::move(data));
      });
  std::map<sim::Proto, std::vector<Bytes>> data_by_proto;
  topology_->direct_link()->a2b().set_receiver(
      [this, &data_by_proto](sim::Packet pkt) {
        if (pkt.hdr.type == sim::PacketType::data) {
          data_by_proto[pkt.hdr.flow.proto].push_back(pkt.payload.to_bytes());
        }
        server_host_.nic().receive(std::move(pkt));
      });

  const Bytes smt_msg(64, 0x5a);
  const Bytes homa_msg(200, 0x11);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client_->send_message(server_addr(), smt_msg).ok());
    if (i < 2) {
      ASSERT_TRUE(homa_client.send_message(server_addr(), homa_msg).ok());
    }
  }
  loop_.run();

  ASSERT_EQ(received_.size(), 3u);
  for (const auto& [meta, data] : received_) EXPECT_EQ(data, smt_msg);
  ASSERT_EQ(homa_received.size(), 2u);
  for (const Bytes& data : homa_received) EXPECT_EQ(data, homa_msg);
  EXPECT_EQ(server_->stats().decrypt_failures, 0u);
  // Every single-packet message crossed the wire under its own protocol:
  // SMT's three as ciphertext, plain Homa's two in the clear.
  ASSERT_EQ(data_by_proto.size(), 2u);
  ASSERT_EQ(data_by_proto[sim::Proto::smt].size(), 3u);
  for (const Bytes& payload : data_by_proto[sim::Proto::smt]) {
    EXPECT_EQ(std::search(payload.begin(), payload.end(), smt_msg.begin(),
                          smt_msg.end()),
              payload.end());
  }
  EXPECT_EQ(data_by_proto[sim::Proto::homa],
            std::vector<Bytes>(2, homa_msg));
}

TEST_P(SmtEndpointTest, ManyMessagesAllDeliveredUniquely) {
  constexpr int kCount = 100;
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(client_->send_message(server_addr(),
                                      Bytes(std::size_t(10 + i), std::uint8_t(i)))
                    .ok());
  }
  loop_.run();
  ASSERT_EQ(received_.size(), std::size_t(kCount));
  std::set<std::uint64_t> ids;
  for (const auto& [meta, data] : received_) ids.insert(meta.msg_id);
  EXPECT_EQ(ids.size(), std::size_t(kCount));  // unique message IDs (§4.4.1)
}

TEST_P(SmtEndpointTest, LargeMessageRoundTrip) {
  Bytes big(300000, 0);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = std::uint8_t(i % 249);
  client_->send_message(server_addr(), big);
  loop_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].second, big);
}

TEST_P(SmtEndpointTest, ReplayedWireMessageDropped) {
  // An attacker replaying a captured message: duplicate every data packet.
  // The transport reassembles at most one duplicate message; the SMT
  // replay filter must discard it without delivering twice.
  topology_->direct_link()->a2b().set_receiver([this](sim::Packet pkt) {
    sim::Packet copy = pkt;
    server_host_.nic().receive(std::move(pkt));
    if (copy.hdr.type == sim::PacketType::data) {
      // Replay the packet well after the transport dedup window (which
      // covers the sender-retry horizon), so the replay reaches SMT.
      loop_.schedule(msec(50), [this, copy]() mutable {
        server_host_.nic().receive(std::move(copy));
      });
    }
  });
  client_->send_message(server_addr(), to_bytes(std::string_view("once only")));
  loop_.run();
  EXPECT_EQ(received_.size(), 1u);
  EXPECT_GT(server_->stats().replays_dropped, 0u);
}

TEST_P(SmtEndpointTest, TamperedPacketRejected) {
  topology_->direct_link()->a2b().set_receiver([this](sim::Packet pkt) {
    if (pkt.hdr.type == sim::PacketType::data && !pkt.payload.empty()) {
      pkt.payload.mutate()[pkt.payload.size() / 2] ^= 0x01;  // tamper
    }
    server_host_.nic().receive(std::move(pkt));
  });
  client_->send_message(server_addr(), Bytes(1000, 0x5a));
  loop_.run();
  EXPECT_EQ(received_.size(), 0u);
  EXPECT_EQ(server_->stats().decrypt_failures, 1u);
}

TEST_P(SmtEndpointTest, NoSessionMeansNoSend) {
  const auto result = client_->send_message(PeerAddr{9, 9}, Bytes(10, 0));
  EXPECT_EQ(result.code(), Errc::not_connected);
}

TEST_P(SmtEndpointTest, PaddedMessagesSameWireSize) {
  std::vector<std::size_t> wire_sizes;
  topology_->direct_link()->a2b().set_receiver([this, &wire_sizes](sim::Packet pkt) {
    if (pkt.hdr.type == sim::PacketType::data) {
      wire_sizes.push_back(pkt.hdr.msg_len);
    }
    server_host_.nic().receive(std::move(pkt));
  });
  client_->send_message(server_addr(), Bytes(64, 1), nullptr, 1024);
  client_->send_message(server_addr(), Bytes(800, 2), nullptr, 1024);
  loop_.run();
  ASSERT_EQ(received_.size(), 2u);
  ASSERT_GE(wire_sizes.size(), 2u);
  EXPECT_EQ(wire_sizes[0], wire_sizes[1]);  // length concealed (§6.1)
  // True lengths recovered after decryption.
  std::multiset<std::size_t> sizes;
  for (const auto& [meta, data] : received_) sizes.insert(data.size());
  EXPECT_EQ(sizes, (std::multiset<std::size_t>{64, 800}));
}

TEST_P(SmtEndpointTest, LostPacketsRecoveredTransparently) {
  int dropped = 0;
  topology_->direct_link()->a2b().set_drop_predicate([&dropped](const sim::Packet& pkt) {
    if (pkt.hdr.type == sim::PacketType::data && dropped < 2) {
      ++dropped;
      return true;
    }
    return false;
  });
  Bytes msg(40000, 0x42);
  client_->send_message(server_addr(), msg);
  loop_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].second, msg);
  EXPECT_EQ(dropped, 2);
}

TEST_P(SmtEndpointTest, RekeyResetsMessageIdSpace) {
  client_->send_message(server_addr(), Bytes(10, 1));
  loop_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].first.msg_id, 0u);

  // Rekey both sides with fresh keys (session resumption, §4.5.2).
  tls::TrafficKeys new_tx, new_rx;
  new_tx.key = Bytes(16, 0x61);
  new_tx.iv = Bytes(12, 0x62);
  new_rx.key = Bytes(16, 0x63);
  new_rx.iv = Bytes(12, 0x64);
  ASSERT_TRUE(client_
                  ->rekey_session(server_addr(),
                                  tls::CipherSuite::aes_128_gcm_sha256,
                                  new_tx, new_rx)
                  .ok());
  ASSERT_TRUE(server_
                  ->rekey_session(PeerAddr{1, 1000},
                                  tls::CipherSuite::aes_128_gcm_sha256,
                                  new_rx, new_tx)
                  .ok());
  client_->send_message(server_addr(), Bytes(10, 2));
  loop_.run();
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(received_[1].first.msg_id, 0u);  // ID space reset
}

TEST_P(SmtEndpointTest, BidirectionalTraffic) {
  client_->set_on_message([this](SmtEndpoint::MessageMeta, Bytes data) {
    received_.emplace_back(SmtEndpoint::MessageMeta{}, std::move(data));
  });
  server_->set_on_message([this](SmtEndpoint::MessageMeta meta, Bytes data) {
    server_->send_message(PeerAddr{meta.peer.ip, 1000}, std::move(data));
  });
  client_->send_message(server_addr(), to_bytes(std::string_view("echo me")));
  loop_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].second, to_bytes(std::string_view("echo me")));
}

INSTANTIATE_TEST_SUITE_P(SwAndHw, SmtEndpointTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "HwOffload" : "Software";
                         });

// --- HW-offload specific behaviour ---------------------------------------

class SmtHwTest : public ::testing::Test {
 protected:
  // (reuses the fixture machinery via composition to keep it light)
};

TEST(SmtHwContexts, OneContextPerQueuePerSession) {
  sim::ShardedEngine engine(1);
  stack::HostConfig hc;
  hc.nic.num_queues = 4;
  const auto topology = test::two_host_topology(engine, hc);
  stack::Host& client_host = topology->host(0);
  stack::Host& server_host = topology->host(1);

  SmtConfig config;
  config.hw_offload = true;
  SmtEndpoint client(client_host, 1000, config);
  SmtEndpoint server(server_host, 80, config);

  tls::TrafficKeys keys_a{Bytes(16, 1), Bytes(12, 2)};
  tls::TrafficKeys keys_b{Bytes(16, 3), Bytes(12, 4)};
  ASSERT_TRUE(client
                  .register_session(PeerAddr{2, 80},
                                    tls::CipherSuite::aes_128_gcm_sha256,
                                    keys_a, keys_b)
                  .ok());
  ASSERT_TRUE(server
                  .register_session(PeerAddr{1, 1000},
                                    tls::CipherSuite::aes_128_gcm_sha256,
                                    keys_b, keys_a)
                  .ok());
  int delivered = 0;
  server.set_on_message([&](SmtEndpoint::MessageMeta, Bytes) { ++delivered; });

  // Many messages spread across queues; contexts are created lazily, at
  // most one per queue (§4.4.2), and REUSED via resync thereafter.
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(client.send_message(PeerAddr{2, 80}, Bytes(100, std::uint8_t(i))).ok());
  }
  engine.run();
  EXPECT_EQ(delivered, 32);
  EXPECT_LE(client_host.flow_contexts().stats().misses, 4u);
  EXPECT_EQ(client_host.nic().counters().out_of_sequence_records, 0u);
  EXPECT_GT(client_host.nic().counters().resyncs, 0u);  // context reuse
  EXPECT_GT(client_host.nic().counters().records_encrypted, 0u);
}

}  // namespace
}  // namespace smt::proto
