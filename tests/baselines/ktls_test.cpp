#include "baselines/ktls.hpp"

#include <gtest/gtest.h>

#include "../common/topology_helpers.hpp"

namespace smt::baselines {
namespace {

class KtlsTest : public ::testing::TestWithParam<bool> {
 protected:
  KtlsTest()
      : topology_(
            test::two_host_topology(engine_, host_config(), link_config())),
        client_host_(topology_->host(0)),
        server_host_(topology_->host(1)) {
    KtlsConfig config;
    config.hw_offload = GetParam();
    client_ = std::make_unique<KtlsEndpoint>(client_host_, 1000, config);
    // Receive side is software-only for hw mode too (§5).
    server_ = std::make_unique<KtlsEndpoint>(server_host_, 80, config);
    server_->set_on_data([this](KtlsEndpoint::ConnId conn, Bytes data) {
      append(server_received_, data);
      server_conn_ = conn;
    });
    client_->set_on_data([this](KtlsEndpoint::ConnId, Bytes data) {
      append(client_received_, data);
    });
    server_->set_on_accept([this](KtlsEndpoint::ConnId conn) {
      // Register the server side of the session as soon as the connection
      // appears (keys agreed out of band for these tests).
      ASSERT_TRUE(server_
                      ->register_session(conn,
                                         tls::CipherSuite::aes_128_gcm_sha256,
                                         server_tx_, client_tx_)
                      .ok());
    });

    client_tx_.key = Bytes(16, 0x71);
    client_tx_.iv = Bytes(12, 0x72);
    server_tx_.key = Bytes(16, 0x73);
    server_tx_.iv = Bytes(12, 0x74);

    conn_ = client_->connect(2, 80);
    EXPECT_TRUE(client_
                    ->register_session(conn_,
                                       tls::CipherSuite::aes_128_gcm_sha256,
                                       client_tx_, server_tx_)
                    .ok());
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

  sim::ShardedEngine engine_{1};
  sim::EventLoop& loop_ = engine_.loop(0);
  std::unique_ptr<stack::Topology> topology_;
  stack::Host& client_host_;
  stack::Host& server_host_;
  std::unique_ptr<KtlsEndpoint> client_;
  std::unique_ptr<KtlsEndpoint> server_;
  tls::TrafficKeys client_tx_;
  tls::TrafficKeys server_tx_;
  KtlsEndpoint::ConnId conn_ = 0;
  KtlsEndpoint::ConnId server_conn_ = 0;
  Bytes server_received_;
  Bytes client_received_;
};

TEST_P(KtlsTest, EncryptedDataDelivered) {
  const Bytes msg = to_bytes(std::string_view("hello ktls"));
  ASSERT_TRUE(client_->send(conn_, msg).ok());
  loop_.run();
  EXPECT_EQ(server_received_, msg);
  EXPECT_EQ(server_->stats().decrypt_failures, 0u);
}

TEST_P(KtlsTest, WireIsCiphertext) {
  const Bytes msg = to_bytes(std::string_view("plaintext must not appear"));
  Bytes wire;
  topology_->direct_link()->a2b().set_receiver([this, &wire](sim::Packet pkt) {
    append(wire, pkt.payload);
    server_host_.nic().receive(std::move(pkt));
  });
  client_->send(conn_, msg);
  loop_.run();
  EXPECT_EQ(server_received_, msg);
  EXPECT_EQ(std::search(wire.begin(), wire.end(), msg.begin(), msg.end()),
            wire.end());
}

TEST_P(KtlsTest, MultiRecordTransfer) {
  Bytes big(100000, 0);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = std::uint8_t(i % 247);
  client_->send(conn_, big);
  loop_.run();
  EXPECT_EQ(server_received_, big);
  EXPECT_EQ(client_->stats().records_sent, 7u);  // ceil(100000/16000)
  EXPECT_EQ(server_->stats().records_received, 7u);
}

TEST_P(KtlsTest, BidirectionalEcho) {
  server_->set_on_data([this](KtlsEndpoint::ConnId conn, Bytes data) {
    server_->send(conn, std::move(data));
  });
  client_->send(conn_, to_bytes(std::string_view("echo")));
  loop_.run();
  EXPECT_EQ(client_received_, to_bytes(std::string_view("echo")));
}

TEST_P(KtlsTest, LossRecoveredAndStillDecrypts) {
  // A dropped packet forces TCP retransmission. In hw mode the driver must
  // resync the NIC context (Figure 2 Out-resync) — the record stream stays
  // intact either way.
  int dropped = 0;
  topology_->direct_link()->a2b().set_drop_predicate([&dropped](const sim::Packet& pkt) {
    if (pkt.hdr.type == sim::PacketType::data && dropped == 0) {
      ++dropped;
      return true;
    }
    return false;
  });
  Bytes data(50000, 0x21);
  client_->send(conn_, data);
  loop_.run();
  EXPECT_EQ(dropped, 1);
  EXPECT_EQ(server_received_, data);
  EXPECT_EQ(server_->stats().decrypt_failures, 0u);
}

TEST_P(KtlsTest, SendWithoutSessionFails) {
  KtlsEndpoint bare(client_host_, 1001, KtlsConfig{});
  const auto conn = bare.connect(2, 80);
  EXPECT_EQ(bare.send(conn, Bytes(10, 0)).code(), Errc::not_connected);
}

TEST_P(KtlsTest, SequentialSendsStayInOrder) {
  for (int i = 0; i < 20; ++i) {
    client_->send(conn_, Bytes(500, std::uint8_t('a' + i)));
  }
  loop_.run();
  ASSERT_EQ(server_received_.size(), 20u * 500u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(server_received_[std::size_t(i) * 500], std::uint8_t('a' + i));
  }
}

INSTANTIATE_TEST_SUITE_P(SwAndHw, KtlsTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "HwOffload" : "Software";
                         });

TEST(TcplsTest, DeliversEncryptedData) {
  sim::ShardedEngine engine(1);
  const auto topology = test::two_host_topology(engine);
  stack::Host& client_host = topology->host(0);
  stack::Host& server_host = topology->host(1);

  TcplsEndpoint client(client_host, 1000);
  TcplsEndpoint server(server_host, 80);
  tls::TrafficKeys a{Bytes(16, 1), Bytes(12, 2)};
  tls::TrafficKeys b{Bytes(16, 3), Bytes(12, 4)};
  Bytes received;
  server.set_on_data([&](KtlsEndpoint::ConnId, Bytes data) {
    append(received, data);
  });
  server.set_on_accept([&](KtlsEndpoint::ConnId conn) {
    ASSERT_TRUE(server
                    .register_session(conn, tls::CipherSuite::aes_128_gcm_sha256,
                                      b, a)
                    .ok());
  });
  const auto conn = client.connect(2, 80);
  ASSERT_TRUE(client
                  .register_session(conn, tls::CipherSuite::aes_128_gcm_sha256,
                                    a, b)
                  .ok());
  const Bytes msg(5000, 0x42);
  ASSERT_TRUE(client.send(conn, msg).ok());
  engine.run();
  EXPECT_EQ(received, msg);
}

TEST(TcplsTest, CostsMoreCpuThanKtlsSw) {
  // The TCPLS-like baseline charges extra per-record work; with the same
  // traffic its app core is busier than kTLS-sw's.
  const auto run_variant = [](bool tcpls) {
    sim::ShardedEngine engine(1);
    const auto topology = test::two_host_topology(engine);
    stack::Host& client_host = topology->host(0);
    stack::Host& server_host = topology->host(1);

    std::unique_ptr<KtlsEndpoint> client, server;
    if (tcpls) {
      client = std::make_unique<TcplsEndpoint>(client_host, 1000);
      server = std::make_unique<TcplsEndpoint>(server_host, 80);
    } else {
      client = std::make_unique<KtlsEndpoint>(client_host, 1000, KtlsConfig{});
      server = std::make_unique<KtlsEndpoint>(server_host, 80, KtlsConfig{});
    }
    tls::TrafficKeys a{Bytes(16, 1), Bytes(12, 2)};
    tls::TrafficKeys b{Bytes(16, 3), Bytes(12, 4)};
    server->set_on_accept([&](KtlsEndpoint::ConnId conn) {
      server->register_session(conn, tls::CipherSuite::aes_128_gcm_sha256, b, a);
    });
    const auto conn = client->connect(2, 80);
    client->register_session(conn, tls::CipherSuite::aes_128_gcm_sha256, a, b);
    for (int i = 0; i < 10; ++i) {
      client->send(conn, Bytes(16000, 0x01), &client_host.app_core(0));
    }
    engine.run();
    return client_host.app_core(0).busy_ns();
  };
  EXPECT_GT(run_variant(true), run_variant(false));
}

}  // namespace
}  // namespace smt::baselines
