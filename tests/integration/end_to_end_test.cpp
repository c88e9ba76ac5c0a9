// Cross-module integration: full handshake -> key registration -> many
// encrypted RPCs through the simulated NIC/link, across configurations
// (MTU, TSO, suites, record sizes, concurrency).
#include <gtest/gtest.h>

#include "../common/topology_helpers.hpp"

#include "apps/rpc.hpp"
#include "crypto/drbg.hpp"
#include "smt/endpoint.hpp"
#include "tls/engine.hpp"

namespace smt::apps {
namespace {

struct EndToEndParam {
  TransportKind kind;
  std::size_t mtu;
  bool tso;
};

class EndToEnd : public ::testing::TestWithParam<EndToEndParam> {};

TEST_P(EndToEnd, MixedSizesAllComplete) {
  const auto param = GetParam();
  RpcFabricConfig config;
  config.kind = param.kind;
  config.nic.mtu_payload = param.mtu;
  config.nic.tso_enabled = param.tso;
  RpcFabric fabric(config);
  fabric.set_handler([](ByteView request) {
    RpcReply reply;
    reply.payload = to_bytes(request);  // echo back exactly
    reply.cpu_cost = usec(1);
    return reply;
  });

  constexpr std::size_t kChannels = 6;
  const std::size_t sizes[] = {1, 64, 1500, 4096, 16000, 16001, 70000};
  std::vector<std::unique_ptr<RpcChannel>> channels;
  for (std::size_t i = 0; i < kChannels; ++i) {
    channels.push_back(fabric.make_channel(i));
  }
  int completed = 0, expected = 0;
  for (std::size_t i = 0; i < kChannels; ++i) {
    for (const std::size_t size : sizes) {
      ++expected;
      Bytes request(size, std::uint8_t(size % 251));
      channels[i]->call(request, std::uint32_t(size),
                        [&completed, size](SimDuration, Bytes response) {
                          ++completed;
                          EXPECT_EQ(response.size(), size);
                          if (!response.empty()) {
                            EXPECT_EQ(response[0], std::uint8_t(size % 251));
                          }
                        });
    }
  }
  fabric.loop().run();
  EXPECT_EQ(completed, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, EndToEnd,
    ::testing::Values(EndToEndParam{TransportKind::smt_sw, 1500, true},
                      EndToEndParam{TransportKind::smt_hw, 1500, true},
                      EndToEndParam{TransportKind::smt_hw, 9000, true},
                      EndToEndParam{TransportKind::smt_hw, 1500, false},
                      EndToEndParam{TransportKind::ktls_hw, 1500, true},
                      EndToEndParam{TransportKind::ktls_hw, 1500, false},
                      EndToEndParam{TransportKind::tcp, 1500, false},
                      EndToEndParam{TransportKind::ktls_sw, 9000, true},
                      EndToEndParam{TransportKind::tcpls, 1500, true},
                      EndToEndParam{TransportKind::homa, 1500, false}),
    [](const ::testing::TestParamInfo<EndToEndParam>& info) {
      std::string name = transport_name(info.param.kind);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      name += info.param.mtu == 9000 ? "_mtu9k" : "_mtu1500";
      name += info.param.tso ? "_tso" : "_notso";
      return name;
    });

// Without TSO a NIC segment is one MTU-sized packet (§7 Segmentation).
// Every endpoint must learn that from its host's NIC: a default-config
// endpoint on a TSO-off host posts only segments the NIC sends whole.
class NoTsoHosts : public ::testing::Test {
 protected:
  static stack::HostConfig no_tso() {
    stack::HostConfig hc;
    hc.nic.tso_enabled = false;
    return hc;
  }

  static void expect_unsplit(stack::Host& host) {
    const sim::NicCounters& nic = host.nic().counters();
    EXPECT_GT(nic.segments, 1u);
    EXPECT_EQ(nic.segments, nic.packets);
  }

  sim::ShardedEngine engine_{1};
  sim::EventLoop& loop_ = engine_.loop(0);
  std::unique_ptr<stack::Topology> topology_ =
      test::two_host_topology(engine_, no_tso());
  stack::Host& client_ = topology_->host(0);  // ip 1
  stack::Host& server_ = topology_->host(1);  // ip 2
  const Bytes message_ = Bytes(8192, 0x6b);
  const tls::TrafficKeys c2s_{Bytes(16, 0x01), Bytes(12, 0x02)};
  const tls::TrafficKeys s2c_{Bytes(16, 0x03), Bytes(12, 0x04)};
  static constexpr auto kSuite = tls::CipherSuite::aes_128_gcm_sha256;
};

TEST_F(NoTsoHosts, SmtEndpointsPostMtuSizedSegments) {
  for (const bool hw : {false, true}) {
    SCOPED_TRACE(hw ? "smt_hw" : "smt_sw");
    proto::SmtConfig config;
    config.hw_offload = hw;
    const std::uint16_t port = hw ? 81 : 80;
    proto::SmtEndpoint client(client_, port, config);
    proto::SmtEndpoint server(server_, port, config);
    ASSERT_TRUE(client.register_session({2, port}, kSuite, c2s_, s2c_).ok());
    ASSERT_TRUE(server.register_session({1, port}, kSuite, s2c_, c2s_).ok());
    Bytes received;
    server.set_on_message([&](proto::SmtEndpoint::MessageMeta, Bytes data) {
      received = std::move(data);
    });
    ASSERT_TRUE(client.send_message({2, port}, message_).ok());
    loop_.run();
    EXPECT_EQ(received, message_);
    expect_unsplit(client_);
  }
}

TEST_F(NoTsoHosts, TcpEndpointPostsMtuSizedSegments) {
  transport::TcpEndpoint client(client_, 1000);
  transport::TcpEndpoint server(server_, 80);
  Bytes received;
  server.set_on_data(
      [&](std::uint64_t, Bytes data) { append(received, data); });
  client.send(client.connect(2, 80), message_);
  loop_.run();
  EXPECT_EQ(received, message_);
  expect_unsplit(client_);
}

TEST_F(NoTsoHosts, KtlsEndpointsPostMtuSizedSegments) {
  for (const bool hw : {false, true}) {
    SCOPED_TRACE(hw ? "ktls_hw" : "ktls_sw");
    const std::uint16_t port = hw ? 81 : 80;
    baselines::KtlsEndpoint client(client_, port, {.hw_offload = hw});
    baselines::KtlsEndpoint server(server_, port);
    server.set_on_accept([&](std::uint64_t conn) {
      ASSERT_TRUE(server.register_session(conn, kSuite, s2c_, c2s_).ok());
    });
    Bytes received;
    server.set_on_data(
        [&](std::uint64_t, Bytes data) { append(received, data); });
    const auto conn = client.connect(2, port);
    ASSERT_TRUE(client.register_session(conn, kSuite, c2s_, s2c_).ok());
    ASSERT_TRUE(client.send(conn, message_).ok());
    loop_.run();
    EXPECT_EQ(received, message_);
    expect_unsplit(client_);
  }
}

TEST_F(NoTsoHosts, RpcFabricTakesTheTopologyNic) {
  // A default RpcFabricConfig says TSO on; over an external topology the
  // hosts' NICs win (see the RpcFabric topology constructor).
  for (const TransportKind kind :
       {TransportKind::tcp, TransportKind::ktls_hw, TransportKind::tcpls,
        TransportKind::homa, TransportKind::smt_sw, TransportKind::smt_hw}) {
    SCOPED_TRACE(transport_name(kind));
    sim::ShardedEngine engine(1);
    const auto topology = test::two_host_topology(engine, no_tso());
    RpcFabricConfig config;
    config.kind = kind;
    RpcFabric fabric(config, *topology, /*server_index=*/1, {0});
    ClosedLoop rpcs(fabric, {.channels_per_client = 1,
                             .ops_per_client = 2,
                             .request_bytes = 8192,
                             .response_bytes = 8192});
    rpcs.start();
    engine.run();
    EXPECT_EQ(rpcs.result().completions.size(), 2u);
    expect_unsplit(topology->host(0));
    expect_unsplit(topology->host(1));
  }
}

TEST(EndToEndAes256, Suite256WorksEndToEnd) {
  // Drive an SMT session with the 256-bit suite through hosts and NIC.
  sim::ShardedEngine engine(1);
  const auto topology = test::two_host_topology(engine);
  stack::Host& client_host = topology->host(0);
  stack::Host& server_host = topology->host(1);

  proto::SmtConfig config;
  config.hw_offload = true;
  proto::SmtEndpoint client(client_host, 1000, config);
  proto::SmtEndpoint server(server_host, 80, config);
  tls::TrafficKeys tx{Bytes(32, 0x01), Bytes(12, 0x02)};
  tls::TrafficKeys rx{Bytes(32, 0x03), Bytes(12, 0x04)};
  ASSERT_TRUE(client
                  .register_session({2, 80},
                                    tls::CipherSuite::aes_256_gcm_sha256, tx, rx)
                  .ok());
  ASSERT_TRUE(server
                  .register_session({1, 1000},
                                    tls::CipherSuite::aes_256_gcm_sha256, rx, tx)
                  .ok());
  Bytes received;
  server.set_on_message(
      [&](proto::SmtEndpoint::MessageMeta, Bytes data) { received = std::move(data); });
  const Bytes msg(20000, 0x5f);
  ASSERT_TRUE(client.send_message({2, 80}, msg).ok());
  engine.run();
  EXPECT_EQ(received, msg);
  EXPECT_GT(client_host.nic().counters().records_encrypted, 0u);
}

TEST(EndToEndHandshakeToTraffic, ResumedSessionCarriesTraffic) {
  // Full handshake -> ticket -> resumption -> rekeyed SMT session traffic.
  crypto::HmacDrbg rng(to_bytes(std::string_view("resume-e2e")));
  auto ca = tls::CertificateAuthority::create("root", rng);
  const auto key = crypto::ecdsa_keypair_from_seed(rng.generate(32));
  tls::CertChain chain;
  chain.certs.push_back(
      ca.issue("server", crypto::encode_point(key.public_key), 0, 1u << 30));

  tls::ClientConfig cc;
  cc.server_name = "server";
  cc.trusted_ca = ca.public_key();
  cc.now = 1;
  tls::ServerConfig sc;
  sc.chain = chain;
  sc.sig_key = key;
  sc.trusted_ca = ca.public_key();
  sc.now = 1;

  // First connection.
  tls::ClientHandshake c1(cc, rng);
  tls::ServerHandshake s1(sc, rng);
  auto f1 = c1.start();
  auto sf1 = s1.on_client_flight(f1.value());
  auto f2 = c1.on_server_flight(sf1.value());
  ASSERT_TRUE(s1.on_client_finished(f2.value()).ok());
  auto [ticket_bytes, server_psk] = s1.make_session_ticket();
  const auto messages = tls::split_flight(ticket_bytes);
  const auto nst = tls::NewSessionTicket::parse((*messages)[0].body);
  const tls::PskInfo client_psk = c1.psk_from_ticket(*nst);

  // Resumption with ECDHE.
  cc.psk = client_psk;
  cc.psk_ecdhe = true;
  sc.psk_lookup = [&server_psk](ByteView id) -> std::optional<Bytes> {
    if (to_bytes(id) == server_psk.identity) return server_psk.key;
    return std::nullopt;
  };
  tls::ClientHandshake c2(cc, rng);
  tls::ServerHandshake s2(sc, rng);
  auto g1 = c2.start();
  auto sg = s2.on_client_flight(g1.value());
  auto g2 = c2.on_server_flight(sg.value());
  ASSERT_TRUE(s2.on_client_finished(g2.value()).ok());

  // Resumed keys drive SMT traffic over the simulated network.
  sim::ShardedEngine engine(1);
  const auto topology = test::two_host_topology(engine);
  stack::Host& client_host = topology->host(0);
  stack::Host& server_host = topology->host(1);
  proto::SmtEndpoint client(client_host, 1000);
  proto::SmtEndpoint server(server_host, 80);
  const auto& cs = c2.secrets();
  const auto& ss = s2.secrets();
  ASSERT_TRUE(client.register_session({2, 80}, cs.suite, cs.client_keys,
                                      cs.server_keys).ok());
  ASSERT_TRUE(server.register_session({1, 1000}, ss.suite, ss.server_keys,
                                      ss.client_keys).ok());
  int delivered = 0;
  server.set_on_message([&](proto::SmtEndpoint::MessageMeta, Bytes) { ++delivered; });
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.send_message({2, 80}, Bytes(100, std::uint8_t(i))).ok());
  }
  engine.run();
  EXPECT_EQ(delivered, 10);
}

}  // namespace
}  // namespace smt::apps
