#include "tls/engine.hpp"

#include <gtest/gtest.h>

#include <map>

#include "tls/record.hpp"

namespace smt::tls {
namespace {

/// Shared PKI fixture: an internal CA, a server identity, a client
/// identity, and an SMT long-term key + published ticket.
class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : rng_(to_bytes(std::string_view("engine-test-seed"))),
        ca_(CertificateAuthority::create("dc-root", rng_)) {
    server_key_ = crypto::ecdsa_keypair_from_seed(rng_.generate(32));
    server_chain_.certs.push_back(
        ca_.issue("server.internal", crypto::encode_point(server_key_.public_key),
                  0, 1u << 30));
    client_key_ = crypto::ecdsa_keypair_from_seed(rng_.generate(32));
    client_chain_.certs.push_back(
        ca_.issue("client.internal", crypto::encode_point(client_key_.public_key),
                  0, 1u << 30));
    smt_longterm_ = crypto::ecdh_keypair_from_seed(rng_.generate(32));
    ticket_ = issue_smt_ticket(ca_, "server.internal",
                               crypto::encode_point(smt_longterm_.public_key),
                               server_chain_, 1000, 4600);
  }

  ClientConfig client_config() {
    ClientConfig config;
    config.server_name = "server.internal";
    config.trusted_ca = ca_.public_key();
    config.now = 2000;
    return config;
  }

  ServerConfig server_config() {
    ServerConfig config;
    config.chain = server_chain_;
    config.sig_key = server_key_;
    config.trusted_ca = ca_.public_key();
    config.now = 2000;
    return config;
  }

  /// Runs a complete handshake; returns (client, server) engines.
  std::pair<std::unique_ptr<ClientHandshake>, std::unique_ptr<ServerHandshake>>
  run_handshake(ClientConfig cc, ServerConfig sc) {
    auto client = std::make_unique<ClientHandshake>(std::move(cc), rng_);
    auto server = std::make_unique<ServerHandshake>(std::move(sc), rng_);
    auto flight1 = client->start();
    EXPECT_TRUE(flight1.ok()) << (flight1.ok() ? "" : flight1.error().message);
    auto server_flight = server->on_client_flight(flight1.value());
    EXPECT_TRUE(server_flight.ok())
        << (server_flight.ok() ? "" : server_flight.error().message);
    auto flight2 = client->on_server_flight(server_flight.value());
    EXPECT_TRUE(flight2.ok()) << (flight2.ok() ? "" : flight2.error().message);
    const Status fin = server->on_client_finished(flight2.value());
    EXPECT_TRUE(fin.ok()) << fin.message();
    return {std::move(client), std::move(server)};
  }

  crypto::HmacDrbg rng_;
  CertificateAuthority ca_;
  crypto::EcdsaKeyPair server_key_;
  CertChain server_chain_;
  crypto::EcdsaKeyPair client_key_;
  CertChain client_chain_;
  crypto::EcdhKeyPair smt_longterm_;
  SmtTicket ticket_;
};

TEST_F(EngineTest, FullHandshakeAgreesOnKeys) {
  auto [client, server] = run_handshake(client_config(), server_config());
  ASSERT_TRUE(client->done());
  ASSERT_TRUE(server->done());
  EXPECT_EQ(client->secrets().client_keys, server->secrets().client_keys);
  EXPECT_EQ(client->secrets().server_keys, server->secrets().server_keys);
  EXPECT_NE(client->secrets().client_keys, client->secrets().server_keys);
  EXPECT_TRUE(client->secrets().forward_secret);
  EXPECT_EQ(client->secrets().resumption_master,
            server->secrets().resumption_master);
}

TEST_F(EngineTest, SessionKeysEncryptTraffic) {
  auto [client, server] = run_handshake(client_config(), server_config());
  RecordProtection client_tx(client->secrets().suite,
                             client->secrets().client_keys);
  RecordProtection server_rx(server->secrets().suite,
                             server->secrets().client_keys);
  const Bytes payload = to_bytes(std::string_view("rpc request"));
  const Bytes record = client_tx.seal(0, ContentType::application_data, payload);
  const auto opened = server_rx.open(0, record);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().payload, payload);
}

TEST_F(EngineTest, MutualAuthentication) {
  auto cc = client_config();
  cc.identity = ClientIdentity{client_chain_, client_key_};
  auto sc = server_config();
  sc.request_client_cert = true;
  auto [client, server] = run_handshake(std::move(cc), std::move(sc));
  EXPECT_TRUE(client->done());
  EXPECT_TRUE(server->done());
}

TEST_F(EngineTest, MutualAuthFailsWithoutClientCert) {
  auto sc = server_config();
  sc.request_client_cert = true;
  auto client = std::make_unique<ClientHandshake>(client_config(), rng_);
  auto server = std::make_unique<ServerHandshake>(std::move(sc), rng_);
  auto flight1 = client->start();
  auto server_flight = server->on_client_flight(flight1.value());
  auto flight2 = client->on_server_flight(server_flight.value());
  EXPECT_FALSE(flight2.ok());  // client has no identity to present
}

TEST_F(EngineTest, WrongCaRejected) {
  auto other_rng = crypto::HmacDrbg(to_bytes(std::string_view("other")));
  const auto other_ca = CertificateAuthority::create("other-root", other_rng);
  auto cc = client_config();
  cc.trusted_ca = other_ca.public_key();
  auto client = std::make_unique<ClientHandshake>(std::move(cc), rng_);
  auto server = std::make_unique<ServerHandshake>(server_config(), rng_);
  auto flight1 = client->start();
  auto server_flight = server->on_client_flight(flight1.value());
  auto flight2 = client->on_server_flight(server_flight.value());
  EXPECT_FALSE(flight2.ok());
  EXPECT_EQ(flight2.code(), Errc::cert_invalid);
}

TEST_F(EngineTest, WrongServerNameRejected) {
  auto cc = client_config();
  cc.server_name = "different.internal";
  auto client = std::make_unique<ClientHandshake>(std::move(cc), rng_);
  auto server = std::make_unique<ServerHandshake>(server_config(), rng_);
  auto flight1 = client->start();
  auto server_flight = server->on_client_flight(flight1.value());
  EXPECT_FALSE(client->on_server_flight(server_flight.value()).ok());
}

TEST_F(EngineTest, TamperedServerFlightRejected) {
  auto client = std::make_unique<ClientHandshake>(client_config(), rng_);
  auto server = std::make_unique<ServerHandshake>(server_config(), rng_);
  auto flight1 = client->start();
  auto server_flight = server->on_client_flight(flight1.value());
  Bytes tampered = server_flight.value();
  tampered[tampered.size() - 2] ^= 0x01;  // corrupt Finished verify_data
  EXPECT_FALSE(client->on_server_flight(tampered).ok());
}

TEST_F(EngineTest, ServerHelloWithUnofferedSuiteRejected) {
  auto client = std::make_unique<ClientHandshake>(client_config(), rng_);
  auto server = std::make_unique<ServerHandshake>(server_config(), rng_);
  auto flight1 = client->start();
  auto server_flight = server->on_client_flight(flight1.value());
  auto messages = split_flight(server_flight.value());
  ASSERT_TRUE(messages && !messages->empty());
  auto shlo = ServerHello::parse((*messages)[0].body);
  ASSERT_TRUE(shlo);
  ASSERT_EQ(shlo->suite, CipherSuite::aes_128_gcm_sha256);
  shlo->suite = CipherSuite::aes_256_gcm_sha256;
  Bytes tampered = shlo->serialize();
  for (std::size_t i = 1; i < messages->size(); ++i) {
    append(tampered, (*messages)[i].raw);
  }
  const auto flight2 = client->on_server_flight(tampered);
  ASSERT_FALSE(flight2.ok());
  EXPECT_EQ(flight2.error().message, "cipher suite mismatch");
  // Rejected as the ServerHello is parsed, before the key exchange.
  for (const auto& [label, us] : client->timings().ops) {
    EXPECT_NE(label, "C2.2 ECDH Exchange");
  }
}

TEST_F(EngineTest, ResumptionWithTicket) {
  // First connection: full handshake, server issues a ticket.
  auto [client1, server1] = run_handshake(client_config(), server_config());
  auto [ticket_bytes, server_psk] = server1->make_session_ticket();
  const auto msgs = split_flight(ticket_bytes);
  ASSERT_TRUE(msgs.has_value());
  const auto nst = NewSessionTicket::parse((*msgs)[0].body);
  ASSERT_TRUE(nst.has_value());
  const PskInfo client_psk = client1->psk_from_ticket(*nst);
  EXPECT_EQ(client_psk.key, server_psk.key);

  // Second connection: PSK resumption without ECDHE (Rsmp).
  std::map<Bytes, Bytes> psk_store{{server_psk.identity, server_psk.key}};
  auto cc = client_config();
  cc.psk = client_psk;
  cc.psk_ecdhe = false;
  auto sc = server_config();
  sc.psk_lookup = [&psk_store](ByteView id) -> std::optional<Bytes> {
    const auto it = psk_store.find(to_bytes(id));
    if (it == psk_store.end()) return std::nullopt;
    return it->second;
  };
  auto [client2, server2] = run_handshake(std::move(cc), std::move(sc));
  EXPECT_TRUE(client2->done());
  EXPECT_FALSE(client2->secrets().forward_secret);
  EXPECT_EQ(client2->secrets().client_keys, server2->secrets().client_keys);
}

TEST_F(EngineTest, ResumptionWithEcdheIsForwardSecret) {
  auto [client1, server1] = run_handshake(client_config(), server_config());
  auto [ticket_bytes, server_psk] = server1->make_session_ticket();
  const auto msgs = split_flight(ticket_bytes);
  const auto nst = NewSessionTicket::parse((*msgs)[0].body);
  const PskInfo client_psk = client1->psk_from_ticket(*nst);

  auto cc = client_config();
  cc.psk = client_psk;
  cc.psk_ecdhe = true;
  auto sc = server_config();
  sc.psk_lookup = [&server_psk](ByteView id) -> std::optional<Bytes> {
    if (to_bytes(id) == server_psk.identity) return server_psk.key;
    return std::nullopt;
  };
  auto [client2, server2] = run_handshake(std::move(cc), std::move(sc));
  EXPECT_TRUE(client2->secrets().forward_secret);
  EXPECT_EQ(client2->secrets().client_keys, server2->secrets().client_keys);
}

TEST_F(EngineTest, UnknownPskRejected) {
  auto cc = client_config();
  cc.psk = PskInfo{Bytes(16, 0xde), Bytes(32, 0xad)};
  auto sc = server_config();
  sc.psk_lookup = [](ByteView) -> std::optional<Bytes> { return std::nullopt; };
  auto client = std::make_unique<ClientHandshake>(std::move(cc), rng_);
  auto server = std::make_unique<ServerHandshake>(std::move(sc), rng_);
  auto flight1 = client->start();
  EXPECT_FALSE(server->on_client_flight(flight1.value()).ok());
}

TEST_F(EngineTest, WrongPskKeyFailsBinder) {
  auto cc = client_config();
  cc.psk = PskInfo{Bytes(16, 0x01), Bytes(32, 0x02)};
  auto sc = server_config();
  sc.psk_lookup = [](ByteView) -> std::optional<Bytes> {
    return Bytes(32, 0x03);  // different key than the client used
  };
  auto client = std::make_unique<ClientHandshake>(std::move(cc), rng_);
  auto server = std::make_unique<ServerHandshake>(std::move(sc), rng_);
  auto flight1 = client->start();
  auto result = server->on_client_flight(flight1.value());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.code(), Errc::handshake_failed);
}

// ---- SMT-ticket 0-RTT (paper §4.5.2) ----

TEST_F(EngineTest, ZeroRttWithoutForwardSecrecy) {
  ASSERT_TRUE(verify_smt_ticket(ticket_, ca_.public_key(), 2000).ok());
  auto cc = client_config();
  cc.smt_ticket = ticket_;
  cc.early_data = true;
  cc.request_fs = false;
  auto sc = server_config();
  sc.accept_early_data = true;
  sc.smt_key_lookup =
      [this](ByteView id) -> std::optional<crypto::EcdhKeyPair> {
    if (to_bytes(id) == ticket_.id()) return smt_longterm_;
    return std::nullopt;
  };

  auto client = std::make_unique<ClientHandshake>(std::move(cc), rng_);
  auto server = std::make_unique<ServerHandshake>(std::move(sc), rng_);
  auto flight1 = client->start();
  ASSERT_TRUE(flight1.ok());

  // Early keys exist on the client immediately after flight 1 — data can
  // ride the first RTT.
  EXPECT_FALSE(client->secrets().client_early_keys.key.empty());

  auto server_flight = server->on_client_flight(flight1.value());
  ASSERT_TRUE(server_flight.ok()) << server_flight.error().message;
  EXPECT_TRUE(server->secrets().early_data_accepted);
  EXPECT_EQ(client->secrets().client_early_keys,
            server->secrets().client_early_keys);

  auto flight2 = client->on_server_flight(server_flight.value());
  ASSERT_TRUE(flight2.ok());
  ASSERT_TRUE(server->on_client_finished(flight2.value()).ok());
  EXPECT_EQ(client->secrets().client_keys, server->secrets().client_keys);
  EXPECT_FALSE(client->secrets().forward_secret);  // Init (no FS)
}

TEST_F(EngineTest, ZeroRttEarlyDataDecrypts) {
  auto cc = client_config();
  cc.smt_ticket = ticket_;
  cc.early_data = true;
  auto sc = server_config();
  sc.accept_early_data = true;
  sc.smt_key_lookup =
      [this](ByteView id) -> std::optional<crypto::EcdhKeyPair> {
    if (to_bytes(id) == ticket_.id()) return smt_longterm_;
    return std::nullopt;
  };
  auto client = std::make_unique<ClientHandshake>(std::move(cc), rng_);
  auto server = std::make_unique<ServerHandshake>(std::move(sc), rng_);
  auto flight1 = client->start();

  // Client encrypts 0-RTT application data under the early keys.
  RecordProtection client_early(CipherSuite::aes_128_gcm_sha256,
                                client->secrets().client_early_keys);
  const Bytes zero_rtt_record = client_early.seal(
      0, ContentType::application_data, to_bytes(std::string_view("GET /key")));

  auto server_flight = server->on_client_flight(flight1.value());
  ASSERT_TRUE(server_flight.ok());
  RecordProtection server_early(CipherSuite::aes_128_gcm_sha256,
                                server->secrets().client_early_keys);
  const auto opened = server_early.open(0, zero_rtt_record);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().payload, to_bytes(std::string_view("GET /key")));
}

TEST_F(EngineTest, ZeroRttWithForwardSecrecyUpgrade) {
  auto cc = client_config();
  cc.smt_ticket = ticket_;
  cc.early_data = true;
  cc.request_fs = true;  // Init-FS
  auto sc = server_config();
  sc.accept_early_data = true;
  sc.smt_key_lookup =
      [this](ByteView id) -> std::optional<crypto::EcdhKeyPair> {
    if (to_bytes(id) == ticket_.id()) return smt_longterm_;
    return std::nullopt;
  };
  auto [client, server] = run_handshake(std::move(cc), std::move(sc));
  EXPECT_TRUE(client->secrets().forward_secret);
  EXPECT_EQ(client->secrets().client_keys, server->secrets().client_keys);
}

TEST_F(EngineTest, ZeroRttReplayBlocked) {
  ZeroRttReplayGuard guard;
  auto sc = server_config();
  sc.accept_early_data = true;
  sc.replay_guard = &guard;
  sc.smt_key_lookup =
      [this](ByteView id) -> std::optional<crypto::EcdhKeyPair> {
    if (to_bytes(id) == ticket_.id()) return smt_longterm_;
    return std::nullopt;
  };
  auto cc = client_config();
  cc.smt_ticket = ticket_;
  cc.early_data = true;

  auto client = std::make_unique<ClientHandshake>(std::move(cc), rng_);
  auto flight1 = client->start();
  ASSERT_TRUE(flight1.ok());

  // First delivery: early data accepted.
  auto server1 = std::make_unique<ServerHandshake>(sc, rng_);
  ASSERT_TRUE(server1->on_client_flight(flight1.value()).ok());
  EXPECT_TRUE(server1->secrets().early_data_accepted);

  // Replayed flight: the handshake proceeds but early data is refused.
  auto server2 = std::make_unique<ServerHandshake>(sc, rng_);
  ASSERT_TRUE(server2->on_client_flight(flight1.value()).ok());
  EXPECT_FALSE(server2->secrets().early_data_accepted);
}

TEST_F(EngineTest, UnknownSmtTicketRejected) {
  auto cc = client_config();
  cc.smt_ticket = ticket_;
  auto sc = server_config();
  sc.smt_key_lookup = [](ByteView) -> std::optional<crypto::EcdhKeyPair> {
    return std::nullopt;
  };
  auto client = std::make_unique<ClientHandshake>(std::move(cc), rng_);
  auto server = std::make_unique<ServerHandshake>(std::move(sc), rng_);
  auto flight1 = client->start();
  EXPECT_FALSE(server->on_client_flight(flight1.value()).ok());
}

TEST_F(EngineTest, PregeneratedKeysSkipKeyGen) {
  auto cc = client_config();
  cc.pregen_ephemeral = crypto::ecdh_keypair_from_seed(rng_.generate(32));
  auto sc = server_config();
  sc.pregen_ephemeral = crypto::ecdh_keypair_from_seed(rng_.generate(32));
  auto [client, server] = run_handshake(std::move(cc), std::move(sc));
  for (const auto& [label, us] : client->timings().ops) {
    EXPECT_NE(label, "C1.1 Key Gen");
  }
  for (const auto& [label, us] : server->timings().ops) {
    EXPECT_NE(label, "S2.1 Key Gen");
  }
}

TEST_F(EngineTest, TimingsCoverTable2Operations) {
  auto [client, server] = run_handshake(client_config(), server_config());
  const auto has_op = [](const HandshakeTimings& t, std::string_view label) {
    for (const auto& [op, us] : t.ops) {
      if (op == label) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_op(server->timings(), "S1 Process CHLO"));
  EXPECT_TRUE(has_op(server->timings(), "S2.1 Key Gen"));
  EXPECT_TRUE(has_op(server->timings(), "S2.2 ECDH Exchange"));
  EXPECT_TRUE(has_op(server->timings(), "S2.5 CertVerify Gen"));
  EXPECT_TRUE(has_op(server->timings(), "S3 Process Finished"));
  EXPECT_TRUE(has_op(client->timings(), "C1.1 Key Gen"));
  EXPECT_TRUE(has_op(client->timings(), "C2.2 ECDH Exchange"));
  EXPECT_TRUE(has_op(client->timings(), "C3.2 Verify Cert"));
  EXPECT_TRUE(has_op(client->timings(), "C4.2 Verify CertVerify"));
  EXPECT_TRUE(has_op(client->timings(), "C5 Process Finished"));
  // No injected op_clock: every duration is exactly 0 — the engine never
  // reads host time, so the default breakdown is fully deterministic.
  EXPECT_EQ(client->timings().total_us(), 0.0);
  EXPECT_EQ(server->timings().total_us(), 0.0);
}

namespace {
// Deterministic fake clock: advances 1 us per reading, so every timed
// operation records a strictly positive duration.
std::uint64_t ticking_clock() {
  static std::uint64_t now_ns = 0;
  return now_ns += 1000;
}
}  // namespace

TEST_F(EngineTest, InjectedClockProducesDurations) {
  auto cc = client_config();
  cc.op_clock = ticking_clock;
  auto sc = server_config();
  sc.op_clock = ticking_clock;
  auto [client, server] = run_handshake(std::move(cc), std::move(sc));
  EXPECT_GT(client->timings().total_us(), 0.0);
  EXPECT_GT(server->timings().total_us(), 0.0);
  for (const auto& [label, us] : client->timings().ops) {
    EXPECT_GT(us, 0.0) << label;
  }
}

TEST_F(EngineTest, DistinctHandshakesDistinctKeys) {
  auto [c1, s1] = run_handshake(client_config(), server_config());
  auto [c2, s2] = run_handshake(client_config(), server_config());
  EXPECT_NE(c1->secrets().client_keys.key, c2->secrets().client_keys.key);
}

}  // namespace
}  // namespace smt::tls
