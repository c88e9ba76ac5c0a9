// Quickstart: encrypted RPC over SMT in ~60 lines of user code.
//
// Sets up the simulated testbed (two hosts, 100 Gb/s back-to-back link),
// runs a REAL TLS 1.3 handshake, registers the negotiated keys on the SMT
// sockets (the setsockopt analogue, paper §4.2), and exchanges an
// encrypted request/response pair.
//
//   $ ./quickstart
#include <cstdio>

#include "crypto/drbg.hpp"
#include "smt/endpoint.hpp"
#include "stack/topology.hpp"
#include "tls/engine.hpp"

using namespace smt;

int main() {
  // --- testbed: two hosts, 100 Gb/s back-to-back (builder default) -------
  sim::ShardedEngine engine(1);
  sim::EventLoop& loop = engine.loop(0);
  auto built = stack::TopologyBuilder().build(engine);
  if (!built.ok()) {
    std::printf("topology error: %s\n", built.error().message.c_str());
    return 1;
  }
  auto topology = std::move(built).take();
  stack::Host& client_host = topology->host(0);  // ip 1
  stack::Host& server_host = topology->host(1);  // ip 2

  // --- PKI + TLS 1.3 handshake (the application's job, §4.2) -------------
  crypto::HmacDrbg rng(to_bytes(std::string_view("quickstart")));
  auto ca = tls::CertificateAuthority::create("dc-root", rng);
  const auto server_key = crypto::ecdsa_keypair_from_seed(rng.generate(32));
  tls::CertChain chain;
  chain.certs.push_back(ca.issue(
      "server.internal", crypto::encode_point(server_key.public_key), 0, 1u << 30));

  tls::ClientConfig cc;
  cc.server_name = "server.internal";
  cc.trusted_ca = ca.public_key();
  cc.now = 1000;
  tls::ServerConfig sc;
  sc.chain = chain;
  sc.sig_key = server_key;
  sc.trusted_ca = ca.public_key();
  sc.now = 1000;

  tls::ClientHandshake client_hs(cc, rng);
  tls::ServerHandshake server_hs(sc, rng);
  auto flight1 = client_hs.start();
  auto server_flight = server_hs.on_client_flight(flight1.value());
  auto flight2 = client_hs.on_server_flight(server_flight.value());
  if (!server_hs.on_client_finished(flight2.value()).ok()) {
    std::puts("handshake failed");
    return 1;
  }
  std::printf("TLS 1.3 handshake complete (%s, forward secret: %s)\n",
              tls::suite_name(client_hs.secrets().suite),
              client_hs.secrets().forward_secret ? "yes" : "no");

  // --- SMT sockets + key registration ------------------------------------
  proto::SmtConfig smt_config;  // software crypto; set hw_offload for NIC TLS
  proto::SmtEndpoint client(client_host, 1000, smt_config);
  proto::SmtEndpoint server(server_host, 80, smt_config);

  const auto& cs = client_hs.secrets();
  const auto& ss = server_hs.secrets();
  client.register_session({2, 80}, cs.suite, cs.client_keys, cs.server_keys);
  server.register_session({1, 1000}, ss.suite, ss.server_keys, ss.client_keys);

  // --- server: echo handler ----------------------------------------------
  server.set_on_message([&](proto::SmtEndpoint::MessageMeta meta, Bytes data) {
    std::printf("server: message %llu from %u:%u — %zu plaintext bytes\n",
                (unsigned long long)meta.msg_id, meta.peer.ip, meta.peer.port,
                data.size());
    server.send_message({meta.peer.ip, 1000}, std::move(data));
  });

  // --- client: send one encrypted RPC ------------------------------------
  client.set_on_message([&](proto::SmtEndpoint::MessageMeta, Bytes data) {
    std::printf("client: response received at t=%.2f us: \"%.*s\"\n",
                to_usec(loop.now()), int(data.size()), data.data());
  });
  client.send_message({2, 80}, to_bytes(std::string_view("hello, SMT!")));

  loop.run();

  std::printf("done: %llu message(s) delivered, %llu replay(s) dropped\n",
              (unsigned long long)server.stats().messages_delivered,
              (unsigned long long)server.stats().replays_dropped);
  return 0;
}
