// Figure 12: key-exchange latency for the five handshake methods (§5.6).
//
//   Init-1RTT — standard TLS 1.3 full handshake (baseline);
//   Init      — SMT-ticket 0-RTT, no forward secrecy;
//   Init-FS   — SMT-ticket 0-RTT + server ephemeral upgrade;
//   Rsmp      — PSK resumption (pre-generated keys, no ECDHE);
//   Rsmp-FS   — PSK resumption with ECDHE.
//
// Latency = REAL wall-clock crypto from our library (both endpoints'
// handshake operations) + simulated network round trips + the first data
// exchange at each RPC size. Expected shape: Init beats Init-1RTT by
// ~52-55 %, Init-FS by ~37-44 %; Rsmp-FS minus Rsmp equals roughly one
// ECDH per side (paper: 338-387 us; larger here — portable ECC).
#include <map>

#include "bench_common.hpp"
#include "crypto/drbg.hpp"
#include "tls/engine.hpp"

using namespace smt;
using namespace smt::bench;
using namespace smt::tls;

namespace {

struct Pki {
  crypto::HmacDrbg rng{to_bytes(std::string_view("fig12-bench"))};
  CertificateAuthority ca = CertificateAuthority::create("dc-root", rng);
  crypto::EcdsaKeyPair server_key;
  CertChain chain;
  crypto::EcdhKeyPair longterm;
  SmtTicket ticket;

  Pki() {
    server_key = crypto::ecdsa_keypair_from_seed(rng.generate(32));
    chain.certs.push_back(ca.issue(
        "server", crypto::encode_point(server_key.public_key), 0, 1u << 30));
    longterm = crypto::ecdh_keypair_from_seed(rng.generate(32));
    ticket = issue_smt_ticket(ca, "server",
                              crypto::encode_point(longterm.public_key), chain,
                              0, 1u << 30);
  }
};

enum class Method { init_1rtt, init, init_fs, rsmp, rsmp_fs };

const char* method_name(Method m) {
  switch (m) {
    case Method::init_1rtt: return "Init-1RTT";
    case Method::init: return "Init";
    case Method::init_fs: return "Init-FS";
    case Method::rsmp: return "Rsmp";
    case Method::rsmp_fs: return "Rsmp-FS";
  }
  return "?";
}

/// Runs one handshake; returns (total crypto us, number of RTTs before the
/// requester holds the response to its first RPC).
std::pair<double, double> run_handshake(Pki& pki, Method method) {
  ClientConfig cc;
  cc.server_name = "server";
  cc.trusted_ca = pki.ca.public_key();
  cc.now = 100;
  cc.op_clock = bench::wall_clock_ns;  // crypto_us needs real durations
  ServerConfig sc;
  sc.chain = pki.chain;
  sc.sig_key = pki.server_key;
  sc.trusted_ca = pki.ca.public_key();
  sc.now = 100;
  sc.op_clock = bench::wall_clock_ns;
  sc.accept_early_data = true;
  sc.smt_key_lookup =
      [&pki](ByteView id) -> std::optional<crypto::EcdhKeyPair> {
    if (to_bytes(id) == pki.ticket.id()) return pki.longterm;
    return std::nullopt;
  };

  // Pre-generated standby keys (§4.5.1) for everything except Init-1RTT.
  if (method != Method::init_1rtt) {
    cc.pregen_ephemeral = crypto::ecdh_keypair_from_seed(pki.rng.generate(32));
    sc.pregen_ephemeral = crypto::ecdh_keypair_from_seed(pki.rng.generate(32));
  }

  switch (method) {
    case Method::init_1rtt:
      break;
    case Method::init:
      cc.smt_ticket = pki.ticket;
      cc.early_data = true;
      cc.request_fs = false;
      break;
    case Method::init_fs:
      cc.smt_ticket = pki.ticket;
      cc.early_data = true;
      cc.request_fs = true;
      break;
    case Method::rsmp:
    case Method::rsmp_fs: {
      // Setup connection to mint a ticket (outside the measured path).
      ClientConfig scc = cc;
      scc.psk.reset();
      scc.smt_ticket.reset();
      ServerConfig ssc = sc;
      ClientHandshake c0(scc, pki.rng);
      ServerHandshake s0(ssc, pki.rng);
      auto f1 = c0.start();
      auto sf = s0.on_client_flight(f1.value());
      auto f2 = c0.on_server_flight(sf.value());
      (void)s0.on_client_finished(f2.value());
      auto [ticket_bytes, psk] = s0.make_session_ticket();
      cc.psk = psk;
      cc.early_data = true;
      cc.psk_ecdhe = method == Method::rsmp_fs;
      sc.psk_lookup =
          [session_psk = psk](ByteView id) -> std::optional<Bytes> {
        if (to_bytes(id) == session_psk.identity) return session_psk.key;
        return std::nullopt;
      };
      break;
    }
  }

  ClientHandshake client(cc, pki.rng);
  ServerHandshake server(sc, pki.rng);
  auto f1 = client.start();
  auto sf = server.on_client_flight(f1.value());
  auto f2 = client.on_server_flight(sf.value());
  const Status done = server.on_client_finished(f2.value());
  if (!done.ok()) std::printf("HANDSHAKE FAILED: %s\n", done.message().c_str());

  const double crypto_us =
      client.timings().total_us() + server.timings().total_us();
  // RTTs until the client holds its first RPC response: with accepted
  // 0-RTT data the request rides flight 1 (1 RTT total); a full handshake
  // needs the handshake RTT first (2 RTTs total).
  const bool zero_rtt_data = server.secrets().early_data_accepted;
  return {crypto_us, zero_rtt_data ? 1.0 : 2.0};
}

}  // namespace

int main(int argc, char** argv) {
  init(argc, argv);
  Pki pki;
  const std::vector<std::size_t> sizes =
      sweep<std::size_t>({64, 128, 256, 1024, 4096, 8192});

  // Simulated data-exchange RTT per size (SMT-sw fabric).
  std::map<std::size_t, double> rtt_us;
  for (const std::size_t size : sizes) {
    RpcFabricConfig config;
    config.kind = TransportKind::smt_sw;
    rtt_us[size] = measure_unloaded_rtt_us(config, size, 3, 10);
  }

  const Method methods[] = {Method::init, Method::init_fs, Method::init_1rtt,
                            Method::rsmp, Method::rsmp_fs};
  std::printf("== Figure 12: key-exchange + first-RPC latency [us] ==\n");
  std::printf("%-10s", "RPC size");
  for (const Method m : methods) std::printf("%12s", method_name(m));
  std::printf("\n");

  std::map<Method, double> crypto_cache, rtts_cache;
  for (const Method m : methods) {
    // Average the crypto cost over a few runs.
    double crypto = 0, rtts = 0;
    const int kIters = smoke() ? 1 : 5;
    for (int i = 0; i < kIters; ++i) {
      const auto [c, r] = run_handshake(pki, m);
      crypto += c;
      rtts = r;
    }
    crypto_cache[m] = crypto / kIters;
    rtts_cache[m] = rtts;
  }

  std::vector<std::map<Method, double>> totals;
  for (const std::size_t size : sizes) {
    std::printf("%-10zu", size);
    std::map<Method, double> row;
    for (const Method m : methods) {
      row[m] = crypto_cache[m] + rtts_cache[m] * rtt_us[size];
      std::printf("%12.0f", row[m]);
    }
    totals.push_back(row);
    std::printf("\n");
  }

  std::printf("\nshape checks (vs Init-1RTT; paper: Init 52-55%% faster, "
              "Init-FS 37-44%% faster):\n");
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const double base = totals[i][Method::init_1rtt];
    std::printf("  %6zu B: Init %-+5.1f%%  Init-FS %-+5.1f%%  Rsmp-FS minus "
                "Rsmp: %.0f us\n",
                sizes[i], 100.0 * (totals[i][Method::init] - base) / base,
                100.0 * (totals[i][Method::init_fs] - base) / base,
                totals[i][Method::rsmp_fs] - totals[i][Method::rsmp]);
  }
  return 0;
}
