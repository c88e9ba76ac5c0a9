#include "replay.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>

#include "accounting.hpp"
#include "crypto/drbg.hpp"
#include "crypto/gcm.hpp"
#include "netsim/event.hpp"
#include "smt/wire.hpp"
#include "tls/engine.hpp"
#include "tls/record.hpp"

namespace smt::bench::suite {
namespace {

// App bytes per record: the default of both SmtConfig and KtlsConfig.
constexpr std::size_t kMaxRecordPayload = 16000;

// Replayed results are stored here so the calls cannot be optimised away.
volatile std::size_t g_sink = 0;

[[noreturn]] void replay_failed(const char* what) {
  std::fprintf(stderr, "bench_suite: replay self-check failed: %s\n", what);
  std::exit(1);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Median over trials of the wall ns per call of `op`, with the iteration
/// count scaled so one trial of a `bytes`-sized operation takes ~1 ms.
template <typename F>
double ns_per_op(std::size_t bytes, bool quick, F&& op) {
  const std::size_t iters = std::max<std::size_t>(
      4, (quick ? 40'000 : 2'000'000) / (bytes + 256));
  const int trials = quick ? 1 : 5;
  std::vector<double> per_op;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t start = clock_ns();
    for (std::size_t i = 0; i < iters; ++i) op();
    per_op.push_back(double(clock_ns() - start) / double(iters));
  }
  return median(per_op);
}

std::vector<std::size_t> record_sizes(std::size_t message) {
  std::vector<std::size_t> sizes;
  for (std::size_t off = 0; off < message; off += kMaxRecordPayload) {
    sizes.push_back(std::min(kMaxRecordPayload, message - off));
  }
  return sizes;
}

struct RecordCost {
  double aead_seal = 0;
  double aead_open = 0;
  double record_seal = 0;
  double record_open = 0;
};

RecordCost time_record(std::size_t app_bytes, const crypto::AesGcm& aead,
                       const tls::RecordProtection& protection, bool quick) {
  // The AEAD sees the TLS 1.3 inner plaintext (data + content type byte)
  // with the 5-byte record header as associated data.
  const Bytes nonce(crypto::AesGcm::kNonceSize, 0x11);
  const Bytes aad(tls::kRecordHeaderSize, 0x17);
  const Bytes inner(app_bytes + 1, 0x5a);
  const Bytes payload(app_bytes, 0x5a);
  const Bytes sealed = aead.seal(nonce, aad, inner);
  const Bytes record =
      protection.seal(7, tls::ContentType::application_data, payload);
  if (!aead.open(nonce, aad, sealed) || !protection.open(7, record).ok()) {
    replay_failed("record does not open");
  }
  RecordCost cost;
  cost.aead_seal = ns_per_op(app_bytes, quick, [&] {
    g_sink = aead.seal(nonce, aad, inner).size();
  });
  cost.aead_open = ns_per_op(app_bytes, quick, [&] {
    g_sink = aead.open(nonce, aad, sealed)->size();
  });
  cost.record_seal = ns_per_op(app_bytes, quick, [&] {
    g_sink =
        protection.seal(7, tls::ContentType::application_data, payload).size();
  });
  cost.record_open = ns_per_op(app_bytes, quick, [&] {
    g_sink = protection.open(7, record).value().payload.size();
  });
  return cost;
}

Bytes concat_segments(const proto::WireMessage& message) {
  Bytes wire;
  wire.reserve(message.total_wire_bytes);
  for (const proto::SegmentPlan& segment : message.segments) {
    append(wire, segment.payload);
  }
  return wire;
}

}  // namespace

CryptoReplay replay_crypto(const std::vector<std::size_t>& messages, bool smt,
                           std::uint64_t seed, bool quick) {
  crypto::HmacDrbg rng(to_bytes("bench-suite-replay-" + std::to_string(seed)));
  tls::TrafficKeys keys;
  keys.key = rng.generate(16);
  keys.iv = rng.generate(12);
  const tls::RecordProtection protection(tls::CipherSuite::aes_128_gcm_sha256,
                                         keys);
  const crypto::AesGcm aead(keys.key);

  CryptoReplay out;
  std::map<std::size_t, RecordCost> by_size;
  std::size_t records = 0;
  double record_ns = 0;
  for (const std::size_t message : messages) {
    for (const std::size_t size : record_sizes(message)) {
      auto it = by_size.find(size);
      if (it == by_size.end()) {
        it = by_size.emplace(size, time_record(size, aead, protection, quick))
                 .first;
      }
      out.aead_seal_ns += it->second.aead_seal;
      out.aead_open_ns += it->second.aead_open;
      record_ns += it->second.record_seal + it->second.record_open;
      ++records;
    }
  }
  out.aead_ns_per_rpc = out.aead_seal_ns + out.aead_open_ns;
  out.record_self_ns = record_ns - out.aead_ns_per_rpc;
  out.aead_seal_ns /= double(records);
  out.aead_open_ns /= double(records);

  if (smt) {
    const proto::SegmenterConfig config;  // software mode, 16000-byte records
    double wire_ns = 0;
    for (const std::size_t message : messages) {
      const Bytes plaintext = rng.generate(message);
      auto built = proto::build_wire_message(config, protection, 42, plaintext);
      if (!built.ok()) replay_failed("SMT wire message does not build");
      const Bytes wire = concat_segments(built.value());
      auto opened =
          proto::open_wire_message(config.layout, protection, 42, wire);
      if (!opened.ok() || opened.value() != plaintext) {
        replay_failed("SMT wire message does not open to its plaintext");
      }
      wire_ns += ns_per_op(message, quick, [&] {
        g_sink = proto::build_wire_message(config, protection, 42, plaintext)
                     .value()
                     .total_wire_bytes;
      });
      wire_ns += ns_per_op(message, quick, [&] {
        g_sink = proto::open_wire_message(config.layout, protection, 42, wire)
                     .value()
                     .size();
      });
    }
    out.wire_self_ns = wire_ns - record_ns;
  }
  return out;
}

double replay_event_ns(std::size_t depth, bool quick) {
  // Every event reschedules itself a pseudo-random 1..1024 ns ahead until
  // the budget is spent, so the heap holds `depth` events throughout.
  struct Tick {
    sim::EventLoop* loop;
    std::size_t* budget;
    std::uint64_t* lcg;
    void operator()() const {
      if (*budget == 0) return;
      --*budget;
      *lcg = *lcg * 6364136223846793005ull + 1442695040888963407ull;
      loop->schedule(SimDuration(1 + (*lcg >> 54)), *this);
    }
  };
  depth = std::max<std::size_t>(depth, 1);
  std::vector<double> per_event;
  for (int trial = 0; trial < (quick ? 1 : 5); ++trial) {
    sim::EventLoop loop;
    std::size_t budget = quick ? 20'000 : 400'000;
    std::uint64_t lcg = 1;
    for (std::size_t i = 0; i < depth; ++i) {
      loop.schedule(SimDuration(i), Tick{&loop, &budget, &lcg});
    }
    const std::uint64_t start = clock_ns();
    const std::size_t executed = loop.run();
    per_event.push_back(double(clock_ns() - start) / double(executed));
  }
  return median(per_event);
}

HandshakeReplay replay_handshake(bool quick) {
  crypto::HmacDrbg rng(to_bytes(std::string_view("bench-suite-handshake")));
  auto ca = tls::CertificateAuthority::create("dc-root", rng);
  const auto server_key = crypto::ecdsa_keypair_from_seed(rng.generate(32));
  tls::CertChain chain;
  chain.certs.push_back(ca.issue(
      "server", crypto::encode_point(server_key.public_key), 0, 1u << 30));

  std::vector<double> total_ms, ecdh_ms, sign_ms, verify_ms;
  for (int i = 0; i < (quick ? 1 : 5); ++i) {
    tls::ClientConfig cc;
    cc.server_name = "server";
    cc.trusted_ca = ca.public_key();
    cc.now = 100;
    cc.op_clock = &clock_ns;
    tls::ServerConfig sc;
    sc.chain = chain;
    sc.sig_key = server_key;
    sc.trusted_ca = ca.public_key();
    sc.now = 100;
    sc.op_clock = &clock_ns;

    const std::uint64_t start = clock_ns();
    tls::ClientHandshake client(cc, rng);
    tls::ServerHandshake server(sc, rng);
    auto hello = client.start();
    if (!hello.ok()) replay_failed("ClientHello");
    auto server_flight = server.on_client_flight(hello.value());
    if (!server_flight.ok()) replay_failed("server flight");
    auto finished = client.on_server_flight(server_flight.value());
    if (!finished.ok()) replay_failed("client Finished");
    if (!server.on_client_finished(finished.value()).ok()) {
      replay_failed("server accepts Finished");
    }
    total_ms.push_back(double(clock_ns() - start) / 1e6);

    std::map<std::string, double> us;
    for (const auto* side : {&server.timings(), &client.timings()}) {
      for (const auto& [label, micros] : side->ops) us[label] += micros;
    }
    ecdh_ms.push_back((us["S2.2 ECDH Exchange"] + us["C2.2 ECDH Exchange"]) /
                      2e3);
    sign_ms.push_back(us["S2.5 CertVerify Gen"] / 1e3);
    verify_ms.push_back(
        (us["C3.2 Verify Cert"] + us["C4.2 Verify CertVerify"]) / 2e3);
  }
  return HandshakeReplay{median(total_ms), median(ecdh_ms), median(sign_ms),
                         median(verify_ms)};
}

}  // namespace smt::bench::suite
