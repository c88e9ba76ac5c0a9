// kTLS over TCP — the paper's primary baseline (§2.1, §5).
//
// TLS 1.3 records ride the TCP bytestream with a single per-connection
// record sequence space. Modes:
//   * kTLS-sw — the kernel encrypts/decrypts in software;
//   * kTLS-hw — transmit-side records are encrypted in line by the NIC's
//     autonomous offload; the receive side is ALWAYS software (§5: "We
//     don't use receive-side offload for kTLS"), like SMT.
//
// kTLS-hw drives the tls_device path (§2.3 / Figure 2) through the host's
// FlowContextManager, as SMT-hw does: each connection leases one TX
// context at register_session, and TCP's pre-post hook binds each segment's
// records to it (FlowContextManager::bind_tx). Consecutive records ride the
// NIC's self-increment; a retransmitted record is resynced ("Out-resync"),
// and a context lost to eviction or a NIC reset re-establishes at the next
// post.
//
// The same class backs the TCPLS-like baseline (§5.5): TCPLS's custom
// nonce computation is incompatible with NIC TLS offload (§2.1), and its
// stream multiplexing adds per-record work — modelled by forcing software
// crypto and charging `extra_record_cost`.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "common/hash.hpp"
#include "tls/record.hpp"
#include "transport/tcp/tcp.hpp"

namespace smt::baselines {

struct KtlsConfig {
  bool hw_offload = false;
  /// Extra per-record CPU cost (used by the TCPLS-like variant).
  SimDuration extra_record_cost = 0;
};

class KtlsEndpoint {
 public:
  using ConnId = transport::TcpEndpoint::ConnId;
  /// Decrypted application bytes, in stream order.
  using DataHandler = std::function<void(ConnId, Bytes)>;
  using AcceptHandler = std::function<void(ConnId)>;

  KtlsEndpoint(stack::Host& host, std::uint16_t port, KtlsConfig config = {});
  ~KtlsEndpoint();

  KtlsEndpoint(const KtlsEndpoint&) = delete;
  KtlsEndpoint& operator=(const KtlsEndpoint&) = delete;

  void set_on_data(DataHandler handler) { on_data_ = std::move(handler); }
  void set_on_accept(AcceptHandler handler) { on_accept_ = std::move(handler); }

  ConnId connect(std::uint32_t dst_ip, std::uint16_t dst_port) {
    return tcp_.connect(dst_ip, dst_port);
  }

  /// Registers the session keys on the connection (setsockopt TLS_TX/RX).
  /// In hw mode this also leases the connection's NIC TX flow context.
  Status register_session(ConnId conn, tls::CipherSuite suite,
                          const tls::TrafficKeys& tx_keys,
                          const tls::TrafficKeys& rx_keys);

  /// Encrypts `plaintext` into records and sends them on the stream.
  Status send(ConnId conn, Bytes plaintext,
              stack::CpuCore* app_core = nullptr);

  struct Stats {
    std::uint64_t records_sent = 0;
    std::uint64_t records_received = 0;
    std::uint64_t decrypt_failures = 0;
  };
  const Stats& stats() const noexcept { return stats_; }
  transport::TcpEndpoint& tcp() noexcept { return tcp_; }

 private:
  struct SessionState {
    tls::CipherSuite suite = tls::CipherSuite::aes_128_gcm_sha256;
    std::optional<tls::RecordProtection> tx;
    std::optional<tls::RecordProtection> rx;  // empty once dropped
    std::uint64_t tx_seq = 0;  // single per-connection record space
    std::uint64_t rx_seq = 0;
    Bytes rx_stream;  // undecrypted stream awaiting full records
  };

  void on_stream_data(ConnId conn, Bytes data);

  stack::Host& host_;
  KtlsConfig config_;
  transport::TcpEndpoint tcp_;
  DataHandler on_data_;
  AcceptHandler on_accept_;
  std::unordered_map<ConnId, SessionState, TableHash> sessions_;
  Stats stats_;
};

/// TCPLS-like baseline (§5.5): software-only crypto plus stream
/// aggregation overhead; cannot use TLS offload (§2.1).
class TcplsEndpoint : public KtlsEndpoint {
 public:
  TcplsEndpoint(stack::Host& host, std::uint16_t port)
      : KtlsEndpoint(host, port, make_config()) {}

 private:
  static KtlsConfig make_config() {
    KtlsConfig config;
    config.hw_offload = false;  // custom nonce: no NIC offload (§2.1)
    config.extra_record_cost = nsec(900);  // stream multiplexing/aggregation
    return config;
  }
};

}  // namespace smt::baselines
