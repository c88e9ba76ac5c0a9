// Layer replays: each times one layer's public functions on the workload's
// own message and record sizes, outside the simulator. Inside a run the
// event loop interleaves every layer, so until events carry layer tags the
// per-layer wall time below the apps spans is estimated this way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace smt::bench::suite {

struct CryptoReplay {
  double aead_seal_ns = 0;     // per record, averaged over one RPC's records
  double aead_open_ns = 0;     // likewise
  double aead_ns_per_rpc = 0;  // seal + open of every record of one RPC
  /// Per RPC: tls::RecordProtection seal + open of every record, minus the
  /// AEAD replay of the same records.
  double record_self_ns = 0;
  /// Per RPC: proto::build_wire_message + open_wire_message (software
  /// mode) of every message, minus the record replay. SMT only.
  std::optional<double> wire_self_ns;
};

/// `messages` holds the plaintext size of every message one RPC sends
/// (request, then response), as the transport sees it. `smt` selects the
/// SMT wire replay; otherwise the messages are kTLS stream writes.
/// `quick` shrinks iteration counts for smoke runs.
CryptoReplay replay_crypto(const std::vector<std::size_t>& messages, bool smt,
                           std::uint64_t seed, bool quick);

/// ns per event for schedule_at + pop + invoke of small callbacks on an
/// EventLoop holding `depth` pending events.
double replay_event_ns(std::size_t depth, bool quick);

struct HandshakeReplay {
  double handshake_ms = 0;     // full TLS 1.3 handshake, both sides
  double ecdh_ms = 0;          // per ECDH exchange
  double ecdsa_sign_ms = 0;    // CertificateVerify generation
  double ecdsa_verify_ms = 0;  // per signature verification
};

/// The handshake RpcFabric runs at set-up, through tls::ClientHandshake /
/// ServerHandshake with an injected clock; medians over several runs.
HandshakeReplay replay_handshake(bool quick);

}  // namespace smt::bench::suite
