// TLS 1.3 key schedule (RFC 8446 §7.1) over SHA-256.
//
// Drives every keying mode the paper uses: full (EC)DHE handshakes,
// PSK-based resumption with and without forward secrecy, and the
// SMT-ticket 0-RTT flow (§4.5.2) which feeds the ECDH(SMT-long-term,
// client-ephemeral) output through the same schedule.
#pragma once

#include "common/bytes.hpp"
#include "tls/cipher.hpp"

namespace smt::tls {

struct TrafficKeys {
  Bytes key;  // AEAD key
  Bytes iv;   // per-record nonce base

  friend bool operator==(const TrafficKeys&, const TrafficKeys&) = default;
};

/// Derives the AEAD key/IV pair from a traffic secret (RFC 8446 §7.3).
TrafficKeys derive_traffic_keys(ByteView traffic_secret, CipherSuite suite);

/// Finished key for a handshake traffic secret (RFC 8446 §4.4.4).
Bytes derive_finished_key(ByteView traffic_secret);

/// Computes a Finished verify_data value.
Bytes finished_verify_data(ByteView finished_key, ByteView transcript_hash);

/// Incremental key-schedule state machine.
///
/// Usage: construct, then advance in order —
///   early(psk)              [optional; empty psk means no PSK]
///   handshake(ecdhe_secret) [empty secret in pure-PSK resumption]
///   master()
/// querying the derived secrets at each stage.
class KeySchedule {
 public:
  explicit KeySchedule(CipherSuite suite);

  /// Stage 1: Early-Secret = HKDF-Extract(0, PSK-or-zeros).
  void early(ByteView psk);

  /// client_early_traffic_secret for 0-RTT data.
  Bytes client_early_traffic_secret(ByteView transcript_hash) const;

  /// binder_key for PSK binders (resumption) or SMT-ticket binding.
  Bytes binder_key(bool external) const;

  /// Stage 2: Handshake-Secret = HKDF-Extract(derived, ECDHE).
  void handshake(ByteView ecdhe_shared_secret);

  Bytes client_handshake_traffic_secret(ByteView transcript_hash) const;
  Bytes server_handshake_traffic_secret(ByteView transcript_hash) const;

  /// Stage 3: Master-Secret.
  void master();

  Bytes client_app_traffic_secret(ByteView transcript_hash) const;
  Bytes server_app_traffic_secret(ByteView transcript_hash) const;
  Bytes resumption_master_secret(ByteView transcript_hash) const;

  /// PSK for a resumption ticket (RFC 8446 §4.6.1).
  static Bytes ticket_psk(ByteView resumption_master_secret,
                          ByteView ticket_nonce);

  CipherSuite suite() const noexcept { return suite_; }

 private:
  CipherSuite suite_;
  Bytes early_secret_;
  Bytes handshake_secret_;
  Bytes master_secret_;
};

}  // namespace smt::tls
