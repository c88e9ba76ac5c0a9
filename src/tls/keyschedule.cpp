#include "tls/keyschedule.hpp"

#include <cassert>

#include "crypto/hkdf.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace smt::tls {

namespace {
/// Transcript hash of the empty string, used by Derive-Secret between stages.
Bytes empty_hash() { return crypto::sha256({}); }
}  // namespace

TrafficKeys derive_traffic_keys(ByteView traffic_secret, CipherSuite suite) {
  TrafficKeys keys;
  keys.key = crypto::hkdf_expand_label(traffic_secret, "key", {},
                                       key_length(suite));
  keys.iv = crypto::hkdf_expand_label(traffic_secret, "iv", {},
                                      iv_length(suite));
  return keys;
}

Bytes derive_finished_key(ByteView traffic_secret) {
  return crypto::hkdf_expand_label(traffic_secret, "finished", {},
                                   crypto::Sha256::kDigestSize);
}

Bytes finished_verify_data(ByteView finished_key, ByteView transcript_hash) {
  return crypto::hmac_sha256(finished_key, transcript_hash);
}

KeySchedule::KeySchedule(CipherSuite suite) : suite_(suite) {}

void KeySchedule::early(ByteView psk) {
  const Bytes zeros(hash_length(suite_), 0);
  early_secret_ = crypto::hkdf_extract({}, psk.empty() ? ByteView(zeros) : psk);
}

Bytes KeySchedule::client_early_traffic_secret(ByteView transcript_hash) const {
  assert(!early_secret_.empty());
  return crypto::derive_secret(early_secret_, "c e traffic", transcript_hash);
}

Bytes KeySchedule::binder_key(bool external) const {
  assert(!early_secret_.empty());
  return crypto::derive_secret(early_secret_,
                               external ? "ext binder" : "res binder",
                               empty_hash());
}

void KeySchedule::handshake(ByteView ecdhe_shared_secret) {
  assert(!early_secret_.empty() && "call early() first");
  const Bytes derived =
      crypto::derive_secret(early_secret_, "derived", empty_hash());
  const Bytes zeros(hash_length(suite_), 0);
  handshake_secret_ = crypto::hkdf_extract(
      derived,
      ecdhe_shared_secret.empty() ? ByteView(zeros) : ecdhe_shared_secret);
}

Bytes KeySchedule::client_handshake_traffic_secret(
    ByteView transcript_hash) const {
  assert(!handshake_secret_.empty());
  return crypto::derive_secret(handshake_secret_, "c hs traffic",
                               transcript_hash);
}

Bytes KeySchedule::server_handshake_traffic_secret(
    ByteView transcript_hash) const {
  assert(!handshake_secret_.empty());
  return crypto::derive_secret(handshake_secret_, "s hs traffic",
                               transcript_hash);
}

void KeySchedule::master() {
  assert(!handshake_secret_.empty() && "call handshake() first");
  const Bytes derived =
      crypto::derive_secret(handshake_secret_, "derived", empty_hash());
  const Bytes zeros(hash_length(suite_), 0);
  master_secret_ = crypto::hkdf_extract(derived, zeros);
}

Bytes KeySchedule::client_app_traffic_secret(ByteView transcript_hash) const {
  assert(!master_secret_.empty());
  return crypto::derive_secret(master_secret_, "c ap traffic", transcript_hash);
}

Bytes KeySchedule::server_app_traffic_secret(ByteView transcript_hash) const {
  assert(!master_secret_.empty());
  return crypto::derive_secret(master_secret_, "s ap traffic", transcript_hash);
}

Bytes KeySchedule::resumption_master_secret(ByteView transcript_hash) const {
  assert(!master_secret_.empty());
  return crypto::derive_secret(master_secret_, "res master", transcript_hash);
}

Bytes KeySchedule::ticket_psk(ByteView resumption_master_secret,
                              ByteView ticket_nonce) {
  return crypto::hkdf_expand_label(resumption_master_secret, "resumption",
                                   ticket_nonce, crypto::Sha256::kDigestSize);
}

}  // namespace smt::tls
