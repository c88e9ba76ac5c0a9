// TLS 1.3 record protection (RFC 8446 §5.2-5.3).
//
// The caller supplies the 64-bit record sequence number explicitly. This is
// the pivot of the paper's Figure 4:
//   * TLS/TCP    — a single monotonically increasing per-connection counter;
//   * SMT        — a composite (48-bit message ID || 16-bit intra-message
//                  record index) supplied by the SMT session (§4.4.1);
//   * QUIC-style — a per-packet number (discussed in §6.3).
// The AEAD nonce is IV XOR seq per RFC 8446, so hardware with a
// self-incrementing counter works for the low (record-index) bits — the
// property SMT's composite layout preserves.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "crypto/gcm.hpp"
#include "tls/cipher.hpp"
#include "tls/keyschedule.hpp"

namespace smt::tls {

/// Record content types (subset used here).
enum class ContentType : std::uint8_t {
  alert = 21,
  handshake = 22,
  application_data = 23,
};

/// Maximum plaintext per record (RFC 8446 §5.1): 2^14 bytes.
constexpr std::size_t kMaxRecordPlaintext = 16384;

/// App bytes per record that SMT and kTLS cut messages into: under the
/// 16 KB record limit (§4.3). Endpoints cap it further so a record fits
/// one of their NIC's segments (NicConfig::max_segment_bytes()).
constexpr std::size_t kMaxRecordPayload = 16000;

/// Record header size on the wire: type(1) + legacy version(2) + length(2).
constexpr std::size_t kRecordHeaderSize = 5;

/// Per-record expansion: header + content-type byte + AEAD tag.
constexpr std::size_t record_overhead(CipherSuite suite) noexcept {
  return kRecordHeaderSize + 1 + tag_length(suite);
}

struct OpenedRecord {
  ContentType type;
  Bytes payload;  // with padding and content-type byte stripped
};

/// A record opened where it lies (RecordProtection::open_in_place).
struct OpenedInPlace {
  ContentType type;
  MutByteView content;  // inside the record, right after its header
};

/// The per-record AEAD nonce (RFC 8446 §5.3): `seq` left-padded to the IV
/// length and XORed with the static IV. The one nonce derivation shared by
/// the software record layer and the simulated NIC offload engine, so both
/// encrypt identically.
using RecordNonce = std::array<std::uint8_t, crypto::AesGcm::kNonceSize>;
RecordNonce record_nonce(ByteView iv, std::uint64_t seq) noexcept;

/// Appends a plaintext record shell to `out`: the 5-byte header, the
/// TLSInnerPlaintext (content || type || `pad_len` zeros) and zeroed tag
/// space. Sealing the shell in place yields the wire record; NIC offload
/// posts it as is and the NIC encrypts it in line (§4.4.2).
void append_record_shell(Bytes& out, ContentType type, ByteView content,
                         std::size_t pad_len);

/// Stateless sealer/opener bound to one direction's traffic keys.
class RecordProtection {
 public:
  RecordProtection(CipherSuite suite, TrafficKeys keys);

  /// Seals `payload` into a full wire record (header included).
  /// `pad_len` appends that many zero bytes inside the ciphertext for
  /// length concealment (§6.1 "Length concealment").
  Bytes seal(std::uint64_t seq, ContentType type, ByteView payload,
             std::size_t pad_len = 0) const;

  /// As seal(), but appends the wire record to `out` and seals it there.
  void seal_into(std::uint64_t seq, ContentType type, ByteView payload,
                 std::size_t pad_len, Bytes& out) const;

  /// Opens a full wire record (header included). Fails on tag mismatch,
  /// malformed header, or empty inner plaintext.
  Result<OpenedRecord> open(std::uint64_t seq, ByteView record) const;

  /// As open(), but appends the record's content to `out` and returns its
  /// type. On failure `out` is left as it was.
  Result<ContentType> open_into(std::uint64_t seq, ByteView record,
                                Bytes& out) const;

  /// As open(), but decrypts the record's body over its ciphertext: no
  /// buffer is allocated or zeroed. The tag is verified before anything is
  /// written, so a record that fails authentication is left as it was.
  Result<OpenedInPlace> open_in_place(std::uint64_t seq,
                                      MutByteView record) const;

  const TrafficKeys& keys() const noexcept { return keys_; }

 private:
  /// The body of a well-formed record: the header parses and the body is
  /// exactly as long as it says, and holds at least a tag.
  Result<ByteView> record_body(ByteView record) const;

  CipherSuite suite_;
  TrafficKeys keys_;
  crypto::AesGcm aead_;
};

/// Parses the 5-byte record header; returns the record body length or an
/// error. Used by stream reassembly to delimit records in TCP flows.
Result<std::size_t> parse_record_length(ByteView header5);

}  // namespace smt::tls
