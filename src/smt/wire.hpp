// SMT wire-message construction and parsing (paper §4.3, Figure 3).
//
// An application message becomes a sequence of *record blocks*, each:
//
//     framing header (4 B, app-data length) | TLS record
//     TLS record = 5 B header | ciphertext(inner plaintext) | 16 B tag
//
// Records are aligned to TSO segment boundaries so NIC TLS offload can
// encrypt whole records per segment; the TCP-overlay header (message ID /
// length / TSO offset) stays plaintext for in-network message-granularity
// operations (§1, §7 INC compatibility).
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "smt/seqno.hpp"
#include "tls/record.hpp"
#include "transport/homa/homa.hpp"

namespace smt::proto {

/// Framing header: 32-bit app-data length (paper Figure 3; §4.3 notes it
/// could be removed — kept, as in the authors' implementation).
constexpr std::size_t kFramingHeaderSize = 4;

/// Per-record wire expansion: framing + record header + type byte + tag.
constexpr std::size_t record_block_overhead() noexcept {
  return kFramingHeaderSize + tls::kRecordHeaderSize + 1 + 16;
}

/// One TSO segment of a wire message, in the form Homa sends it: its
/// wire bytes as a slab of their own and its run of records for the NIC
/// to encrypt (none in software mode).
using SegmentPlan = transport::SegmentSpec;

struct WireMessage {
  std::vector<SegmentPlan> segments;
  std::size_t total_wire_bytes = 0;
  std::size_t record_count = 0;
};

struct SegmenterConfig {
  SeqnoLayout layout{};
  std::size_t max_record_payload = tls::kMaxRecordPayload;  // app bytes/record
  std::size_t max_tso_bytes = 65536;
  bool hardware_crypto = false;
};

/// Builds the wire form of `plaintext` for message `msg_id`.
///
/// Software mode: records are sealed here with `protection`.
/// Hardware mode: plaintext record shells are laid out, each segment names
/// its (unbound) run of records, and the NIC encrypts in line (§4.4.2).
///
/// `pad_to` (optional): pads the *application* data length of the final
/// record so the total plaintext is at least pad_to bytes — TLS length
/// concealment (§6.1); padding bytes ride inside the AEAD.
Result<WireMessage> build_wire_message(const SegmenterConfig& config,
                                       const tls::RecordProtection& protection,
                                       std::uint64_t msg_id, ByteView plaintext,
                                       std::size_t pad_to = 0);

/// Parses and decrypts a reassembled wire message. Record indices are
/// implicit in order (0, 1, 2, ...) — the per-message record space's order
/// protection (§6.1): any reordering or substitution fails authentication.
/// The plaintext is returned in `wire`'s own buffer: each record is
/// decrypted in place and its content moved down behind the previous one.
Result<Bytes> open_wire_message(const SeqnoLayout& layout,
                                const tls::RecordProtection& protection,
                                std::uint64_t msg_id, Bytes&& wire);

/// As above, on a copy of `wire`.
Result<Bytes> open_wire_message(const SeqnoLayout& layout,
                                const tls::RecordProtection& protection,
                                std::uint64_t msg_id, ByteView wire);

/// Counts the record blocks of a reassembled wire message by walking the
/// plaintext framing/record headers — no decryption. Used by the receive
/// path to charge per-record costs before opening the records. Returns 0
/// for malformed framing (the subsequent open reports the real error).
std::size_t count_record_blocks(ByteView wire) noexcept;

}  // namespace smt::proto
