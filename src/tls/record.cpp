#include "tls/record.hpp"

#include <algorithm>
#include <cassert>
#include <tuple>

#include "crypto/gcm.hpp"

namespace smt::tls {

RecordNonce record_nonce(ByteView iv, std::uint64_t seq) noexcept {
  assert(iv.size() == std::tuple_size_v<RecordNonce>);
  RecordNonce nonce;
  std::copy(iv.begin(), iv.end(), nonce.begin());
  for (std::size_t i = 0; i < 8; ++i) {
    nonce[nonce.size() - 1 - i] ^= static_cast<std::uint8_t>(seq >> (8 * i));
  }
  return nonce;
}

void append_record_shell(Bytes& out, ContentType type, ByteView content,
                         std::size_t pad_len) {
  const std::size_t body_len =
      content.size() + 1 + pad_len + crypto::AesGcm::kTagSize;
  // The header doubles as the AEAD's AAD (opaque_type=23,
  // legacy_version=0x0303).
  append_u8(out, static_cast<std::uint8_t>(ContentType::application_data));
  append_u16be(out, 0x0303);
  append_u16be(out, static_cast<std::uint16_t>(body_len));
  append(out, content);
  append_u8(out, static_cast<std::uint8_t>(type));
  out.resize(out.size() + pad_len + crypto::AesGcm::kTagSize, 0);
}

RecordProtection::RecordProtection(CipherSuite suite, TrafficKeys keys)
    : suite_(suite), keys_(std::move(keys)), aead_(keys_.key) {
  assert(keys_.key.size() == key_length(suite));
  assert(keys_.iv.size() == iv_length(suite));
  assert(tag_length(suite) == crypto::AesGcm::kTagSize);
}

Bytes RecordProtection::seal(std::uint64_t seq, ContentType type,
                             ByteView payload, std::size_t pad_len) const {
  // The final wire size is known exactly: reserve once, no append growth.
  Bytes record;
  record.reserve(kRecordHeaderSize + payload.size() + 1 + pad_len +
                 tag_length(suite_));
  seal_into(seq, type, payload, pad_len, record);
  return record;
}

void RecordProtection::seal_into(std::uint64_t seq, ContentType type,
                                 ByteView payload, std::size_t pad_len,
                                 Bytes& out) const {
  assert(payload.size() + pad_len + 1 <= kMaxRecordPlaintext + 1 &&
         "record plaintext too large");
  const std::size_t start = out.size();
  append_record_shell(out, type, payload, pad_len);
  const MutByteView record = MutByteView(out).subspan(start);
  aead_.seal_in_place(record_nonce(keys_.iv, seq),
                      record.first(kRecordHeaderSize),
                      record.subspan(kRecordHeaderSize));
}

Result<OpenedRecord> RecordProtection::open(std::uint64_t seq,
                                            ByteView record) const {
  OpenedRecord out;
  auto type = open_into(seq, record, out.payload);
  if (!type.ok()) return type.error();
  out.type = type.value();
  return out;
}

namespace {

struct InnerContent {
  ContentType type;
  std::size_t length;
};

/// The content of a decrypted TLSInnerPlaintext (content || type ||
/// zeros): the zero padding, then the content-type byte, stripped.
Result<InnerContent> strip_padding(ByteView inner) {
  std::size_t end = inner.size();
  while (end > 0 && inner[end - 1] == 0) --end;
  if (end == 0) {
    return make_error(Errc::protocol_violation,
                      "record contains no content type");
  }
  return InnerContent{static_cast<ContentType>(inner[end - 1]), end - 1};
}

}  // namespace

Result<ByteView> RecordProtection::record_body(ByteView record) const {
  if (record.size() < kRecordHeaderSize + tag_length(suite_)) {
    return make_error(Errc::protocol_violation, "record too short");
  }
  const auto body_len = parse_record_length(record.first(kRecordHeaderSize));
  if (!body_len.ok()) return body_len.error();
  if (record.size() != kRecordHeaderSize + body_len.value()) {
    return make_error(Errc::protocol_violation, "record length mismatch");
  }
  return record.subspan(kRecordHeaderSize);
}

Result<ContentType> RecordProtection::open_into(std::uint64_t seq,
                                                ByteView record,
                                                Bytes& out) const {
  const auto body = record_body(record);
  if (!body.ok()) return body.error();

  const std::size_t start = out.size();
  out.resize(start + body.value().size() - tag_length(suite_));
  const MutByteView inner = MutByteView(out).subspan(start);
  if (!aead_.open_into(record_nonce(keys_.iv, seq),
                       record.first(kRecordHeaderSize), body.value(), inner)) {
    out.resize(start);
    return make_error(Errc::decrypt_failed, "AEAD authentication failed");
  }
  const auto content = strip_padding(inner);
  if (!content.ok()) {
    out.resize(start);
    return content.error();
  }
  out.resize(start + content.value().length);
  return content.value().type;
}

Result<OpenedInPlace> RecordProtection::open_in_place(
    std::uint64_t seq, MutByteView record) const {
  const auto body = record_body(record);
  if (!body.ok()) return body.error();

  // The CTR keystream XOR may write over its input, so the plaintext
  // lands where the ciphertext was.
  const MutByteView inner = record.subspan(
      kRecordHeaderSize, body.value().size() - tag_length(suite_));
  if (!aead_.open_into(record_nonce(keys_.iv, seq),
                       record.first(kRecordHeaderSize), body.value(), inner)) {
    return make_error(Errc::decrypt_failed, "AEAD authentication failed");
  }
  const auto content = strip_padding(inner);
  if (!content.ok()) return content.error();
  return OpenedInPlace{content.value().type,
                       inner.first(content.value().length)};
}

Result<std::size_t> parse_record_length(ByteView header5) {
  if (header5.size() < kRecordHeaderSize) {
    return make_error(Errc::protocol_violation, "header truncated");
  }
  if (header5[0] != static_cast<std::uint8_t>(ContentType::application_data)) {
    return make_error(Errc::protocol_violation, "unexpected record type");
  }
  if (load_u16be(header5.data() + 1) != 0x0303) {
    return make_error(Errc::protocol_violation, "bad legacy version");
  }
  const std::size_t len = load_u16be(header5.data() + 3);
  if (len > kMaxRecordPlaintext + 256 + 16) {
    return make_error(Errc::protocol_violation, "record body too large");
  }
  return len;
}

}  // namespace smt::tls
