#include "smt/wire.hpp"

#include <cassert>
#include <cstring>

namespace smt::proto {

Result<WireMessage> build_wire_message(const SegmenterConfig& config,
                                       const tls::RecordProtection& protection,
                                       std::uint64_t msg_id, ByteView plaintext,
                                       std::size_t pad_to) {
  if (!config.layout.valid_msg_id(msg_id)) {
    return make_error(Errc::resource_exhausted,
                      "message ID space exhausted for this session");
  }

  // Padding request: extend the final record's inner plaintext with zeros
  // so the total app-data-plus-padding reaches pad_to.
  const std::size_t padded_len = std::max(plaintext.size(), pad_to);

  // Number of records at max_record_payload granularity (at least one so
  // empty messages still authenticate).
  const std::size_t n_records =
      std::max<std::size_t>(1, (padded_len + config.max_record_payload - 1) /
                                   config.max_record_payload);
  if (!config.layout.valid_record_index(n_records - 1)) {
    return make_error(Errc::message_too_large,
                      "message needs more records than the index bits allow");
  }

  WireMessage wire;
  wire.record_count = n_records;

  // The segment being filled; each full one is adopted as its own slab.
  Bytes payload;
  sim::InlineTls records;
  records.lead = kFramingHeaderSize;
  const auto flush_segment = [&] {
    wire.total_wire_bytes += payload.size();
    SegmentPlan& segment = wire.segments.emplace_back();
    segment.payload = PayloadSlice(std::move(payload));
    segment.records = records;
    payload = Bytes();
    records.count = 0;
  };
  std::size_t consumed = 0;  // plaintext bytes consumed
  for (std::size_t rec = 0; rec < n_records; ++rec) {
    // App bytes for this record (the tail records may carry padding).
    const std::size_t record_target =
        std::min(config.max_record_payload, padded_len - rec * config.max_record_payload);
    const std::size_t app_take =
        std::min(record_target, plaintext.size() - consumed);
    const std::size_t pad_take = record_target - app_take;
    const ByteView app_data = plaintext.subspan(consumed, app_take);
    consumed += app_take;

    const std::uint64_t seq = config.layout.compose(msg_id, rec);
    // Both modes put the same number of bytes on the wire: framing header,
    // record header, inner plaintext (app data, type byte, padding), tag.
    const std::size_t block_len = kFramingHeaderSize + tls::kRecordHeaderSize +
                                  record_target + 1 +
                                  crypto::AesGcm::kTagSize;
    // Segment alignment (§4.3): a record never straddles TSO segments.
    if (!payload.empty() && payload.size() + block_len > config.max_tso_bytes) {
      flush_segment();
    }
    // Reserve the segment's final size up front: all remaining record
    // blocks are at most this one's size, so one reservation replaces the
    // doubling-growth reallocations the append loop used to pay.
    if (payload.empty()) {
      payload.reserve(
          std::min(config.max_tso_bytes, block_len * (n_records - rec)));
    }
    // Framing header carries the padded length so plaintext metadata does
    // not reveal the true size (§6.1 length concealment).
    append_u32be(payload, static_cast<std::uint32_t>(record_target));
    if (config.hardware_crypto) {
      if (records.count++ == 0) records.first_seq = seq;
      tls::append_record_shell(payload,
                               tls::ContentType::application_data, app_data,
                               pad_take);
    } else {
      protection.seal_into(seq, tls::ContentType::application_data, app_data,
                           pad_take, payload);
    }
  }
  flush_segment();
  return wire;
}

namespace {

/// The single implementation of the record-block framing walk. Invokes
/// `fn(record_offset, record_len)` — the TLS record's span, past the
/// framing header — for each block; `fn` returns an error Status to stop.
/// Both the decrypting opener and the cost-model counter parse through
/// here, so the wire format cannot silently diverge between them.
template <typename Fn>
Status walk_record_blocks(ByteView wire, Fn&& fn) {
  std::size_t offset = 0;
  while (offset < wire.size()) {
    if (wire.size() - offset < kFramingHeaderSize + tls::kRecordHeaderSize) {
      return make_error(Errc::protocol_violation, "truncated record block");
    }
    offset += kFramingHeaderSize;
    const auto body_len =
        tls::parse_record_length(wire.subspan(offset, tls::kRecordHeaderSize));
    if (!body_len.ok()) return body_len.error();
    const std::size_t record_len = tls::kRecordHeaderSize + body_len.value();
    if (wire.size() - offset < record_len) {
      return make_error(Errc::protocol_violation, "truncated TLS record");
    }
    Status status = fn(offset, record_len);
    if (!status.ok()) return status;
    offset += record_len;
  }
  return Status::success();
}

}  // namespace

Result<Bytes> open_wire_message(const SeqnoLayout& layout,
                                const tls::RecordProtection& protection,
                                std::uint64_t msg_id, Bytes&& wire) {
  // Records open in place, and each one's content moves down to the end
  // of the plaintext so far. That end never passes the current record's
  // header, so the walk still reads every later block intact.
  std::size_t plaintext_end = 0;
  std::uint64_t record_index = 0;
  Status walked = walk_record_blocks(wire, [&](std::size_t offset,
                                               std::size_t record_len) {
    if (!layout.valid_record_index(record_index)) {
      return Status(make_error(Errc::protocol_violation,
                               "record index overflow"));
    }

    const std::uint64_t seq = layout.compose(msg_id, record_index);
    // The receiver learns the true length at decryption; the record layer
    // strips the padding (zeros beyond the app data). The framing header's
    // padded length only guides reassembly.
    auto opened = protection.open_in_place(
        seq, MutByteView(wire).subspan(offset, record_len));
    if (!opened.ok()) return Status(opened.error());
    const MutByteView content = opened.value().content;
    std::memmove(wire.data() + plaintext_end, content.data(), content.size());
    plaintext_end += content.size();
    ++record_index;
    return Status::success();
  });
  if (!walked.ok()) return walked.error();
  wire.resize(plaintext_end);
  return std::move(wire);
}

Result<Bytes> open_wire_message(const SeqnoLayout& layout,
                                const tls::RecordProtection& protection,
                                std::uint64_t msg_id, ByteView wire) {
  return open_wire_message(layout, protection, msg_id,
                           Bytes(wire.begin(), wire.end()));
}

std::size_t count_record_blocks(ByteView wire) noexcept {
  std::size_t count = 0;
  Status walked = walk_record_blocks(wire, [&](std::size_t, std::size_t) {
    ++count;
    return Status::success();
  });
  return walked.ok() ? count : 0;
}

}  // namespace smt::proto
