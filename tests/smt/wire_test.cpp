#include "smt/wire.hpp"

#include <gtest/gtest.h>

namespace smt::proto {
namespace {

tls::TrafficKeys test_keys() {
  tls::TrafficKeys keys;
  keys.key = Bytes(16, 0x51);
  keys.iv = Bytes(12, 0x52);
  return keys;
}

class WireTest : public ::testing::Test {
 protected:
  WireTest()
      : protection_(tls::CipherSuite::aes_128_gcm_sha256, test_keys()) {}

  SegmenterConfig sw_config() const {
    SegmenterConfig config;
    config.hardware_crypto = false;
    return config;
  }

  Bytes concat(const WireMessage& wire) const {
    Bytes out;
    for (const auto& seg : wire.segments) append(out, seg.payload);
    return out;
  }

  tls::RecordProtection protection_;
};

TEST_F(WireTest, SmallMessageRoundTrip) {
  const Bytes msg = to_bytes(std::string_view("rpc payload"));
  auto wire = build_wire_message(sw_config(), protection_, 7, msg);
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ(wire.value().record_count, 1u);
  const auto opened =
      open_wire_message(SeqnoLayout{}, protection_, 7, concat(wire.value()));
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), msg);
}

TEST_F(WireTest, EmptyMessageRoundTrip) {
  auto wire = build_wire_message(sw_config(), protection_, 0, {});
  ASSERT_TRUE(wire.ok());
  const auto opened =
      open_wire_message(SeqnoLayout{}, protection_, 0, concat(wire.value()));
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened.value().empty());
}

TEST_F(WireTest, MultiRecordMessageRoundTrip) {
  Bytes msg(100000, 0);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = std::uint8_t(i % 255);
  auto wire = build_wire_message(sw_config(), protection_, 9, msg);
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ(wire.value().record_count, 7u);  // ceil(100000 / 16000)
  EXPECT_GT(wire.value().segments.size(), 1u);
  const auto opened =
      open_wire_message(SeqnoLayout{}, protection_, 9, concat(wire.value()));
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), msg);
}

TEST_F(WireTest, RecordsAlignedToSegments) {
  // No record block may straddle a TSO segment boundary (§4.3).
  Bytes msg(200000, 0x33);
  auto wire = build_wire_message(sw_config(), protection_, 1, msg);
  ASSERT_TRUE(wire.ok());
  for (const auto& seg : wire.value().segments) {
    EXPECT_LE(seg.payload.size(), 65536u);
    // Each segment must parse as a whole number of record blocks.
    std::size_t offset = 0;
    while (offset < seg.payload.size()) {
      ASSERT_LE(offset + kFramingHeaderSize + tls::kRecordHeaderSize,
                seg.payload.size());
      const auto body_len = tls::parse_record_length(ByteView(
          seg.payload.data() + offset + kFramingHeaderSize, 5));
      ASSERT_TRUE(body_len.ok());
      offset += kFramingHeaderSize + tls::kRecordHeaderSize + body_len.value();
    }
    EXPECT_EQ(offset, seg.payload.size());
  }
}

TEST_F(WireTest, WrongMessageIdFailsDecrypt) {
  // The message ID feeds the composite seqno: opening as another message
  // must fail authentication — this is the §6.1 replay/injection defence.
  const Bytes msg = to_bytes(std::string_view("bound to msg 7"));
  auto wire = build_wire_message(sw_config(), protection_, 7, msg);
  ASSERT_TRUE(wire.ok());
  const auto opened =
      open_wire_message(SeqnoLayout{}, protection_, 8, concat(wire.value()));
  EXPECT_EQ(opened.code(), Errc::decrypt_failed);
}

TEST_F(WireTest, ReorderedRecordsFailDecrypt) {
  // Order protection within a message (§6.1): swapping two record blocks
  // breaks the implicit record indices.
  Bytes msg(32000, 0x44);  // exactly 2 records
  auto wire = build_wire_message(sw_config(), protection_, 3, msg);
  ASSERT_TRUE(wire.ok());
  Bytes bytes = concat(wire.value());
  // Both records have identical wire length; swap the halves.
  const std::size_t half = bytes.size() / 2;
  Bytes swapped;
  swapped.insert(swapped.end(), bytes.begin() + std::ptrdiff_t(half), bytes.end());
  swapped.insert(swapped.end(), bytes.begin(), bytes.begin() + std::ptrdiff_t(half));
  const auto opened = open_wire_message(SeqnoLayout{}, protection_, 3, swapped);
  EXPECT_EQ(opened.code(), Errc::decrypt_failed);
}

TEST_F(WireTest, TamperedPayloadFailsDecrypt) {
  Bytes msg(5000, 0x01);
  auto wire = build_wire_message(sw_config(), protection_, 2, msg);
  Bytes bytes = concat(wire.value());
  bytes[bytes.size() / 2] ^= 0x80;
  EXPECT_EQ(open_wire_message(SeqnoLayout{}, protection_, 2, bytes).code(),
            Errc::decrypt_failed);
}

TEST_F(WireTest, TruncatedWireRejected) {
  Bytes msg(5000, 0x01);
  auto wire = build_wire_message(sw_config(), protection_, 2, msg);
  Bytes bytes = concat(wire.value());
  bytes.resize(bytes.size() - 10);
  EXPECT_FALSE(open_wire_message(SeqnoLayout{}, protection_, 2, bytes).ok());
}

TEST_F(WireTest, PaddingConcealsLength) {
  // §6.1 length concealment: two different true lengths padded to the same
  // target produce identical wire sizes, and both decrypt to their true
  // payloads.
  const Bytes short_msg(100, 0x0a);
  const Bytes long_msg(900, 0x0b);
  auto w1 = build_wire_message(sw_config(), protection_, 1, short_msg, 1000);
  auto w2 = build_wire_message(sw_config(), protection_, 2, long_msg, 1000);
  ASSERT_TRUE(w1.ok());
  ASSERT_TRUE(w2.ok());
  EXPECT_EQ(w1.value().total_wire_bytes, w2.value().total_wire_bytes);
  const auto o1 = open_wire_message(SeqnoLayout{}, protection_, 1, concat(w1.value()));
  const auto o2 = open_wire_message(SeqnoLayout{}, protection_, 2, concat(w2.value()));
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  EXPECT_EQ(o1.value(), short_msg);
  EXPECT_EQ(o2.value(), long_msg);
}

TEST_F(WireTest, PaddedFramingHeaderHidesTrueLength) {
  // The plaintext framing header must show the PADDED length (§6.1).
  const Bytes msg(10, 0x0c);
  auto wire = build_wire_message(sw_config(), protection_, 1, msg, 500);
  ASSERT_TRUE(wire.ok());
  const Bytes bytes = concat(wire.value());
  EXPECT_EQ(load_u32be(bytes.data()), 500u);
}

TEST_F(WireTest, MessageIdSpaceExhaustion) {
  SegmenterConfig config = sw_config();
  config.layout = SeqnoLayout(8);  // tiny space: 256 messages
  EXPECT_TRUE(build_wire_message(config, protection_, 255, Bytes(10, 0)).ok());
  EXPECT_EQ(build_wire_message(config, protection_, 256, Bytes(10, 0)).code(),
            Errc::resource_exhausted);
}

TEST_F(WireTest, RecordIndexOverflowRejected) {
  SegmenterConfig config = sw_config();
  config.layout = SeqnoLayout(62);  // 2 record-index bits: max 4 records
  config.max_record_payload = 100;
  EXPECT_TRUE(build_wire_message(config, protection_, 1, Bytes(400, 0)).ok());
  EXPECT_EQ(build_wire_message(config, protection_, 1, Bytes(401, 0)).code(),
            Errc::message_too_large);
}

TEST_F(WireTest, HardwareModeLeavesPlaintextShells) {
  SegmenterConfig config = sw_config();
  config.hardware_crypto = true;
  const Bytes msg = to_bytes(std::string_view("to be encrypted by the NIC"));
  auto wire = build_wire_message(config, protection_, 5, msg);
  ASSERT_TRUE(wire.ok());
  ASSERT_EQ(wire.value().segments.size(), 1u);
  const SegmentPlan& seg = wire.value().segments[0];
  ASSERT_EQ(seg.records.count, 1u);
  EXPECT_EQ(seg.records.context_id, 0u);  // the pre-post hook binds it
  EXPECT_EQ(seg.records.first_seq, SeqnoLayout{}.compose(5, 0));
  // The plaintext is visible in the shell (before NIC encryption).
  const auto it = std::search(seg.payload.begin(), seg.payload.end(),
                              msg.begin(), msg.end());
  EXPECT_NE(it, seg.payload.end());
}

TEST_F(WireTest, HardwareRunWalksEachSegmentToItsLastByte) {
  // The NIC walks a segment's run by its record headers: `count` records,
  // each after `lead` framing bytes, must end exactly at the segment's
  // last byte, and the runs number the message's records consecutively.
  SegmenterConfig config = sw_config();
  config.hardware_crypto = true;
  Bytes msg(150000, 0x66);
  auto wire = build_wire_message(config, protection_, 5, msg);
  ASSERT_TRUE(wire.ok());
  ASSERT_GT(wire.value().segments.size(), 1u);
  std::uint64_t next_seq = SeqnoLayout{}.compose(5, 0);
  for (const auto& seg : wire.value().segments) {
    ASSERT_GT(seg.records.count, 0u);
    EXPECT_EQ(seg.records.lead, kFramingHeaderSize);
    EXPECT_EQ(seg.records.first_seq, next_seq);
    next_seq += seg.records.count;
    const ByteView bytes = seg.payload.view();
    std::size_t offset = 0;
    for (std::uint16_t i = 0; i < seg.records.count; ++i) {
      offset += seg.records.lead;
      ASSERT_LE(offset + tls::kRecordHeaderSize, bytes.size());
      EXPECT_EQ(bytes[offset], 23);  // record header type
      EXPECT_EQ(load_u16be(bytes.data() + offset + 1), 0x0303);
      const auto body = tls::parse_record_length(bytes.subspan(offset));
      ASSERT_TRUE(body.ok());
      offset += tls::kRecordHeaderSize + body.value();
    }
    EXPECT_EQ(offset, bytes.size());
  }
  EXPECT_EQ(next_seq,
            SeqnoLayout{}.compose(5, 0) + wire.value().record_count);
}

// Sweep message sizes around record and segment boundaries.
class WireSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WireSizeSweep, RoundTrip) {
  tls::TrafficKeys keys;
  keys.key = Bytes(16, 0x51);
  keys.iv = Bytes(12, 0x52);
  tls::RecordProtection protection(tls::CipherSuite::aes_128_gcm_sha256, keys);
  SegmenterConfig config;
  Bytes msg(GetParam(), 0);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = std::uint8_t(i * 7);
  auto wire = build_wire_message(config, protection, 11, msg);
  ASSERT_TRUE(wire.ok());
  Bytes bytes;
  for (const auto& seg : wire.value().segments) append(bytes, seg.payload);
  const auto opened = open_wire_message(SeqnoLayout{}, protection, 11, bytes);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), msg);
}

INSTANTIATE_TEST_SUITE_P(Sizes, WireSizeSweep,
                         ::testing::Values(1, 64, 1500, 15999, 16000, 16001,
                                           32000, 65536, 100000, 1 << 20));

}  // namespace
}  // namespace smt::proto
