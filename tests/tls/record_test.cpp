#include "tls/record.hpp"

#include <gtest/gtest.h>

namespace smt::tls {
namespace {

RecordProtection make_protection() {
  TrafficKeys keys;
  keys.key = Bytes(16, 0x11);
  keys.iv = Bytes(12, 0x22);
  return RecordProtection(CipherSuite::aes_128_gcm_sha256, std::move(keys));
}

TEST(Record, SealOpenRoundTrip) {
  const RecordProtection rp = make_protection();
  const Bytes payload = to_bytes(std::string_view("hello record layer"));
  const Bytes record = rp.seal(0, ContentType::application_data, payload);
  const auto opened = rp.open(0, record);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().payload, payload);
  EXPECT_EQ(opened.value().type, ContentType::application_data);
}

TEST(Record, WrongSequenceNumberFails) {
  // The seqno feeds the AEAD nonce: opening with another seq must fail.
  // This is exactly the TLS property SMT leans on for replay defence.
  const RecordProtection rp = make_protection();
  const Bytes record =
      rp.seal(7, ContentType::application_data, to_bytes(std::string_view("x")));
  EXPECT_EQ(rp.open(8, record).code(), Errc::decrypt_failed);
  EXPECT_TRUE(rp.open(7, record).ok());
}

TEST(Record, CompositeSequenceNumbersAreDistinct) {
  // SMT composite seqnos (§4.4.1): message 5 record 0 vs message 5<<16... a
  // record sealed under one composite value opens only under that value.
  const RecordProtection rp = make_protection();
  const std::uint64_t msg5_rec0 = (5ULL << 16) | 0;
  const std::uint64_t msg5_rec1 = (5ULL << 16) | 1;
  const std::uint64_t msg6_rec0 = (6ULL << 16) | 0;
  const Bytes record = rp.seal(msg5_rec0, ContentType::application_data,
                               to_bytes(std::string_view("payload")));
  EXPECT_TRUE(rp.open(msg5_rec0, record).ok());
  EXPECT_EQ(rp.open(msg5_rec1, record).code(), Errc::decrypt_failed);
  EXPECT_EQ(rp.open(msg6_rec0, record).code(), Errc::decrypt_failed);
}

TEST(Record, NonceXorLayout) {
  const Bytes iv(12, 0x22);
  const RecordNonce n0 = record_nonce(iv, 0);
  EXPECT_TRUE(std::equal(n0.begin(), n0.end(), iv.begin()));  // IV untouched
  const RecordNonce n1 = record_nonce(iv, 1);
  EXPECT_EQ(n1.back(), 0x22 ^ 0x01);
  EXPECT_TRUE(std::equal(n0.begin(), n0.end() - 1, n1.begin()));
  // The seq is big-endian in the low 8 bytes; the top 4 keep the IV.
  const RecordNonce n = record_nonce(iv, 0x0102030405060708ULL);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(n[i], 0x22);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(n[4 + i], 0x22 ^ std::uint8_t(i + 1)) << "byte " << 4 + i;
  }
}

TEST(Record, TamperedRecordRejected) {
  const RecordProtection rp = make_protection();
  Bytes record =
      rp.seal(0, ContentType::application_data, to_bytes(std::string_view("data")));
  record[kRecordHeaderSize + 1] ^= 0x01;
  EXPECT_EQ(rp.open(0, record).code(), Errc::decrypt_failed);
}

TEST(Record, TamperedHeaderRejected) {
  // The header is AAD; changing the length breaks parsing, changing other
  // bytes breaks authentication.
  const RecordProtection rp = make_protection();
  Bytes record =
      rp.seal(0, ContentType::application_data, to_bytes(std::string_view("data")));
  Bytes bad = record;
  bad[3] ^= 0x01;  // length high byte
  EXPECT_FALSE(rp.open(0, bad).ok());
}

TEST(Record, PaddingConcealsLength) {
  const RecordProtection rp = make_protection();
  const Bytes short_payload = to_bytes(std::string_view("ab"));
  const Bytes longer_payload = to_bytes(std::string_view("abcdefghij"));
  // Pad both to a common size: wire records become identical length.
  const Bytes r1 = rp.seal(0, ContentType::application_data, short_payload, 30);
  const Bytes r2 =
      rp.seal(1, ContentType::application_data, longer_payload, 22);
  EXPECT_EQ(r1.size(), r2.size());
  // And both decrypt to their true payloads.
  EXPECT_EQ(rp.open(0, r1).value().payload, short_payload);
  EXPECT_EQ(rp.open(1, r2).value().payload, longer_payload);
}

TEST(Record, PaddingStrippedExactly) {
  const RecordProtection rp = make_protection();
  // Payload ending in zero bytes must survive padding removal intact.
  Bytes payload = {0x01, 0x00, 0x00};
  const Bytes record = rp.seal(0, ContentType::application_data, payload, 5);
  const auto opened = rp.open(0, record);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().payload, payload);
}

TEST(Record, HandshakeContentType) {
  const RecordProtection rp = make_protection();
  const Bytes record =
      rp.seal(0, ContentType::handshake, to_bytes(std::string_view("hs")));
  const auto opened = rp.open(0, record);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().type, ContentType::handshake);
}

TEST(Record, EmptyPayload) {
  const RecordProtection rp = make_protection();
  const Bytes record = rp.seal(0, ContentType::application_data, {});
  const auto opened = rp.open(0, record);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened.value().payload.empty());
}

TEST(Record, TruncatedRecordRejected) {
  const RecordProtection rp = make_protection();
  Bytes record =
      rp.seal(0, ContentType::application_data, to_bytes(std::string_view("data")));
  record.resize(record.size() - 1);
  EXPECT_EQ(rp.open(0, record).code(), Errc::protocol_violation);
  EXPECT_EQ(rp.open(0, Bytes{}).code(), Errc::protocol_violation);
}

TEST(Record, OpenInPlaceDecryptsOverTheCiphertext) {
  const RecordProtection rp = make_protection();
  const Bytes payload = to_bytes(std::string_view("in place, padded"));
  Bytes record = rp.seal(9, ContentType::handshake, payload, /*pad_len=*/7);
  const auto opened = rp.open_in_place(9, record);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().type, ContentType::handshake);
  EXPECT_EQ(opened.value().content.data(), record.data() + kRecordHeaderSize);
  EXPECT_EQ(Bytes(opened.value().content.begin(),
                  opened.value().content.end()),
            payload);
}

TEST(Record, FailedOpenInPlaceLeavesTheRecordAsItWas) {
  // The tag is checked before the body is decrypted: a wrong sequence
  // number or a tampered byte writes nothing.
  const RecordProtection rp = make_protection();
  Bytes record = rp.seal(3, ContentType::application_data,
                         to_bytes(std::string_view("untouched")));
  const Bytes sealed = record;
  EXPECT_EQ(rp.open_in_place(4, record).code(), Errc::decrypt_failed);
  EXPECT_EQ(record, sealed);
  record[kRecordHeaderSize + 2] ^= 1;
  const Bytes tampered = record;
  EXPECT_EQ(rp.open_in_place(3, record).code(), Errc::decrypt_failed);
  EXPECT_EQ(record, tampered);
  record.pop_back();
  EXPECT_EQ(rp.open_in_place(3, record).code(), Errc::protocol_violation);
}

TEST(Record, ParseRecordLength) {
  const RecordProtection rp = make_protection();
  const Bytes payload(100, 0x5a);
  const Bytes record = rp.seal(0, ContentType::application_data, payload);
  const auto len = parse_record_length(ByteView(record).first(5));
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(len.value(), record.size() - kRecordHeaderSize);
}

TEST(Record, ParseRejectsGarbageHeader) {
  Bytes bogus = {0x00, 0x03, 0x03, 0x00, 0x10};
  EXPECT_FALSE(parse_record_length(bogus).ok());  // bad type
  bogus = {0x17, 0x02, 0x00, 0x00, 0x10};
  EXPECT_FALSE(parse_record_length(bogus).ok());  // bad version
  EXPECT_FALSE(parse_record_length(Bytes{0x17}).ok());  // truncated
}

TEST(Record, OverheadConstant) {
  const RecordProtection rp = make_protection();
  const Bytes payload(1000, 0x01);
  const Bytes record = rp.seal(0, ContentType::application_data, payload);
  EXPECT_EQ(record.size(),
            payload.size() + record_overhead(CipherSuite::aes_128_gcm_sha256));
}

TEST(Record, Aes256Suite) {
  TrafficKeys keys;
  keys.key = Bytes(32, 0x33);
  keys.iv = Bytes(12, 0x44);
  RecordProtection rp(CipherSuite::aes_256_gcm_sha256, std::move(keys));
  const Bytes payload(500, 0x77);
  const auto opened = rp.open(3, rp.seal(3, ContentType::application_data, payload));
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().payload, payload);
}

// Sweep record sizes through the maximum.
class RecordSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RecordSizeSweep, RoundTrip) {
  const RecordProtection rp = make_protection();
  const Bytes payload(GetParam(), 0xcd);
  const auto opened =
      rp.open(42, rp.seal(42, ContentType::application_data, payload));
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().payload, payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RecordSizeSweep,
                         ::testing::Values(0, 1, 15, 16, 17, 1500, 4096, 9000,
                                           16383, 16384));

}  // namespace
}  // namespace smt::tls
