// Allocation budget of the SMT message path. This executable replaces the
// global operator new with a counting one, so each case can assert the
// exact number of heap allocations one call makes. The counts are exact
// per build: a rise means a new temporary on the per-message path.
#include <optional>

#include <gtest/gtest.h>

#include "../common/alloc_counter.hpp"
#include "smt/wire.hpp"

namespace smt::proto {
namespace {

using test::allocations_in;

tls::TrafficKeys test_keys() {
  tls::TrafficKeys keys;
  keys.key = Bytes(16, 0x61);
  keys.iv = Bytes(12, 0x62);
  return keys;
}

class WireAllocTest : public ::testing::Test {
 protected:
  WireAllocTest()
      : protection_(tls::CipherSuite::aes_128_gcm_sha256, test_keys()) {}

  static Bytes concat(const WireMessage& wire) {
    Bytes out;
    for (const auto& seg : wire.segments) append(out, seg.payload);
    return out;
  }

  tls::RecordProtection protection_;
};

TEST_F(WireAllocTest, BuildHardware64BytesMakesThreeAllocations) {
  // The segment's payload buffer, the slab that adopts it (the form Homa
  // sends, so the endpoint no longer copies segments into a second
  // vector) and the message's segment vector. Framing headers and record
  // shells are written straight into the payload buffer, and the
  // segment's record run is a fixed-size field of the segment.
  SegmenterConfig config;
  config.hardware_crypto = true;
  const Bytes plaintext(64, 0x5a);
  std::optional<Result<WireMessage>> wire;
  EXPECT_EQ(allocations_in([&] {
              wire.emplace(
                  build_wire_message(config, protection_, 9, plaintext));
            }),
            3u);
  ASSERT_TRUE(wire->ok());
  ASSERT_EQ(wire->value().segments.size(), 1u);
  EXPECT_EQ(wire->value().segments[0].records.count, 1u);
  EXPECT_EQ(wire->value().total_wire_bytes, 64 + record_block_overhead());
}

TEST_F(WireAllocTest, BuildSoftware64BytesSealsInPlace) {
  // Software mode seals each record inside the payload buffer: no record
  // vector, no AEAD output, no nonce buffer. The buffer, its slab and the
  // segment vector are the three allocations.
  SegmenterConfig config;
  const Bytes plaintext(64, 0x5a);
  std::optional<Result<WireMessage>> wire;
  EXPECT_EQ(allocations_in([&] {
              wire.emplace(
                  build_wire_message(config, protection_, 9, plaintext));
            }),
            3u);
  ASSERT_TRUE(wire->ok());
  EXPECT_EQ(wire->value().total_wire_bytes, 64 + record_block_overhead());
}

TEST_F(WireAllocTest, OpenOneRecordMakesOneAllocation) {
  // The copy of the wire bytes only: the record decrypts in place there.
  const Bytes plaintext(64, 0x5a);
  const auto built = build_wire_message(SegmenterConfig{}, protection_, 9,
                                        plaintext);
  ASSERT_TRUE(built.ok());
  const Bytes wire = concat(built.value());
  std::optional<Result<Bytes>> opened;
  EXPECT_EQ(allocations_in([&] {
              opened.emplace(open_wire_message(SeqnoLayout{}, protection_, 9,
                                               wire));
            }),
            1u);
  ASSERT_TRUE(opened->ok());
  EXPECT_EQ(opened->value(), plaintext);
}

TEST_F(WireAllocTest, OpenManyRecordsStillMakesOneAllocation) {
  // Three records opened in one copy of the wire bytes: the count does
  // not grow with records.
  SegmenterConfig config;
  config.max_record_payload = 1000;
  Bytes plaintext(2500);
  for (std::size_t i = 0; i < plaintext.size(); ++i) {
    plaintext[i] = std::uint8_t(i * 13);
  }
  const auto built = build_wire_message(config, protection_, 4, plaintext);
  ASSERT_TRUE(built.ok());
  ASSERT_EQ(built.value().record_count, 3u);
  const Bytes wire = concat(built.value());
  std::optional<Result<Bytes>> opened;
  EXPECT_EQ(allocations_in([&] {
              opened.emplace(open_wire_message(SeqnoLayout{}, protection_, 4,
                                               wire));
            }),
            1u);
  ASSERT_TRUE(opened->ok());
  EXPECT_EQ(opened->value(), plaintext);
}

// The receive path hands over the reassembled buffer: every record opens
// where it lies and the plaintext is returned in that same buffer.

TEST_F(WireAllocTest, OpenInPlaceOneRecordMakesNoAllocation) {
  const Bytes plaintext(64, 0x5a);
  const auto built = build_wire_message(SegmenterConfig{}, protection_, 9,
                                        plaintext);
  ASSERT_TRUE(built.ok());
  Bytes wire = concat(built.value());
  const std::uint8_t* buffer = wire.data();
  std::optional<Result<Bytes>> opened;
  EXPECT_EQ(allocations_in([&] {
              opened.emplace(open_wire_message(SeqnoLayout{}, protection_, 9,
                                               std::move(wire)));
            }),
            0u);
  ASSERT_TRUE(opened->ok());
  EXPECT_EQ(opened->value(), plaintext);
  EXPECT_EQ(opened->value().data(), buffer);
}

TEST_F(WireAllocTest, OpenInPlaceThreeRecordsMakesNoAllocation) {
  SegmenterConfig config;
  config.max_record_payload = 1000;
  Bytes plaintext(2500);
  for (std::size_t i = 0; i < plaintext.size(); ++i) {
    plaintext[i] = std::uint8_t(i * 13);
  }
  const auto built = build_wire_message(config, protection_, 4, plaintext);
  ASSERT_TRUE(built.ok());
  ASSERT_EQ(built.value().record_count, 3u);
  Bytes wire = concat(built.value());
  std::optional<Result<Bytes>> opened;
  EXPECT_EQ(allocations_in([&] {
              opened.emplace(open_wire_message(SeqnoLayout{}, protection_, 4,
                                               std::move(wire)));
            }),
            0u);
  ASSERT_TRUE(opened->ok());
  EXPECT_EQ(opened->value(), plaintext);
}

}  // namespace
}  // namespace smt::proto
