#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/gcm.hpp"

namespace smt::crypto {
namespace {

// FIPS-197 Appendix C.1: AES-128.
TEST(Aes, Fips197Aes128) {
  const Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  Aes aes(key);
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex(ByteView(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

// FIPS-197 Appendix C.3: AES-256.
TEST(Aes, Fips197Aes256) {
  const Bytes key =
      from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  Aes aes(key);
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex(ByteView(ct, 16)), "8ea2b7ca516745bfeafc49904b496089");
}

TEST(Aes, KeyBitsReported) {
  EXPECT_EQ(Aes(Bytes(16, 0)).key_bits(), 128u);
  EXPECT_EQ(Aes(Bytes(32, 0)).key_bits(), 256u);
}

// McGrew-Viega GCM spec test case 1: empty plaintext, zero key/IV.
TEST(Gcm, SpecCase1EmptyPlaintext) {
  AesGcm gcm(Bytes(16, 0));
  const Bytes iv(12, 0);
  const Bytes out = gcm.seal(iv, {}, {});
  EXPECT_EQ(to_hex(out), "58e2fccefa7e3061367f1d57a4e7455a");
}

// GCM spec test case 2: one zero block.
TEST(Gcm, SpecCase2OneBlock) {
  AesGcm gcm(Bytes(16, 0));
  const Bytes iv(12, 0);
  const Bytes pt(16, 0);
  const Bytes out = gcm.seal(iv, {}, pt);
  EXPECT_EQ(to_hex(out),
            "0388dace60b6a392f328c2b971b2fe78"   // ciphertext
            "ab6e47d42cec13bdf53a67b21257bddf"); // tag
}

// GCM spec test case 3: 4-block plaintext, no AAD.
TEST(Gcm, SpecCase3FourBlocks) {
  AesGcm gcm(from_hex("feffe9928665731c6d6a8f9467308308"));
  const Bytes iv = from_hex("cafebabefacedbaddecaf888");
  const Bytes pt = from_hex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255");
  const Bytes out = gcm.seal(iv, {}, pt);
  EXPECT_EQ(to_hex(out),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
            "4d5c2af327cd64a62cf35abd2ba6fab4");
}

TEST(Gcm, OpenRecoversPlaintext) {
  AesGcm gcm(from_hex("feffe9928665731c6d6a8f9467308308"));
  const Bytes iv = from_hex("cafebabefacedbaddecaf888");
  const Bytes pt = from_hex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72");
  const Bytes sealed = gcm.seal(iv, {}, pt);
  const auto opened = gcm.open(iv, {}, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);
}

TEST(Gcm, RoundTripWithAad) {
  AesGcm gcm(Bytes(16, 0x11));
  const Bytes iv(12, 0x22);
  const Bytes aad = to_bytes(std::string_view("record header"));
  const Bytes pt = to_bytes(std::string_view("application payload"));
  const Bytes sealed = gcm.seal(iv, aad, pt);
  const auto opened = gcm.open(iv, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);
}

TEST(Gcm, TamperedCiphertextRejected) {
  AesGcm gcm(Bytes(16, 0x11));
  const Bytes iv(12, 0x22);
  const Bytes pt = to_bytes(std::string_view("payload bytes here"));
  Bytes sealed = gcm.seal(iv, {}, pt);
  sealed[3] ^= 0x01;
  EXPECT_FALSE(gcm.open(iv, {}, sealed).has_value());
}

TEST(Gcm, TamperedTagRejected) {
  AesGcm gcm(Bytes(16, 0x11));
  const Bytes iv(12, 0x22);
  const Bytes pt = to_bytes(std::string_view("payload"));
  Bytes sealed = gcm.seal(iv, {}, pt);
  sealed.back() ^= 0x80;
  EXPECT_FALSE(gcm.open(iv, {}, sealed).has_value());
}

TEST(Gcm, ModifiedAadRejected) {
  AesGcm gcm(Bytes(16, 0x11));
  const Bytes iv(12, 0x22);
  const Bytes pt = to_bytes(std::string_view("payload"));
  const Bytes sealed = gcm.seal(iv, to_bytes(std::string_view("aad-a")), pt);
  EXPECT_FALSE(
      gcm.open(iv, to_bytes(std::string_view("aad-b")), sealed).has_value());
}

TEST(Gcm, WrongNonceRejected) {
  AesGcm gcm(Bytes(16, 0x11));
  const Bytes pt = to_bytes(std::string_view("payload"));
  const Bytes sealed = gcm.seal(Bytes(12, 0x01), {}, pt);
  EXPECT_FALSE(gcm.open(Bytes(12, 0x02), {}, sealed).has_value());
}

TEST(Gcm, WrongKeyRejected) {
  AesGcm enc(Bytes(16, 0x11));
  AesGcm dec(Bytes(16, 0x12));
  const Bytes iv(12, 0);
  const Bytes sealed = enc.seal(iv, {}, to_bytes(std::string_view("secret")));
  EXPECT_FALSE(dec.open(iv, {}, sealed).has_value());
}

TEST(Gcm, TruncatedInputRejected) {
  AesGcm gcm(Bytes(16, 0));
  EXPECT_FALSE(gcm.open(Bytes(12, 0), {}, Bytes(15, 0)).has_value());
  EXPECT_FALSE(gcm.open(Bytes(12, 0), {}, Bytes{}).has_value());
}

TEST(Gcm, Aes256RoundTrip) {
  AesGcm gcm(Bytes(32, 0x77));
  const Bytes iv(12, 0x01);
  const Bytes pt(100, 0x5c);
  const auto opened = gcm.open(iv, {}, gcm.seal(iv, {}, pt));
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);
}

// Property sweep: every plaintext/AAD length combination near block
// boundaries round-trips and rejects single-bit tampering.
class GcmLengthSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GcmLengthSweep, RoundTripAndTamper) {
  const auto [pt_len, aad_len] = GetParam();
  Rng rng(std::uint64_t(pt_len) * 1000 + std::uint64_t(aad_len));
  Bytes key(16);
  for (auto& b : key) b = std::uint8_t(rng.next());
  Bytes iv(12);
  for (auto& b : iv) b = std::uint8_t(rng.next());
  Bytes pt(static_cast<std::size_t>(pt_len));
  for (auto& b : pt) b = std::uint8_t(rng.next());
  Bytes aad(static_cast<std::size_t>(aad_len));
  for (auto& b : aad) b = std::uint8_t(rng.next());

  AesGcm gcm(key);
  Bytes sealed = gcm.seal(iv, aad, pt);
  EXPECT_EQ(sealed.size(), pt.size() + AesGcm::kTagSize);
  const auto opened = gcm.open(iv, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);

  if (!sealed.empty()) {
    const std::size_t flip = rng.next_below(sealed.size());
    sealed[flip] ^= 0x40;
    EXPECT_FALSE(gcm.open(iv, aad, sealed).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Lengths, GcmLengthSweep,
    ::testing::Combine(::testing::Values(0, 1, 15, 16, 17, 31, 32, 33, 255),
                       ::testing::Values(0, 1, 16, 20)));

// The in-place seal (the NIC offload and record-layer path) must produce
// exactly seal()'s bytes — across the CTR engine's 4-block stride, its
// single-block tail and a partial final block — and open_into must invert
// it into a separate buffer.
class GcmInPlace
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(GcmInPlace, MatchesSealAndOpensInto) {
  const auto [key_len, pt_len] = GetParam();
  Rng rng(key_len * 100000 + pt_len);
  Bytes key(key_len);
  for (auto& b : key) b = std::uint8_t(rng.next());
  Bytes iv(AesGcm::kNonceSize);
  for (auto& b : iv) b = std::uint8_t(rng.next());
  Bytes pt(pt_len);
  for (auto& b : pt) b = std::uint8_t(rng.next());
  const Bytes aad = from_hex("1703030000");

  const AesGcm gcm(key);
  Bytes in_place = pt;
  in_place.resize(pt_len + AesGcm::kTagSize, 0);
  gcm.seal_in_place(iv, aad, in_place);
  EXPECT_EQ(in_place, gcm.seal(iv, aad, pt));

  Bytes opened(pt_len, 0xee);
  ASSERT_TRUE(gcm.open_into(iv, aad, in_place, opened));
  EXPECT_EQ(opened, pt);

  // A failed open writes nothing.
  in_place.back() ^= 0x01;
  Bytes untouched(pt_len, 0xee);
  EXPECT_FALSE(gcm.open_into(iv, aad, in_place, untouched));
  EXPECT_EQ(untouched, Bytes(pt_len, 0xee));
}

INSTANTIATE_TEST_SUITE_P(
    Lengths, GcmInPlace,
    ::testing::Combine(::testing::Values(std::size_t{16}, std::size_t{32}),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{15}, std::size_t{16},
                                         std::size_t{17}, std::size_t{63},
                                         std::size_t{64}, std::size_t{65},
                                         std::size_t{1000},
                                         std::size_t{16001})));

}  // namespace
}  // namespace smt::crypto
