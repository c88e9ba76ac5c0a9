#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/gcm.hpp"
#include "crypto/sha256.hpp"

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

// Every flow context holds an AesGcm, and bench/suite's ktls_stream keeps
// about a thousand alive: a prototype that stored H^1..H^32 (512 B instead
// of 256 B of GHASH key) raised its heap peak from 3.116 to 3.360 MiB
// (+7.8%). A new engine's key material has to fit in ghash_key_.
static_assert(sizeof(AesGcm) <= 752,
              "AesGcm grew: every flow context pays for it");

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

// Deterministic test bytes: a 32-bit xorshift stream, so the known
// answers below depend on nothing but this function.
Bytes pattern(std::size_t n, std::uint32_t seed) {
  Bytes out(n);
  std::uint32_t x = 0x9e3779b9u ^ seed;
  for (auto& b : out) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = std::uint8_t(x >> 24);
  }
  return out;
}

struct GcmKnownAnswer {
  std::size_t pt_len;
  std::size_t aad_len;
  const char* tag;
  const char* ct_sha256;
};

// Seals of pattern(pt_len, pt_len) under AAD pattern(aad_len, aad_len << 16),
// key pattern(16, 1) and nonce pattern(12, 2), computed with the portable
// engine and confirmed against OpenSSL. The NIST vectors stop at 64 B;
// these reach the aesni engine's 8-block strides, its 4-block and
// single-block CTR tails, its batched GHASH remainders and partial final
// blocks, and (200 B of AAD) the AAD's own 8-block stride; and the wide
// engine's 512 B strides: one stride less a byte (all aesni), one, one
// plus a byte, two, two with a 17 B tail, and 16001 B, a full TLS record
// of 16000 B payload plus its content-type byte. A seal/open round trip
// cannot catch a bug that seal and open share, such as a wrong H-power
// order; a fixed answer can.
constexpr GcmKnownAnswer kLongKnownAnswers[] = {
    {127, 0, "59adaaa1156e186ec9b2fffa078435e3",
     "90043438c338adb9fc145b2e0e04a2e7d95541cb1f1d3a25adc7e12e19c5946c"},
    {127, 5, "bbd0bd7927f5afb92fc42958e2345305",
     "90043438c338adb9fc145b2e0e04a2e7d95541cb1f1d3a25adc7e12e19c5946c"},
    {127, 13, "5db2bb832040bc2e3c296da6ad8f1c06",
     "90043438c338adb9fc145b2e0e04a2e7d95541cb1f1d3a25adc7e12e19c5946c"},
    {127, 200, "55c9d732034f44a201c304bd3e89b5db",
     "90043438c338adb9fc145b2e0e04a2e7d95541cb1f1d3a25adc7e12e19c5946c"},
    {128, 0, "5b9413a9127220ea1da1338bec5232e5",
     "64c58462663eace5e2bf3a089e7800e8e3934352865f3d795eae4ee31ec979c3"},
    {128, 5, "b9e9047120e9973dfbd7e52909e25403",
     "64c58462663eace5e2bf3a089e7800e8e3934352865f3d795eae4ee31ec979c3"},
    {128, 13, "5f8b028b275c84aae83aa1d746591b00",
     "64c58462663eace5e2bf3a089e7800e8e3934352865f3d795eae4ee31ec979c3"},
    {128, 200, "57f06e3a04537c26d5d0c8ccd55fb2dd",
     "64c58462663eace5e2bf3a089e7800e8e3934352865f3d795eae4ee31ec979c3"},
    {129, 0, "d5ec578a8c9dce7aa6dea463a738a3f4",
     "56ce7a049977e1254891642c6f12843d9d63ae94ae46126f32d95ffbb9c2e9b2"},
    {129, 5, "94e3c3ed3d696511188c7e2e34f003ee",
     "56ce7a049977e1254891642c6f12843d9d63ae94ae46126f32d95ffbb9c2e9b2"},
    {129, 13, "5b4f593e5758fac8883fdefd9acc537c",
     "56ce7a049977e1254891642c6f12843d9d63ae94ae46126f32d95ffbb9c2e9b2"},
    {129, 200, "99f7f4fcca581c8b2588d6c34ac1c3cc",
     "56ce7a049977e1254891642c6f12843d9d63ae94ae46126f32d95ffbb9c2e9b2"},
    {143, 0, "d0a71e852e1aa9a5fb94570f0a2f0557",
     "4b75506e35272a553930b7f22fb1429811283a71f75b2c06878971e482a36329"},
    {143, 5, "91a88ae29fee02ce45c68d4299e7a54d",
     "4b75506e35272a553930b7f22fb1429811283a71f75b2c06878971e482a36329"},
    {143, 13, "5e041031f5df9d17d5752d9137dbf5df",
     "4b75506e35272a553930b7f22fb1429811283a71f75b2c06878971e482a36329"},
    {143, 200, "9cbcbdf368df7b5478c225afe7d6656f",
     "4b75506e35272a553930b7f22fb1429811283a71f75b2c06878971e482a36329"},
    {255, 0, "96325a3fc54e2efa4959c67d6234a162",
     "2ae78c9007df8f372ef600a0652d65e22d2c5e6d85dd46bb353eff1665335bdb"},
    {255, 5, "17bebe5e0e73b369f4d7007e3a0829cb",
     "2ae78c9007df8f372ef600a0652d65e22d2c5e6d85dd46bb353eff1665335bdb"},
    {255, 13, "e212dbb4b673c19cd9de69e8ec20505c",
     "2ae78c9007df8f372ef600a0652d65e22d2c5e6d85dd46bb353eff1665335bdb"},
    {255, 200, "b9bfdd6da9432e7a5823075d375f4a81",
     "2ae78c9007df8f372ef600a0652d65e22d2c5e6d85dd46bb353eff1665335bdb"},
    {256, 0, "8dcad9200b5b9db03b42feec12c45420",
     "78dc19314bab6733a1c741adc8f5cfb1d2dfe800d62c7c3d00adb35d5f91e3fe"},
    {256, 5, "0c463d41c066002386cc38ef4af8dc89",
     "78dc19314bab6733a1c741adc8f5cfb1d2dfe800d62c7c3d00adb35d5f91e3fe"},
    {256, 13, "f9ea58ab786672d6abc551799cd0a51e",
     "78dc19314bab6733a1c741adc8f5cfb1d2dfe800d62c7c3d00adb35d5f91e3fe"},
    {256, 200, "a2475e7267569d302a383fcc47afbfc3",
     "78dc19314bab6733a1c741adc8f5cfb1d2dfe800d62c7c3d00adb35d5f91e3fe"},
    {511, 0, "7b5e8a0eaf517137116ae4a2a904201e",
     "0cc961887621ca6eefce08245581652956f622d17273e3031cdca363c51a24d6"},
    {511, 5, "a3ea98967997e5c51e7a15a3d0543842",
     "0cc961887621ca6eefce08245581652956f622d17273e3031cdca363c51a24d6"},
    {511, 13, "f453aa17ea9b62db3f0ba581f1ca840a",
     "0cc961887621ca6eefce08245581652956f622d17273e3031cdca363c51a24d6"},
    {511, 200, "6b2f00bcaa94764fc73cefe7bf3d161f",
     "0cc961887621ca6eefce08245581652956f622d17273e3031cdca363c51a24d6"},
    {512, 0, "f532529fb00f6390dc742a3b4682fdc9",
     "7e06fbf5ec862f2d4614e4fc4ba980b62133db171ccefa31d4e56173d8fe7a96"},
    {512, 5, "2d86400766c9f762d364db3a3fd2e595",
     "7e06fbf5ec862f2d4614e4fc4ba980b62133db171ccefa31d4e56173d8fe7a96"},
    {512, 13, "7a3f7286f5c5707cf2156b181e4c59dd",
     "7e06fbf5ec862f2d4614e4fc4ba980b62133db171ccefa31d4e56173d8fe7a96"},
    {512, 200, "e543d82db5ca64e80a22217e50bbcbc8",
     "7e06fbf5ec862f2d4614e4fc4ba980b62133db171ccefa31d4e56173d8fe7a96"},
    {513, 0, "de68adbf18dd4d1a4740f7a08b7809e2",
     "bd204be6b14a4654fa234922bed1fabe93b5bec1dce77f32340edb590a744d9d"},
    {513, 5, "9eebf432d06e600ffdd6d66420229994",
     "bd204be6b14a4654fa234922bed1fabe93b5bec1dce77f32340edb590a744d9d"},
    {513, 13, "e070f15cf86a6f0fc4f4dddaf7ec44c2",
     "bd204be6b14a4654fa234922bed1fabe93b5bec1dce77f32340edb590a744d9d"},
    {513, 200, "70137369553546477e0304de581b578b",
     "bd204be6b14a4654fa234922bed1fabe93b5bec1dce77f32340edb590a744d9d"},
    {1024, 0, "18d04d48a3af9926d3ee6e645261b161",
     "45db872cefebf1ed0c1a53206e9b0ee2487d6a941a2836d0074d54936ee4c394"},
    {1024, 5, "e8ced323bf5fb81f9037607097b4c6c1",
     "45db872cefebf1ed0c1a53206e9b0ee2487d6a941a2836d0074d54936ee4c394"},
    {1024, 13, "70f938bf5a0016cfb369aae8925c6b7f",
     "45db872cefebf1ed0c1a53206e9b0ee2487d6a941a2836d0074d54936ee4c394"},
    {1024, 200, "c190eaaaf0c89b361a4ba679256c1e74",
     "45db872cefebf1ed0c1a53206e9b0ee2487d6a941a2836d0074d54936ee4c394"},
    {1029, 0, "af79218fb4acbf75fd6fd57ca2329988",
     "cf99e1dcce5352ed9a8cb332567060ba4d53927abdd59d4ad6bb9608ec221d85"},
    {1029, 5, "34b0f95868d4cf3042503d66a5934839",
     "cf99e1dcce5352ed9a8cb332567060ba4d53927abdd59d4ad6bb9608ec221d85"},
    {1029, 13, "f3c46eaed9d59c2cb786398aa9f77a95",
     "cf99e1dcce5352ed9a8cb332567060ba4d53927abdd59d4ad6bb9608ec221d85"},
    {1029, 200, "ff6ab2258e89998eb4040fdc5b3b3a09",
     "cf99e1dcce5352ed9a8cb332567060ba4d53927abdd59d4ad6bb9608ec221d85"},
    {1041, 0, "9f99b3da98caf944803deb515f386dc2",
     "671e6ace398e514dd1f49d3818a04899c47dc3ae5c26ce87995618a7dd434e74"},
    {1041, 5, "9256107227a22b19525fd8748670873a",
     "671e6ace398e514dd1f49d3818a04899c47dc3ae5c26ce87995618a7dd434e74"},
    {1041, 13, "0beaf3a436fe5483afbf237954c9a0bd",
     "671e6ace398e514dd1f49d3818a04899c47dc3ae5c26ce87995618a7dd434e74"},
    {1041, 200, "2d31a7ed6344798c83cf37fb42c996de",
     "671e6ace398e514dd1f49d3818a04899c47dc3ae5c26ce87995618a7dd434e74"},
    {16001, 0, "97a75146b79efabe02851b6746dd4d19",
     "82fe7ace6f182c1584d6d27338cce2ba581b1385f931de01b5a31882dad3811b"},
    {16001, 5, "199077aee4301abcef54ba7a411b9ac5",
     "82fe7ace6f182c1584d6d27338cce2ba581b1385f931de01b5a31882dad3811b"},
    {16001, 13, "4ef554ff80600791f2dd2a1ce33008f2",
     "82fe7ace6f182c1584d6d27338cce2ba581b1385f931de01b5a31882dad3811b"},
    {16001, 200, "2968ddc48769e2055b0983cdf09adcc5",
     "82fe7ace6f182c1584d6d27338cce2ba581b1385f931de01b5a31882dad3811b"},
    {16385, 0, "56056b9dfcefe778e9846781e1a79ced",
     "5123216cca520036d5fbdf4755b16cef65d2333045eda2b141d302480db062c6"},
    {16385, 5, "be2170dbf19734fad858c841a421545c",
     "5123216cca520036d5fbdf4755b16cef65d2333045eda2b141d302480db062c6"},
    {16385, 13, "36549c95d926aa8a9423e2f04d979f17",
     "5123216cca520036d5fbdf4755b16cef65d2333045eda2b141d302480db062c6"},
    {16385, 200, "3e28985a0188ddc04893faa084ce8b32",
     "5123216cca520036d5fbdf4755b16cef65d2333045eda2b141d302480db062c6"},
    {16401, 0, "242da21d2bb403a5f3b407f2e5c99bbb",
     "43fd95a27c49baf8ec5b957565d9a1b4ac9ba0c329d9899cfd5901725f5c6a0a"},
    {16401, 5, "da74a12ef719745291fb09eac80ae8cf",
     "43fd95a27c49baf8ec5b957565d9a1b4ac9ba0c329d9899cfd5901725f5c6a0a"},
    {16401, 13, "385a3bf4025b3c3bfeff4346adbb1c38",
     "43fd95a27c49baf8ec5b957565d9a1b4ac9ba0c329d9899cfd5901725f5c6a0a"},
    {16401, 200, "e44e0f018a8003841b5a9551d20ae607",
     "43fd95a27c49baf8ec5b957565d9a1b4ac9ba0c329d9899cfd5901725f5c6a0a"},
};

TEST(Gcm, KnownAnswersPastNistLengths) {
  const AesGcm gcm(pattern(16, 1));
  const Bytes nonce = pattern(12, 2);
  for (const GcmKnownAnswer& answer : kLongKnownAnswers) {
    SCOPED_TRACE(::testing::Message() << "pt " << answer.pt_len << " aad "
                                      << answer.aad_len);
    const Bytes pt = pattern(answer.pt_len, std::uint32_t(answer.pt_len));
    const Bytes aad =
        pattern(answer.aad_len, std::uint32_t(answer.aad_len) << 16);
    const Bytes sealed = gcm.seal(nonce, aad, pt);
    ASSERT_EQ(sealed.size(), pt.size() + AesGcm::kTagSize);
    const ByteView ct(sealed.data(), pt.size());
    const auto digest = Sha256::digest(ct);
    EXPECT_EQ(to_hex(ByteView(digest.data(), digest.size())),
              answer.ct_sha256);
    EXPECT_EQ(to_hex(ByteView(sealed).subspan(pt.size())), answer.tag);
    const auto opened = gcm.open(nonce, aad, sealed);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(*opened, pt);
  }
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
    ::testing::Combine(::testing::Values(0, 1, 15, 16, 17, 31, 32, 33, 127,
                                         128, 129, 143, 255, 256),
                       ::testing::Values(0, 1, 16, 20, 128, 200)));

// The in-place seal (the NIC offload and record-layer path) must produce
// exactly seal()'s bytes — across the aesni CTR's 8-block stride, its
// 4-block step, its single-block tail and a partial final block, and the
// wide engine's 512 B stride edges — and open_into must invert it into a
// separate buffer, writing nothing when the tag fails.
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

// An output buffer of any length but the ciphertext's is refused in every
// build type, before anything is written: a shorter one would otherwise
// take ciphertext-length bytes.
TEST(Gcm, OpenIntoRejectsMismatchedOutputLength) {
  const AesGcm gcm(Bytes(16, 0x11));
  const Bytes iv(AesGcm::kNonceSize, 0x22);
  const Bytes aad = from_hex("1703030000");
  const Bytes sealed = gcm.seal(iv, aad, Bytes(100, 0x5a));

  Bytes backing(120, 0xee);
  const MutByteView out(backing);
  for (const std::size_t len : {std::size_t{0}, std::size_t{99},
                                std::size_t{101}, std::size_t{120}}) {
    SCOPED_TRACE(len);
    EXPECT_FALSE(gcm.open_into(iv, aad, sealed, out.first(len)));
    EXPECT_EQ(backing, Bytes(120, 0xee));
  }
  EXPECT_TRUE(gcm.open_into(iv, aad, sealed, out.first(100)));
  EXPECT_EQ(Bytes(backing.begin(), backing.begin() + 100), Bytes(100, 0x5a));
  EXPECT_EQ(Bytes(backing.begin() + 100, backing.end()), Bytes(20, 0xee));
}

INSTANTIATE_TEST_SUITE_P(
    Lengths, GcmInPlace,
    ::testing::Combine(::testing::Values(std::size_t{16}, std::size_t{32}),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{15}, std::size_t{16},
                                         std::size_t{17}, std::size_t{63},
                                         std::size_t{64}, std::size_t{65},
                                         std::size_t{127}, std::size_t{128},
                                         std::size_t{129}, std::size_t{143},
                                         std::size_t{191}, std::size_t{192},
                                         std::size_t{255}, std::size_t{256},
                                         std::size_t{511}, std::size_t{512},
                                         std::size_t{513}, std::size_t{1000},
                                         std::size_t{1024},
                                         std::size_t{16001},
                                         std::size_t{16385})));

}  // namespace
}  // namespace smt::crypto
