#include "crypto/aes.hpp"

#include <cassert>

#include "crypto/hw_tier.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SMT_AES_NI 1
#include <immintrin.h>
#endif

namespace smt::crypto {

namespace {

#ifdef SMT_AES_NI
/// Hardware block transform. The round keys are the SAME expanded schedule
/// the portable path uses, just in FIPS byte order — both engines compute
/// the identical function, so dispatch can never change simulated bytes.
__attribute__((target("aes,sse2"))) void encrypt_block_aesni(
    const std::uint8_t* rk, int rounds, const std::uint8_t* in,
    std::uint8_t* out) noexcept {
  const __m128i* keys = reinterpret_cast<const __m128i*>(rk);
  __m128i state = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in));
  state = _mm_xor_si128(state, _mm_loadu_si128(keys));
  for (int round = 1; round < rounds; ++round) {
    state = _mm_aesenc_si128(state, _mm_loadu_si128(keys + round));
  }
  state = _mm_aesenclast_si128(state, _mm_loadu_si128(keys + rounds));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), state);
}
#endif  // SMT_AES_NI

constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

inline std::uint8_t xtime(std::uint8_t x) noexcept {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

// Encryption T-tables, built once at startup.
struct Tables {
  std::uint32_t t0[256], t1[256], t2[256], t3[256];
  Tables() noexcept {
    for (int i = 0; i < 256; ++i) {
      const std::uint8_t s = kSbox[i];
      const std::uint8_t s2 = xtime(s);
      const std::uint8_t s3 = static_cast<std::uint8_t>(s2 ^ s);
      // Column (2s, s, s, 3s) in big-endian word layout.
      t0[i] = (std::uint32_t{s2} << 24) | (std::uint32_t{s} << 16) |
              (std::uint32_t{s} << 8) | s3;
      t1[i] = (t0[i] >> 8) | (t0[i] << 24);
      t2[i] = (t0[i] >> 16) | (t0[i] << 16);
      t3[i] = (t0[i] >> 24) | (t0[i] << 8);
    }
  }
};

const Tables& tables() noexcept {
  static const Tables t;
  return t;
}

inline std::uint32_t sub_word(std::uint32_t w) noexcept {
  return (std::uint32_t{kSbox[(w >> 24) & 0xff]} << 24) |
         (std::uint32_t{kSbox[(w >> 16) & 0xff]} << 16) |
         (std::uint32_t{kSbox[(w >> 8) & 0xff]} << 8) |
         std::uint32_t{kSbox[w & 0xff]};
}

inline std::uint32_t rot_word(std::uint32_t w) noexcept {
  return (w << 8) | (w >> 24);
}

}  // namespace

Aes::Aes(ByteView key) {
  assert((key.size() == 16 || key.size() == 32) &&
         "AES key must be 128 or 256 bits");
  key_bits_ = key.size() * 8;
  const int nk = static_cast<int>(key.size() / 4);
  rounds_ = nk + 6;
  const int total_words = 4 * (rounds_ + 1);

  for (int i = 0; i < nk; ++i) round_keys_[i] = load_u32be(key.data() + 4 * i);

  std::uint32_t rcon = 0x01000000;
  for (int i = nk; i < total_words; ++i) {
    std::uint32_t temp = round_keys_[i - 1];
    if (i % nk == 0) {
      temp = sub_word(rot_word(temp)) ^ rcon;
      rcon = std::uint32_t{xtime(static_cast<std::uint8_t>(rcon >> 24))} << 24;
    } else if (nk > 6 && i % nk == 4) {
      temp = sub_word(temp);
    }
    round_keys_[i] = round_keys_[i - nk] ^ temp;
  }
  // FIPS byte order for the hardware path (and a cheap no-op otherwise).
  for (int i = 0; i < total_words; ++i) {
    store_u32be(round_key_bytes_.data() + 4 * std::size_t(i), round_keys_[i]);
  }
}

void Aes::encrypt_block(const std::uint8_t in[kBlockSize],
                        std::uint8_t out[kBlockSize]) const noexcept {
#ifdef SMT_AES_NI
  if (hw_tier() != HwTier::portable) {
    encrypt_block_aesni(round_key_bytes_.data(), rounds_, in, out);
    return;
  }
#endif
  const Tables& t = tables();
  const std::uint32_t* rk = round_keys_.data();

  std::uint32_t s0 = load_u32be(in + 0) ^ rk[0];
  std::uint32_t s1 = load_u32be(in + 4) ^ rk[1];
  std::uint32_t s2 = load_u32be(in + 8) ^ rk[2];
  std::uint32_t s3 = load_u32be(in + 12) ^ rk[3];

  rk += 4;
  for (int round = 1; round < rounds_; ++round, rk += 4) {
    const std::uint32_t u0 = t.t0[(s0 >> 24) & 0xff] ^ t.t1[(s1 >> 16) & 0xff] ^
                             t.t2[(s2 >> 8) & 0xff] ^ t.t3[s3 & 0xff] ^ rk[0];
    const std::uint32_t u1 = t.t0[(s1 >> 24) & 0xff] ^ t.t1[(s2 >> 16) & 0xff] ^
                             t.t2[(s3 >> 8) & 0xff] ^ t.t3[s0 & 0xff] ^ rk[1];
    const std::uint32_t u2 = t.t0[(s2 >> 24) & 0xff] ^ t.t1[(s3 >> 16) & 0xff] ^
                             t.t2[(s0 >> 8) & 0xff] ^ t.t3[s1 & 0xff] ^ rk[2];
    const std::uint32_t u3 = t.t0[(s3 >> 24) & 0xff] ^ t.t1[(s0 >> 16) & 0xff] ^
                             t.t2[(s1 >> 8) & 0xff] ^ t.t3[s2 & 0xff] ^ rk[3];
    s0 = u0;
    s1 = u1;
    s2 = u2;
    s3 = u3;
  }

  // Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
  const auto final_word = [](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                             std::uint32_t d) noexcept {
    return (std::uint32_t{kSbox[(a >> 24) & 0xff]} << 24) |
           (std::uint32_t{kSbox[(b >> 16) & 0xff]} << 16) |
           (std::uint32_t{kSbox[(c >> 8) & 0xff]} << 8) |
           std::uint32_t{kSbox[d & 0xff]};
  };
  const std::uint32_t o0 = final_word(s0, s1, s2, s3) ^ rk[0];
  const std::uint32_t o1 = final_word(s1, s2, s3, s0) ^ rk[1];
  const std::uint32_t o2 = final_word(s2, s3, s0, s1) ^ rk[2];
  const std::uint32_t o3 = final_word(s3, s0, s1, s2) ^ rk[3];

  store_u32be(out + 0, o0);
  store_u32be(out + 4, o1);
  store_u32be(out + 8, o2);
  store_u32be(out + 12, o3);
}

}  // namespace smt::crypto
