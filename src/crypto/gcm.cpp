#include "crypto/gcm.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SMT_GHASH_CLMUL 1
#include <immintrin.h>
#endif

namespace smt::crypto {

namespace {

#ifdef SMT_GHASH_CLMUL
/// Runtime CPU dispatch, resolved once.
bool cpu_has_clmul() noexcept {
  // One predicate for every GCM fast path (GHASH's pclmul+ssse3 and the
  // pipelined CTR's aes): the extensions ship together on real CPUs, and a
  // single flag keeps the dispatch branches trivially predictable.
  // SMT_DISABLE_HW_CRYPTO forces the portable engines — CI registers a
  // second crypto test run with it set, so the fallback path keeps full
  // NIST-vector coverage on hosts whose CPUs would never take it.
  // getenv is safe here: resolved once under the static-init guard, and
  // nothing in this process calls setenv.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  static const bool disabled = std::getenv("SMT_DISABLE_HW_CRYPTO") != nullptr;
  static const bool supported = __builtin_cpu_supports("pclmul") &&
                                __builtin_cpu_supports("ssse3") &&
                                __builtin_cpu_supports("aes") && !disabled;
  return supported;
}

/// GF(2^128) multiply with the GCM polynomial via carry-less multiply —
/// the Intel GCM white-paper algorithm (Karatsuba-free 4-multiply form
/// with the shift-left-by-1 bit-reflection fixup and sparse reduction).
/// Operands and result are byte-reflected (big-endian-loaded) blocks.
__attribute__((target("pclmul,ssse3"))) inline __m128i gf_mul_clmul(
    __m128i a, __m128i b) noexcept {
  __m128i lo = _mm_clmulepi64_si128(a, b, 0x00);
  __m128i m1 = _mm_clmulepi64_si128(a, b, 0x10);
  __m128i m2 = _mm_clmulepi64_si128(a, b, 0x01);
  __m128i hi = _mm_clmulepi64_si128(a, b, 0x11);
  m1 = _mm_xor_si128(m1, m2);
  lo = _mm_xor_si128(lo, _mm_slli_si128(m1, 8));
  hi = _mm_xor_si128(hi, _mm_srli_si128(m1, 8));

  // The operands are bit-reflected, so the 255-bit product sits one bit
  // low: shift the whole 256-bit value left by 1.
  __m128i carry_lo = _mm_srli_epi32(lo, 31);
  __m128i carry_hi = _mm_srli_epi32(hi, 31);
  lo = _mm_slli_epi32(lo, 1);
  hi = _mm_slli_epi32(hi, 1);
  __m128i cross = _mm_srli_si128(carry_lo, 12);
  carry_hi = _mm_slli_si128(carry_hi, 4);
  carry_lo = _mm_slli_si128(carry_lo, 4);
  lo = _mm_or_si128(lo, carry_lo);
  hi = _mm_or_si128(hi, carry_hi);
  hi = _mm_or_si128(hi, cross);

  // Reduce modulo x^128 + x^7 + x^2 + x + 1 (reflected form).
  __m128i r1 = _mm_slli_epi32(lo, 31);
  __m128i r2 = _mm_slli_epi32(lo, 30);
  __m128i r3 = _mm_slli_epi32(lo, 25);
  r1 = _mm_xor_si128(r1, r2);
  r1 = _mm_xor_si128(r1, r3);
  __m128i r4 = _mm_srli_si128(r1, 4);
  r1 = _mm_slli_si128(r1, 12);
  lo = _mm_xor_si128(lo, r1);
  __m128i s1 = _mm_srli_epi32(lo, 1);
  __m128i s2 = _mm_srli_epi32(lo, 2);
  __m128i s3 = _mm_srli_epi32(lo, 7);
  s1 = _mm_xor_si128(s1, s2);
  s1 = _mm_xor_si128(s1, s3);
  s1 = _mm_xor_si128(s1, r4);
  lo = _mm_xor_si128(lo, s1);
  return _mm_xor_si128(hi, lo);
}

/// Precomputes H^1..H^4 (reflected form) for the 4-way aggregated GHASH.
__attribute__((target("pclmul,ssse3"))) void ghash_init_clmul(
    const std::uint8_t* h_bytes, std::uint8_t out_pows[64]) noexcept {
  const __m128i bswap = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                     12, 13, 14, 15);
  const __m128i h = _mm_shuffle_epi8(
      _mm_load_si128(reinterpret_cast<const __m128i*>(h_bytes)), bswap);
  __m128i pow = h;
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out_pows), pow);
  for (int i = 1; i < 4; ++i) {
    pow = gf_mul_clmul(pow, h);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out_pows + 16 * i), pow);
  }
}

/// GHASH over aad || ciphertext || length block, PCLMUL engine. Four
/// blocks at a time: y4 = (y^x1)·H^4 ^ x2·H^3 ^ x3·H^2 ^ x4·H — the four
/// products are independent, so the multiplies pipeline instead of
/// serialising on the y dependency.
/// One data run folded into the GHASH accumulator `y`. A named function
/// rather than a lambda: GCC 12 lambdas do not inherit the enclosing
/// function's target attribute, so intrinsics inside them fail to inline.
__attribute__((target("pclmul,ssse3"))) __m128i ghash_absorb_clmul(
    __m128i y, const __m128i* h_pows, ByteView data) noexcept {
  const __m128i bswap = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                     12, 13, 14, 15);
  const __m128i h1 = _mm_loadu_si128(h_pows);
  std::size_t off = 0;
  // 4-block aggregated stride (only whole blocks qualify).
  while (data.size() - off >= 64) {
    const std::uint8_t* p = data.data() + off;
    const __m128i x1 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), bswap);
    const __m128i x2 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16)), bswap);
    const __m128i x3 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32)), bswap);
    const __m128i x4 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 48)), bswap);
    const __m128i t1 =
        gf_mul_clmul(_mm_xor_si128(y, x1), _mm_loadu_si128(h_pows + 3));
    const __m128i t2 = gf_mul_clmul(x2, _mm_loadu_si128(h_pows + 2));
    const __m128i t3 = gf_mul_clmul(x3, _mm_loadu_si128(h_pows + 1));
    const __m128i t4 = gf_mul_clmul(x4, h1);
    y = _mm_xor_si128(_mm_xor_si128(t1, t2), _mm_xor_si128(t3, t4));
    off += 64;
  }
  while (off < data.size()) {
    const std::size_t take = std::min<std::size_t>(16, data.size() - off);
    __m128i x;
    if (take == 16) {
      x = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(data.data() + off));
    } else {
      alignas(16) std::uint8_t block[16] = {};
      std::memcpy(block, data.data() + off, take);
      x = _mm_load_si128(reinterpret_cast<const __m128i*>(block));
    }
    y = _mm_xor_si128(y, _mm_shuffle_epi8(x, bswap));
    y = gf_mul_clmul(y, h1);
    off += take;
  }
  return y;
}

__attribute__((target("pclmul,ssse3"))) void ghash_clmul(
    const std::uint8_t* h_pows_bytes, ByteView aad, ByteView ciphertext,
    std::uint8_t out[16]) noexcept {
  const __m128i bswap = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                     12, 13, 14, 15);
  const __m128i* h_pows = reinterpret_cast<const __m128i*>(h_pows_bytes);
  __m128i y = _mm_setzero_si128();
  y = ghash_absorb_clmul(y, h_pows, aad);
  y = ghash_absorb_clmul(y, h_pows, ciphertext);

  const __m128i lengths = _mm_set_epi64x(
      std::int64_t(std::uint64_t(aad.size()) * 8),
      std::int64_t(std::uint64_t(ciphertext.size()) * 8));
  y = _mm_xor_si128(y, lengths);
  y = gf_mul_clmul(y, _mm_loadu_si128(h_pows));

  _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                   _mm_shuffle_epi8(y, bswap));
}

/// AES-CTR keystream XOR, 4 blocks per iteration: AESENC has multi-cycle
/// latency but single-cycle throughput, so four independent counter
/// blocks keep the unit busy where the one-block-at-a-time loop stalled.
__attribute__((target("aes,ssse3"))) void ctr_xor_aesni(
    const std::uint8_t* rk, int rounds, const std::uint8_t j0[16],
    ByteView in, std::uint8_t* out) noexcept {
  const __m128i* keys = reinterpret_cast<const __m128i*>(rk);
  // The 96-bit nonce prefix is fixed; only the trailing 32-bit counter
  // changes. Build counter blocks by ORing the big-endian counter into
  // the masked template (no lambda: see ghash_absorb_clmul's note).
  alignas(16) std::uint8_t counter_bytes[16];
  std::memcpy(counter_bytes, j0, 16);
  std::uint32_t ctr = load_u32be(counter_bytes + 12);
  std::memset(counter_bytes + 12, 0, 4);
  const __m128i prefix =
      _mm_load_si128(reinterpret_cast<const __m128i*>(counter_bytes));
  const __m128i bswap32 = _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6,
                                       7, 0, 1, 2, 3);
#define SMT_CTR_BLOCK(c)                                                   \
  _mm_or_si128(prefix,                                                     \
               _mm_shuffle_epi8(_mm_set_epi32(int(c), 0, 0, 0), bswap32))

  const __m128i k0 = _mm_loadu_si128(keys);
  std::size_t off = 0;
  while (in.size() - off >= 64) {
    __m128i s0 = _mm_xor_si128(SMT_CTR_BLOCK(ctr + 1), k0);
    __m128i s1 = _mm_xor_si128(SMT_CTR_BLOCK(ctr + 2), k0);
    __m128i s2 = _mm_xor_si128(SMT_CTR_BLOCK(ctr + 3), k0);
    __m128i s3 = _mm_xor_si128(SMT_CTR_BLOCK(ctr + 4), k0);
    ctr += 4;
    for (int round = 1; round < rounds; ++round) {
      const __m128i rk_r = _mm_loadu_si128(keys + round);
      s0 = _mm_aesenc_si128(s0, rk_r);
      s1 = _mm_aesenc_si128(s1, rk_r);
      s2 = _mm_aesenc_si128(s2, rk_r);
      s3 = _mm_aesenc_si128(s3, rk_r);
    }
    const __m128i rk_last = _mm_loadu_si128(keys + rounds);
    s0 = _mm_aesenclast_si128(s0, rk_last);
    s1 = _mm_aesenclast_si128(s1, rk_last);
    s2 = _mm_aesenclast_si128(s2, rk_last);
    s3 = _mm_aesenclast_si128(s3, rk_last);
    const std::uint8_t* src = in.data() + off;
    std::uint8_t* dst = out + off;
    const auto ld = [](const std::uint8_t* p) noexcept {
      return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    };
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                     _mm_xor_si128(ld(src), s0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 16),
                     _mm_xor_si128(ld(src + 16), s1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 32),
                     _mm_xor_si128(ld(src + 32), s2));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 48),
                     _mm_xor_si128(ld(src + 48), s3));
    off += 64;
  }
  while (off < in.size()) {
    ++ctr;
    __m128i s = _mm_xor_si128(SMT_CTR_BLOCK(ctr), k0);
    for (int round = 1; round < rounds; ++round) {
      s = _mm_aesenc_si128(s, _mm_loadu_si128(keys + round));
    }
    s = _mm_aesenclast_si128(s, _mm_loadu_si128(keys + rounds));
    alignas(16) std::uint8_t keystream[16];
    _mm_store_si128(reinterpret_cast<__m128i*>(keystream), s);
    const std::size_t take = std::min<std::size_t>(16, in.size() - off);
    for (std::size_t i = 0; i < take; ++i) {
      out[off + i] = in[off + i] ^ keystream[i];
    }
    off += take;
  }
#undef SMT_CTR_BLOCK
}
#endif  // SMT_GHASH_CLMUL

struct U128 {
  std::uint64_t hi = 0, lo = 0;
};

// Multiply X by H in GF(2^128) with the GCM reduction polynomial,
// bit-by-bit (used only to build the 4-bit table at key setup).
U128 gf_mul_slow(U128 x, U128 h) noexcept {
  U128 z{};
  for (int i = 0; i < 128; ++i) {
    const std::uint64_t bit =
        (i < 64) ? (x.hi >> (63 - i)) & 1 : (x.lo >> (127 - i)) & 1;
    if (bit) {
      z.hi ^= h.hi;
      z.lo ^= h.lo;
    }
    // h >>= 1 with conditional reduction by R = 0xe1 << 120.
    const std::uint64_t carry = h.lo & 1;
    h.lo = (h.lo >> 1) | (h.hi << 63);
    h.hi >>= 1;
    if (carry) h.hi ^= 0xe100000000000000ULL;
  }
  return z;
}

// Reduction constants for the 4-bit table method: R(x) multiples for the
// 4 bits shifted out of the low end.
constexpr std::uint64_t kReduce4[16] = {
    0x0000000000000000ULL, 0x1c20000000000000ULL, 0x3840000000000000ULL,
    0x2460000000000000ULL, 0x7080000000000000ULL, 0x6ca0000000000000ULL,
    0x48c0000000000000ULL, 0x54e0000000000000ULL, 0xe100000000000000ULL,
    0xfd20000000000000ULL, 0xd940000000000000ULL, 0xc560000000000000ULL,
    0x9180000000000000ULL, 0x8da0000000000000ULL, 0xa9c0000000000000ULL,
    0xb5e0000000000000ULL};

}  // namespace

AesGcm::AesGcm(ByteView key) : aes_(key) {
  std::uint8_t zero[16] = {};
  aes_.encrypt_block(zero, h_bytes_.data());
#ifdef SMT_GHASH_CLMUL
  // The carry-less-multiply engine consumes H (and its powers) directly;
  // skip the table build (16 slow 128-iteration GF multiplies) entirely.
  if (cpu_has_clmul()) {
    ghash_init_clmul(h_bytes_.data(), h_pows_.data());
    return;
  }
#endif
  const U128 h{load_u64be(h_bytes_.data()), load_u64be(h_bytes_.data() + 8)};

  // h_table_[i] = (i as 4-bit poly) * H. Built with the slow multiply.
  for (int i = 0; i < 16; ++i) {
    U128 x{};
    // Place nibble i in the top 4 bits of the 128-bit value.
    x.hi = std::uint64_t(i) << 60;
    const U128 prod = gf_mul_slow(x, h);
    h_table_[i][0] = prod.hi;
    h_table_[i][1] = prod.lo;
  }
}

AesGcm::Block AesGcm::ghash(ByteView aad, ByteView ciphertext) const noexcept {
#ifdef SMT_GHASH_CLMUL
  if (cpu_has_clmul()) {
    Block out;
    ghash_clmul(h_pows_.data(), aad, ciphertext, out.data());
    return out;
  }
#endif
  U128 y{};

  const auto mul_h = [this](U128 y_in) noexcept {
    // Process 32 nibbles from least significant to most significant,
    // Shoup's 4-bit table method.
    U128 z{};
    for (int i = 0; i < 32; ++i) {
      const int nibble =
          (i < 16) ? int((y_in.lo >> (4 * i)) & 0xf)
                   : int((y_in.hi >> (4 * (i - 16))) & 0xf);
      if (i != 0) {
        // z >>= 4 with reduction.
        const int rem = int(z.lo & 0xf);
        z.lo = (z.lo >> 4) | (z.hi << 60);
        z.hi = (z.hi >> 4) ^ kReduce4[rem];
      }
      z.hi ^= h_table_[nibble][0];
      z.lo ^= h_table_[nibble][1];
    }
    return z;
  };

  const auto absorb = [&](ByteView data) noexcept {
    std::size_t off = 0;
    while (off < data.size()) {
      std::uint8_t block[16] = {};
      const std::size_t take = std::min<std::size_t>(16, data.size() - off);
      std::memcpy(block, data.data() + off, take);
      y.hi ^= load_u64be(block);
      y.lo ^= load_u64be(block + 8);
      y = mul_h(y);
      off += take;
    }
  };

  absorb(aad);
  absorb(ciphertext);

  // Length block: 64-bit AAD bit length, then 64-bit ciphertext bit length.
  y.hi ^= std::uint64_t(aad.size()) * 8;
  y.lo ^= std::uint64_t(ciphertext.size()) * 8;
  y = mul_h(y);

  Block out;
  store_u64be(out.data(), y.hi);
  store_u64be(out.data() + 8, y.lo);
  return out;
}

void AesGcm::ctr_xor(const Block& j0, ByteView in,
                     std::uint8_t* out) const noexcept {
#ifdef SMT_GHASH_CLMUL
  if (cpu_has_clmul()) {
    ctr_xor_aesni(aes_.round_key_bytes(), aes_.rounds(), j0.data(), in, out);
    return;
  }
#endif
  Block counter = j0;
  std::uint32_t ctr = load_u32be(counter.data() + 12);
  std::size_t off = 0;
  while (off < in.size()) {
    ++ctr;
    store_u32be(counter.data() + 12, ctr);
    std::uint8_t keystream[16];
    aes_.encrypt_block(counter.data(), keystream);
    const std::size_t take = std::min<std::size_t>(16, in.size() - off);
    for (std::size_t i = 0; i < take; ++i)
      out[off + i] = in[off + i] ^ keystream[i];
    off += take;
  }
}

AesGcm::Block AesGcm::compute_tag(const Block& j0, ByteView aad,
                                  ByteView ciphertext) const noexcept {
  const Block s = ghash(aad, ciphertext);
  std::uint8_t ek_j0[16];
  aes_.encrypt_block(j0.data(), ek_j0);
  Block tag;
  for (int i = 0; i < 16; ++i) tag[i] = s[i] ^ ek_j0[i];
  return tag;
}

AesGcm::Block AesGcm::initial_counter(ByteView nonce) noexcept {
  assert(nonce.size() == kNonceSize && "only 96-bit nonces are supported");
  Block j0{};
  std::memcpy(j0.data(), nonce.data(), kNonceSize);
  j0[15] = 1;
  return j0;
}

void AesGcm::seal_in_place(ByteView nonce, ByteView aad,
                           MutByteView plaintext_and_tag) const noexcept {
  assert(plaintext_and_tag.size() >= kTagSize && "no room for the tag");
  const std::size_t pt_len = plaintext_and_tag.size() - kTagSize;
  const Block j0 = initial_counter(nonce);
  // CTR is position-wise, so the keystream XOR may write over its input.
  ctr_xor(j0, plaintext_and_tag.first(pt_len), plaintext_and_tag.data());
  const Block tag = compute_tag(j0, aad, plaintext_and_tag.first(pt_len));
  std::memcpy(plaintext_and_tag.data() + pt_len, tag.data(), kTagSize);
}

Bytes AesGcm::seal(ByteView nonce, ByteView aad, ByteView plaintext) const {
  Bytes out(plaintext.size() + kTagSize);
  std::copy(plaintext.begin(), plaintext.end(), out.begin());
  seal_in_place(nonce, aad, out);
  return out;
}

bool AesGcm::open_into(ByteView nonce, ByteView aad,
                       ByteView ciphertext_and_tag,
                       MutByteView plaintext) const noexcept {
  if (ciphertext_and_tag.size() < kTagSize) return false;
  const std::size_t ct_len = ciphertext_and_tag.size() - kTagSize;
  assert(plaintext.size() == ct_len && "output must match the ciphertext");
  const ByteView ciphertext = ciphertext_and_tag.first(ct_len);
  const ByteView tag = ciphertext_and_tag.subspan(ct_len);

  const Block j0 = initial_counter(nonce);
  const Block expected = compute_tag(j0, aad, ciphertext);
  if (!ct_equal(ByteView(expected.data(), expected.size()), tag)) return false;

  ctr_xor(j0, ciphertext, plaintext.data());
  return true;
}

std::optional<Bytes> AesGcm::open(ByteView nonce, ByteView aad,
                                  ByteView ciphertext_and_tag) const {
  if (ciphertext_and_tag.size() < kTagSize) return std::nullopt;
  Bytes plaintext(ciphertext_and_tag.size() - kTagSize);
  if (!open_into(nonce, aad, ciphertext_and_tag, plaintext)) {
    return std::nullopt;
  }
  return plaintext;
}

}  // namespace smt::crypto
