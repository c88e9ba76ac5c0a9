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

/// Copies n < 16 bytes with fixed-size moves. GCC inlines a
/// variable-length memcpy as `rep movsq`, whose startup costs more than
/// a whole small record's GHASH.
inline void copy_partial_block(std::uint8_t* dst, const std::uint8_t* src,
                               std::size_t n) noexcept {
  std::size_t i = 0;
  for (std::size_t width = 8; width > 0; width /= 2) {
    if (n & width) {
      std::memcpy(dst + i, src + i, width);
      i += width;
    }
  }
}

/// Loads a 16-byte block byte-reflected: the PCLMUL engine's operand form.
__attribute__((target("ssse3"))) inline __m128i load_reflected(
    const std::uint8_t* p) noexcept {
  const __m128i bswap = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                     12, 13, 14, 15);
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), bswap);
}

/// An unreduced 256-bit carry-less product, or a sum of them: lo and hi
/// are the outer 64x64 products, mid the sum of the two cross products.
/// The bit-reflection shift and the reduction are both linear, so a sum
/// of products needs only one gf_reduce.
struct ClmulSum {
  __m128i lo, mid, hi;
};

__attribute__((target("pclmul"))) inline ClmulSum clmul_product(
    __m128i a, __m128i b) noexcept {
  return {_mm_clmulepi64_si128(a, b, 0x00),
          _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x10),
                        _mm_clmulepi64_si128(a, b, 0x01)),
          _mm_clmulepi64_si128(a, b, 0x11)};
}

__attribute__((target("pclmul"))) inline void clmul_add(ClmulSum& sum,
                                                        __m128i a,
                                                        __m128i b) noexcept {
  const ClmulSum p = clmul_product(a, b);
  sum.lo = _mm_xor_si128(sum.lo, p.lo);
  sum.mid = _mm_xor_si128(sum.mid, p.mid);
  sum.hi = _mm_xor_si128(sum.hi, p.hi);
}

/// Reduces a ClmulSum to its GF(2^128) element with the GCM polynomial —
/// the Intel GCM white-paper algorithm (shift-left-by-1 bit-reflection
/// fixup, then sparse reduction). Operands and result are byte-reflected.
inline __m128i gf_reduce(const ClmulSum& sum) noexcept {
  __m128i lo = _mm_xor_si128(sum.lo, _mm_slli_si128(sum.mid, 8));
  __m128i hi = _mm_xor_si128(sum.hi, _mm_srli_si128(sum.mid, 8));

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

__attribute__((target("pclmul"))) inline __m128i gf_mul_clmul(
    __m128i a, __m128i b) noexcept {
  return gf_reduce(clmul_product(a, b));
}

/// GHASH stride: blocks folded per reduction, and so H powers kept.
constexpr std::size_t kGhashStride = 8;

/// Precomputes H^1..H^8 (reflected form; out_pows[i] = H^(i+1)) for the
/// aggregated GHASH.
__attribute__((target("pclmul,ssse3"))) void ghash_init_clmul(
    const std::uint8_t* h_bytes, __m128i* out_pows) noexcept {
  const __m128i h = load_reflected(h_bytes);
  __m128i pow = h;
  _mm_storeu_si128(out_pows, pow);
  for (std::size_t i = 1; i < kGhashStride; ++i) {
    pow = gf_mul_clmul(pow, h);
    _mm_storeu_si128(out_pows + i, pow);
  }
}

/// One data run folded into the GHASH accumulator `y`, PCLMUL engine.
/// Eight blocks per reduction:
///   y' = (y^x1)·H^8 ^ x2·H^7 ^ ... ^ x8·H
/// The eight products are independent, so the multiplies pipeline instead
/// of serialising on the y dependency, and their unreduced sum takes a
/// single gf_reduce. The last n <= 8 blocks (a partial final block
/// zero-padded, as GHASH defines it) fold in one batch against H^n..H.
/// A named function rather than a lambda: GCC 12 lambdas do not inherit
/// the enclosing function's target attribute, so intrinsics inside them
/// fail to inline.
__attribute__((target("pclmul,ssse3"))) __m128i ghash_absorb_clmul(
    __m128i y, const __m128i* h_pows, ByteView data) noexcept {
  const std::uint8_t* p = data.data();
  std::size_t left = data.size();
  while (left >= 16 * kGhashStride) {
    ClmulSum sum = clmul_product(_mm_xor_si128(y, load_reflected(p)),
                                 _mm_loadu_si128(h_pows + kGhashStride - 1));
    for (std::size_t j = 1; j < kGhashStride; ++j) {
      clmul_add(sum, load_reflected(p + 16 * j),
                _mm_loadu_si128(h_pows + kGhashStride - 1 - j));
    }
    y = gf_reduce(sum);
    p += 16 * kGhashStride;
    left -= 16 * kGhashStride;
  }
  if (left == 0) return y;
  const std::size_t n = (left + 15) / 16;
  alignas(16) std::uint8_t padded[16] = {};
  const std::uint8_t* last = p + 16 * (n - 1);
  if (left % 16 != 0) {
    copy_partial_block(padded, last, left % 16);
    last = padded;
  }
  ClmulSum sum = clmul_product(
      _mm_xor_si128(y, load_reflected(n == 1 ? last : p)),
      _mm_loadu_si128(h_pows + n - 1));
  for (std::size_t j = 1; j < n; ++j) {
    clmul_add(sum, load_reflected(j == n - 1 ? last : p + 16 * j),
              _mm_loadu_si128(h_pows + n - 1 - j));
  }
  return gf_reduce(sum);
}

__attribute__((target("pclmul,ssse3"))) void ghash_clmul(
    const __m128i* h_pows, ByteView aad, ByteView ciphertext,
    std::uint8_t out[16]) noexcept {
  const __m128i bswap = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                     12, 13, 14, 15);
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

/// AES-CTR keystream XOR over N whole blocks, counters ctr+1..ctr+N:
/// AESENC has multi-cycle latency but sub-cycle throughput, so N
/// independent counter blocks keep the unit busy where one block at a
/// time would stall. `prefix` is the counter block with its trailing
/// 32-bit counter zeroed. `out` may equal `in`: each block is read
/// before it is written.
template <std::size_t N>
__attribute__((target("aes,ssse3"))) inline void ctr_blocks_aesni(
    const __m128i* keys, int rounds, __m128i prefix, std::uint32_t ctr,
    const std::uint8_t* in, std::uint8_t* out) noexcept {
  const __m128i bswap32 = _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6,
                                       7, 0, 1, 2, 3);
  const __m128i k0 = _mm_loadu_si128(keys);
  __m128i s[N];
  for (std::size_t j = 0; j < N; ++j) {
    const __m128i counter = _mm_shuffle_epi8(
        _mm_set_epi32(int(ctr + 1 + j), 0, 0, 0), bswap32);
    s[j] = _mm_xor_si128(_mm_or_si128(prefix, counter), k0);
  }
  for (int round = 1; round < rounds; ++round) {
    const __m128i rk = _mm_loadu_si128(keys + round);
    for (std::size_t j = 0; j < N; ++j) s[j] = _mm_aesenc_si128(s[j], rk);
  }
  const __m128i rk_last = _mm_loadu_si128(keys + rounds);
  for (std::size_t j = 0; j < N; ++j) {
    const __m128i ks = _mm_aesenclast_si128(s[j], rk_last);
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 16 * j));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16 * j),
                     _mm_xor_si128(x, ks));
  }
}

/// AES-CTR keystream XOR: 8 blocks per iteration, then one 4-block step,
/// then single blocks; a partial final block goes through a padded copy.
__attribute__((target("aes,ssse3"))) void ctr_xor_aesni(
    const std::uint8_t* rk, int rounds, const std::uint8_t j0[16],
    ByteView in, std::uint8_t* out) noexcept {
  const __m128i* keys = reinterpret_cast<const __m128i*>(rk);
  // The 96-bit nonce prefix is fixed; only the trailing 32-bit counter
  // changes.
  alignas(16) std::uint8_t counter_bytes[16];
  std::memcpy(counter_bytes, j0, 16);
  std::uint32_t ctr = load_u32be(counter_bytes + 12);
  std::memset(counter_bytes + 12, 0, 4);
  const __m128i prefix =
      _mm_load_si128(reinterpret_cast<const __m128i*>(counter_bytes));

  const std::uint8_t* src = in.data();
  std::size_t left = in.size();
  while (left >= 128) {
    ctr_blocks_aesni<8>(keys, rounds, prefix, ctr, src, out);
    ctr += 8;
    src += 128;
    out += 128;
    left -= 128;
  }
  if (left >= 64) {
    ctr_blocks_aesni<4>(keys, rounds, prefix, ctr, src, out);
    ctr += 4;
    src += 64;
    out += 64;
    left -= 64;
  }
  while (left >= 16) {
    ctr_blocks_aesni<1>(keys, rounds, prefix, ctr, src, out);
    ++ctr;
    src += 16;
    out += 16;
    left -= 16;
  }
  if (left > 0) {
    alignas(16) std::uint8_t block[16] = {};
    copy_partial_block(block, src, left);
    ctr_blocks_aesni<1>(keys, rounds, prefix, ctr, block, block);
    copy_partial_block(out, block, left);
  }
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
  // GHASH key H = E_K(0^128).
  std::uint8_t h_bytes[16];
  const std::uint8_t zero[16] = {};
  aes_.encrypt_block(zero, h_bytes);
#ifdef SMT_GHASH_CLMUL
  // The carry-less-multiply engine consumes H's powers directly; skip the
  // table build (16 slow 128-iteration GF multiplies) entirely.
  if (cpu_has_clmul()) {
    ghash_init_clmul(h_bytes, reinterpret_cast<__m128i*>(ghash_key_.data()));
    return;
  }
#endif
  const U128 h{load_u64be(h_bytes), load_u64be(h_bytes + 8)};

  // ghash_key_[i] = (i as 4-bit poly) * H. Built with the slow multiply.
  for (int i = 0; i < 16; ++i) {
    U128 x{};
    // Place nibble i in the top 4 bits of the 128-bit value.
    x.hi = std::uint64_t(i) << 60;
    const U128 prod = gf_mul_slow(x, h);
    ghash_key_[i][0] = prod.hi;
    ghash_key_[i][1] = prod.lo;
  }
}

AesGcm::Block AesGcm::ghash(ByteView aad, ByteView ciphertext) const noexcept {
#ifdef SMT_GHASH_CLMUL
  if (cpu_has_clmul()) {
    Block out;
    ghash_clmul(reinterpret_cast<const __m128i*>(ghash_key_.data()), aad,
                ciphertext, out.data());
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
      z.hi ^= ghash_key_[nibble][0];
      z.lo ^= ghash_key_[nibble][1];
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
  if (plaintext.size() != ct_len) return false;
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
