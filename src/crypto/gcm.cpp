#include "crypto/gcm.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "crypto/hw_tier.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SMT_GHASH_CLMUL 1
#include <immintrin.h>
#endif

namespace smt::crypto {

namespace {

#ifdef SMT_GHASH_CLMUL
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

/// GHASH stride of the aesni engine: blocks folded per reduction.
constexpr std::size_t kGhashStride = 8;
/// The wide engine's: 16 blocks per reduction, four per VPCLMULQDQ.
constexpr std::size_t kWideGhashStride = 16;

/// Precomputes H^1..H^16 (reflected form; out_pows[i] = H^(i+1)) for the
/// aggregated GHASH: the aesni engine reads the first eight, the wide
/// engine all sixteen. Each power is the product of two halves,
/// H^n = H^ceil(n/2)·H^floor(n/2), so the chain of dependent multiplies
/// is four deep rather than fifteen: key setup runs once per flow context.
__attribute__((target("pclmul,ssse3"))) void ghash_init_clmul(
    const std::uint8_t* h_bytes, __m128i* out_pows) noexcept {
  __m128i pows[kWideGhashStride];
  pows[0] = load_reflected(h_bytes);
  for (std::size_t n = 2; n <= kWideGhashStride; ++n) {
    pows[n - 1] = gf_mul_clmul(pows[(n + 1) / 2 - 1], pows[n / 2 - 1]);
  }
  for (std::size_t i = 0; i < kWideGhashStride; ++i) {
    _mm_storeu_si128(out_pows + i, pows[i]);
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

/// GHASH's last step: the length block folded in, one multiply by H, and
/// the result written back in GCM byte order.
__attribute__((target("pclmul,ssse3"))) void ghash_finish_clmul(
    __m128i y, const __m128i* h_pows, std::size_t aad_len,
    std::size_t ciphertext_len, std::uint8_t out[16]) noexcept {
  const __m128i bswap = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                     12, 13, 14, 15);
  const __m128i lengths =
      _mm_set_epi64x(std::int64_t(std::uint64_t(aad_len) * 8),
                     std::int64_t(std::uint64_t(ciphertext_len) * 8));
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

// ---- The wide engine: VAES + VPCLMULQDQ on 512-bit registers. ----------
//
// The functions below take whole 512 B strides only (32 blocks, 8 zmm
// registers); AesGcm's members send the AAD, the tail and every record
// shorter than one stride to the aesni functions above, carrying the
// counter and the GHASH accumulator across. None of them calls out: GCC
// clears the upper register halves (vzeroupper) on return but not before a
// tail call, and legacy-SSE code run with those halves dirty is several
// times slower, here and everywhere after it. They are named functions
// rather than lambdas for the reason given at ghash_absorb_clmul. GCC 12's
// unmasked forms of several 512-bit shuffles, broadcasts and extracts (and
// the 512-to-256/128-bit casts built on them) pass an undefined vector
// through and trip -Wmaybe-uninitialized, so the code uses their maskz forms
// with a full mask, which compile to the same instructions.
#define SMT_GCM_WIDE_TARGET \
  "aes,pclmul,ssse3,avx2,avx512f,avx512bw,vaes,vpclmulqdq"

/// Bytes per wide iteration.
constexpr std::size_t kWideStride = 512;

/// The leading bytes of an n-byte run that the wide engine takes: its whole
/// strides on the wide tier, none otherwise. The length alone decides, so a
/// record shorter than one stride runs the aesni code exactly.
inline std::size_t wide_bytes(std::size_t n) noexcept {
  return hw_tier() == HwTier::wide ? n - n % kWideStride : 0;
}

/// j0 advanced past `blocks` counter blocks: where the aesni tail resumes
/// after the wide strides.
inline std::array<std::uint8_t, 16> advance_counter(
    const std::array<std::uint8_t, 16>& j0, std::size_t blocks) noexcept {
  std::array<std::uint8_t, 16> out = j0;
  store_u32be(out.data() + 12,
              load_u32be(j0.data() + 12) + std::uint32_t(blocks));
  return out;
}

/// Byte-reflects each of a register's four blocks: GHASH's operand form.
__attribute__((target(SMT_GCM_WIDE_TARGET))) inline __m512i reflect4(
    __m512i v) noexcept {
  const __m512i bswap = _mm512_set4_epi32(0x00010203, 0x04050607, 0x08090a0b,
                                          0x0c0d0e0f);
  return _mm512_shuffle_epi8(v, bswap);
}

/// H^16..H^1 as four operands: lane j of pows[g] holds H^(16 - 4g - j), the
/// power that block 4g + j of a 16-block group is multiplied by. h16 is
/// H^16 alone, for the accumulator's own product.
struct WideHashKey {
  __m512i pows[4];
  __m128i h16;
};

__attribute__((target(SMT_GCM_WIDE_TARGET))) inline WideHashKey
load_wide_hash_key(const __m128i* h_pows) noexcept {
  WideHashKey key;
  for (std::size_t g = 0; g < 4; ++g) {
    // H^(13-4g)..H^(16-4g) in ascending lanes; reverse the lane order.
    const __m512i ascending = _mm512_loadu_si512(h_pows + 12 - 4 * g);
    key.pows[g] = _mm512_maskz_shuffle_i64x2(0xff, ascending, ascending, 0x1b);
  }
  key.h16 = _mm_loadu_si128(h_pows + 15);
  return key;
}

/// Four ClmulSums side by side, one per lane.
struct ClmulSum4 {
  __m512i lo, mid, hi;
};

__attribute__((target(SMT_GCM_WIDE_TARGET))) inline ClmulSum4 clmul_product4(
    __m512i a, __m512i b) noexcept {
  return {_mm512_clmulepi64_epi128(a, b, 0x00),
          _mm512_xor_si512(_mm512_clmulepi64_epi128(a, b, 0x10),
                           _mm512_clmulepi64_epi128(a, b, 0x01)),
          _mm512_clmulepi64_epi128(a, b, 0x11)};
}

__attribute__((target(SMT_GCM_WIDE_TARGET))) inline void clmul_add4(
    ClmulSum4& sum, __m512i a, __m512i b) noexcept {
  const ClmulSum4 p = clmul_product4(a, b);
  sum.lo = _mm512_xor_si512(sum.lo, p.lo);
  sum.mid = _mm512_xor_si512(sum.mid, p.mid);
  sum.hi = _mm512_xor_si512(sum.hi, p.hi);
}

/// The XOR of a register's four 128-bit lanes.
__attribute__((target(SMT_GCM_WIDE_TARGET))) inline __m128i fold_lanes(
    __m512i v) noexcept {
  const __m256i half =
      _mm256_xor_si256(_mm512_maskz_extracti64x4_epi64(0xf, v, 0),
                       _mm512_maskz_extracti64x4_epi64(0xf, v, 1));
  return _mm_xor_si128(_mm256_castsi256_si128(half),
                       _mm256_extracti128_si256(half, 1));
}

/// One 512 B stride of blocks, x[0..7] in memory order, folded into `y`
/// with one reduction per 16-block group:
///   y' = y·H^16 ^ x1·H^16 ^ x2·H^15 ^ ... ^ x16·H
/// Each VPCLMULQDQ multiplies four blocks by their four powers, and the
/// lane sums fold to one unreduced product. None of that waits for y, so
/// the chain from one group's y to the next is only y·H^16 and gf_reduce.
__attribute__((target(SMT_GCM_WIDE_TARGET))) inline __m128i ghash_stride_wide(
    __m128i y, const WideHashKey& key, const __m512i x[8]) noexcept {
  for (std::size_t group = 0; group < 8; group += 4) {
    ClmulSum4 blocks = clmul_product4(reflect4(x[group]), key.pows[0]);
    for (std::size_t g = 1; g < 4; ++g) {
      clmul_add4(blocks, reflect4(x[group + g]), key.pows[g]);
    }
    ClmulSum sum{fold_lanes(blocks.lo), fold_lanes(blocks.mid),
                 fold_lanes(blocks.hi)};
    clmul_add(sum, y, key.h16);
    y = gf_reduce(sum);
  }
  return y;
}

/// The first stride's counter blocks in add-ready form: lane j holds the
/// counter block of block j + 1 with its 32-bit counter in native byte
/// order, so one add per register steps all four lanes.
__attribute__((target(SMT_GCM_WIDE_TARGET))) inline __m512i first_counters_wide(
    const std::uint8_t j0[16]) noexcept {
  alignas(16) std::uint8_t block[16];
  std::memcpy(block, j0, 16);
  const std::uint32_t first = load_u32be(j0 + 12) + 1;
  std::memcpy(block + 12, &first, 4);
  const __m512i base = _mm512_maskz_broadcast_i32x4(
      0xffff, _mm_load_si128(reinterpret_cast<const __m128i*>(block)));
  return _mm512_add_epi32(base, _mm512_set_epi32(3, 0, 0, 0, 2, 0, 0, 0, 1, 0,
                                                 0, 0, 0, 0, 0, 0));
}

/// AES-CTR keystream XOR over one 512 B stride, advancing `counters` past
/// it and leaving the output blocks in `x`. As in ctr_blocks_aesni, the
/// counter wraps within its 32 bits and `out` may equal `in`.
__attribute__((target(SMT_GCM_WIDE_TARGET))) inline void ctr_stride_wide(
    const __m128i* keys, int rounds, __m512i& counters, const std::uint8_t* in,
    std::uint8_t* out, __m512i x[8]) noexcept {
  // Per lane: bytes 0..11 (the nonce) stay, the counter goes big-endian.
  const __m512i to_block = _mm512_set4_epi32(0x0c0d0e0f, 0x0b0a0908,
                                             0x07060504, 0x03020100);
  const __m512i four = _mm512_set4_epi32(4, 0, 0, 0);
  const __m512i k0 =
      _mm512_maskz_broadcast_i32x4(0xffff, _mm_loadu_si128(keys));
  for (std::size_t j = 0; j < 8; ++j) {
    x[j] = _mm512_xor_si512(_mm512_shuffle_epi8(counters, to_block), k0);
    counters = _mm512_add_epi32(counters, four);
  }
  for (int round = 1; round < rounds; ++round) {
    const __m512i rk =
        _mm512_maskz_broadcast_i32x4(0xffff, _mm_loadu_si128(keys + round));
    for (std::size_t j = 0; j < 8; ++j) x[j] = _mm512_aesenc_epi128(x[j], rk);
  }
  const __m512i rk_last =
      _mm512_maskz_broadcast_i32x4(0xffff, _mm_loadu_si128(keys + rounds));
  for (std::size_t j = 0; j < 8; ++j) {
    x[j] = _mm512_xor_si512(_mm512_loadu_si512(in + 64 * j),
                            _mm512_aesenclast_epi128(x[j], rk_last));
    _mm512_storeu_si512(out + 64 * j, x[j]);
  }
}

/// GHASH absorb over whole strides.
__attribute__((target(SMT_GCM_WIDE_TARGET))) __m128i ghash_strides_wide(
    __m128i y, const __m128i* h_pows, ByteView data) noexcept {
  const WideHashKey key = load_wide_hash_key(h_pows);
  for (std::size_t off = 0; off < data.size(); off += kWideStride) {
    __m512i x[8];
    for (std::size_t j = 0; j < 8; ++j) {
      x[j] = _mm512_loadu_si512(data.data() + off + 64 * j);
    }
    y = ghash_stride_wide(y, key, x);
  }
  return y;
}

/// AES-CTR keystream XOR over whole strides, counters j0+1 onwards.
__attribute__((target(SMT_GCM_WIDE_TARGET))) void ctr_strides_wide(
    const std::uint8_t* rk, int rounds, const std::uint8_t j0[16],
    ByteView in, std::uint8_t* out) noexcept {
  const __m128i* keys = reinterpret_cast<const __m128i*>(rk);
  __m512i counters = first_counters_wide(j0);
  for (std::size_t off = 0; off < in.size(); off += kWideStride) {
    __m512i x[8];
    ctr_stride_wide(keys, rounds, counters, in.data() + off, out + off, x);
  }
}

/// The wide seal over whole strides, in place, folding the ciphertext into
/// `y`: one stitched pass in which each iteration encrypts a stride and
/// GHASHes the one before it. The two are independent, so the AES and
/// carry-less-multiply units work side by side. The previous stride is
/// read back from memory, a whole iteration after its stores; the last one
/// is hashed from the registers that produced it, since reading stores
/// back straight away stalls on store forwarding.
__attribute__((target(SMT_GCM_WIDE_TARGET))) __m128i seal_strides_wide(
    const std::uint8_t* rk, int rounds, const std::uint8_t j0[16],
    const __m128i* h_pows, __m128i y, MutByteView text) noexcept {
  const __m128i* keys = reinterpret_cast<const __m128i*>(rk);
  const WideHashKey key = load_wide_hash_key(h_pows);
  __m512i counters = first_counters_wide(j0);
  std::uint8_t* p = text.data();
  __m512i ct[8];
  ctr_stride_wide(keys, rounds, counters, p, p, ct);
  for (std::size_t off = kWideStride; off < text.size(); off += kWideStride) {
    ctr_stride_wide(keys, rounds, counters, p + off, p + off, ct);
    __m512i prev[8];
    for (std::size_t j = 0; j < 8; ++j) {
      prev[j] = _mm512_loadu_si512(p + off - kWideStride + 64 * j);
    }
    y = ghash_stride_wide(y, key, prev);
  }
  return ghash_stride_wide(y, key, ct);
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
  // The carry-less-multiply engines consume H's powers directly; skip the
  // table build (16 slow 128-iteration GF multiplies) entirely.
  if (hw_tier() != HwTier::portable) {
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
  if (hw_tier() != HwTier::portable) {
    const auto* h_pows = reinterpret_cast<const __m128i*>(ghash_key_.data());
    __m128i y = ghash_absorb_clmul(_mm_setzero_si128(), h_pows, aad);
    const std::size_t wide = wide_bytes(ciphertext.size());
    if (wide > 0) y = ghash_strides_wide(y, h_pows, ciphertext.first(wide));
    y = ghash_absorb_clmul(y, h_pows, ciphertext.subspan(wide));
    Block out;
    ghash_finish_clmul(y, h_pows, aad.size(), ciphertext.size(), out.data());
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
  if (hw_tier() != HwTier::portable) {
    const std::size_t wide = wide_bytes(in.size());
    if (wide > 0) {
      ctr_strides_wide(aes_.round_key_bytes(), aes_.rounds(), j0.data(),
                       in.first(wide), out);
    }
    ctr_xor_aesni(aes_.round_key_bytes(), aes_.rounds(),
                  advance_counter(j0, wide / 16).data(), in.subspan(wide),
                  out + wide);
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

AesGcm::Block AesGcm::encrypt_and_ghash(const Block& j0, ByteView aad,
                                        MutByteView text) const noexcept {
#ifdef SMT_GHASH_CLMUL
  // The wide seal is one stitched pass; the aesni engine's is CTR, then
  // GHASH over the ciphertext, as is the wide engine's over its tail.
  if (const std::size_t wide = wide_bytes(text.size()); wide > 0) {
    const auto* h_pows = reinterpret_cast<const __m128i*>(ghash_key_.data());
    __m128i y = ghash_absorb_clmul(_mm_setzero_si128(), h_pows, aad);
    y = seal_strides_wide(aes_.round_key_bytes(), aes_.rounds(), j0.data(),
                          h_pows, y, text.first(wide));
    const MutByteView tail = text.subspan(wide);
    ctr_xor_aesni(aes_.round_key_bytes(), aes_.rounds(),
                  advance_counter(j0, wide / 16).data(), tail, tail.data());
    y = ghash_absorb_clmul(y, h_pows, tail);
    Block s;
    ghash_finish_clmul(y, h_pows, aad.size(), text.size(), s.data());
    return s;
  }
#endif
  // CTR is position-wise, so the keystream XOR may write over its input.
  ctr_xor(j0, text, text.data());
  return ghash(aad, text);
}

AesGcm::Block AesGcm::mask_tag(const Block& j0, const Block& s) const noexcept {
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
  const Block tag =
      mask_tag(j0, encrypt_and_ghash(j0, aad, plaintext_and_tag.first(pt_len)));
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
  // Verify first: a failed open must write nothing.
  const Block expected = mask_tag(j0, ghash(aad, ciphertext));
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
