// Which AES-GCM engine this process runs, resolved once from the CPU.
//
//   * wide     — VAES + VPCLMULQDQ on 512-bit registers (AVX-512F/BW/VL/DQ):
//                records of at least one 512 B stride take four blocks per
//                instruction; shorter records and tails run the aesni code;
//   * aesni    — AES-NI 8-wide CTR and PCLMUL GHASH on 128-bit registers;
//   * portable — T-table AES and Shoup's 4-bit GHASH table, the reference.
//
// All three compute the identical function, so the tier changes wall-clock
// cost only, never a simulated byte. SMT_DISABLE_HW_CRYPTO=wide caps the
// tier at aesni; any other value forces portable. Tests use it to cover the
// lower tiers on hosts whose CPUs would never take them.
#pragma once

namespace smt::crypto {

enum class HwTier { portable, aesni, wide };

namespace detail {
HwTier resolve_hw_tier() noexcept;
}

/// The process's engine. Inline so every dispatch site reads one cached
/// value behind a perfectly predicted guard.
inline HwTier hw_tier() noexcept {
  static const HwTier tier = detail::resolve_hw_tier();
  return tier;
}

/// "portable", "aesni" or "wide", for bench labels and CI summaries.
const char* hw_tier_name() noexcept;

}  // namespace smt::crypto
