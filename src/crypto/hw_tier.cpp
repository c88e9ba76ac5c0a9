#include "crypto/hw_tier.hpp"

#include <cstdlib>
#include <cstring>

namespace smt::crypto {

namespace detail {

HwTier resolve_hw_tier() noexcept {
  // getenv is safe here: called once under hw_tier()'s static-init guard,
  // and nothing in this process calls setenv.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* disable = std::getenv("SMT_DISABLE_HW_CRYPTO");
  if (disable != nullptr && std::strcmp(disable, "wide") != 0) {
    return HwTier::portable;
  }
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  // The extensions ship together on real CPUs; one predicate per tier keeps
  // every dispatch branch a single comparison.
  const bool aesni = __builtin_cpu_supports("aes") &&
                     __builtin_cpu_supports("pclmul") &&
                     __builtin_cpu_supports("ssse3");
  if (!aesni) return HwTier::portable;
  const bool wide = __builtin_cpu_supports("avx512f") &&
                    __builtin_cpu_supports("avx512bw") &&
                    __builtin_cpu_supports("avx512vl") &&
                    __builtin_cpu_supports("avx512dq") &&
                    __builtin_cpu_supports("vaes") &&
                    __builtin_cpu_supports("vpclmulqdq");
  return wide && disable == nullptr ? HwTier::wide : HwTier::aesni;
#else
  return HwTier::portable;
#endif
}

}  // namespace detail

const char* hw_tier_name() noexcept {
  switch (hw_tier()) {
    case HwTier::wide:
      return "wide";
    case HwTier::aesni:
      return "aesni";
    case HwTier::portable:
      break;
  }
  return "portable";
}

}  // namespace smt::crypto
