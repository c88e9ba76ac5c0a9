// Deterministic pseudo-random sources.
//
// Two flavours:
//  * Rng       — fast xoshiro256** for workload generation and simulation
//                decisions (loss injection, YCSB key draws). NOT for keys.
//  * (crypto)  — key material comes from crypto::HmacDrbg (see src/crypto),
//                which is deterministic under a seed for reproducible tests.
#pragma once

#include <cstdint>

namespace smt {

/// Derives a decorrelated per-stream seed from a base seed and a stream
/// index (one SplitMix64 step over `base + (index+1)*golden`). Used wherever
/// several RNG streams share one scenario seed — per-switch ECMP hashing,
/// the two directions of a Link, per-uplink fault streams — so sibling
/// streams never replay each other's draws.
inline constexpr std::uint64_t mix_seed(std::uint64_t base,
                                        std::uint64_t index) noexcept {
  std::uint64_t h = base + (index + 1) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

/// xoshiro256** by Blackman & Vigna (public domain reference algorithm).
/// Deterministic under a seed; never used for cryptographic material.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept {
    // SplitMix64 seeding, per the xoshiro authors' recommendation.
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with probability p.
  bool chance(double p) noexcept { return next_double() < p; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

/// Zipfian generator (YCSB-style skewed key popularity).
class ZipfGenerator {
 public:
  ZipfGenerator(std::uint64_t n, double theta, std::uint64_t seed);

  std::uint64_t next() noexcept;

 private:
  std::uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  Rng rng_;
};

}  // namespace smt
