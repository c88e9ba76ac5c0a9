// AES block cipher (FIPS 197), 128- and 256-bit keys.
//
// Two interchangeable engines behind one interface, selected at runtime by
// crypto::hw_tier() (crypto/hw_tier.hpp):
//   * AES-NI (x86-64 `aes` extension, function-multiversioned so the
//     binary still runs on CPUs without it) on either hardware tier — the
//     simulator does real crypto for byte fidelity, so the block transform
//     is squarely on the wall-clock hot path;
//   * portable T-table implementation, validated against FIPS vectors.
// Both produce identical bytes; the dispatch only changes wall-clock cost.
// Only encryption is implemented — every mode used here (CTR inside GCM)
// needs just the forward transform.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace smt::crypto {

class Aes {
 public:
  static constexpr std::size_t kBlockSize = 16;

  /// key must be 16 or 32 bytes (AES-128 / AES-256).
  explicit Aes(ByteView key);

  void encrypt_block(const std::uint8_t in[kBlockSize],
                     std::uint8_t out[kBlockSize]) const noexcept;

  std::size_t key_bits() const noexcept { return key_bits_; }

  /// Expanded schedule in FIPS byte order + round count: the AES-NI bulk
  /// paths (pipelined CTR in the GCM layer) consume these directly.
  const std::uint8_t* round_key_bytes() const noexcept {
    return round_key_bytes_.data();
  }
  int rounds() const noexcept { return rounds_; }

 private:
  std::array<std::uint32_t, 60> round_keys_{};
  // Round keys in FIPS byte order (the layout AES-NI consumes directly);
  // derived from round_keys_ once at key setup.
  alignas(16) std::array<std::uint8_t, 240> round_key_bytes_{};
  int rounds_ = 0;
  std::size_t key_bits_ = 0;
};

}  // namespace smt::crypto
