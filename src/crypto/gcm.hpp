// AES-GCM AEAD (NIST SP 800-38D) with 96-bit nonces, as used by
// TLS_AES_128_GCM_SHA256 / TLS_AES_256_GCM_SHA384 record protection.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/bytes.hpp"
#include "crypto/aes.hpp"

namespace smt::crypto {

class AesGcm {
 public:
  static constexpr std::size_t kTagSize = 16;
  static constexpr std::size_t kNonceSize = 12;

  /// key: 16 or 32 bytes.
  explicit AesGcm(ByteView key);

  /// Encrypts `plaintext`; returns ciphertext || 16-byte tag.
  Bytes seal(ByteView nonce, ByteView aad, ByteView plaintext) const;

  /// Seals in place: `plaintext_and_tag` holds the plaintext followed by
  /// kTagSize bytes of tag space. The ciphertext overwrites the plaintext
  /// and the tag fills the tag space — no buffer is allocated.
  void seal_in_place(ByteView nonce, ByteView aad,
                     MutByteView plaintext_and_tag) const noexcept;

  /// Verifies and decrypts `ciphertext_and_tag` (ciphertext || tag).
  /// Returns nullopt on authentication failure.
  std::optional<Bytes> open(ByteView nonce, ByteView aad,
                            ByteView ciphertext_and_tag) const;

  /// Verifies `ciphertext_and_tag` and decrypts it into `plaintext`, which
  /// must be exactly the ciphertext's length. Returns false, writing
  /// nothing, on authentication failure, a too-short input or an output
  /// of any other length.
  bool open_into(ByteView nonce, ByteView aad, ByteView ciphertext_and_tag,
                 MutByteView plaintext) const noexcept;

 private:
  using Block = std::array<std::uint8_t, 16>;

  static Block initial_counter(ByteView nonce) noexcept;
  Block ghash(ByteView aad, ByteView ciphertext) const noexcept;
  void ctr_xor(const Block& j0, ByteView in, std::uint8_t* out) const noexcept;
  /// Encrypts `text` in place and returns GHASH(aad, ciphertext).
  Block encrypt_and_ghash(const Block& j0, ByteView aad,
                          MutByteView text) const noexcept;
  /// The tag: a GHASH output masked with E_K(J0).
  Block mask_tag(const Block& j0, const Block& s) const noexcept;

  Aes aes_;
  // GHASH key material, expanded from H = E_K(0^128) for the one engine
  // this process runs (crypto::hw_tier() is fixed per process): the
  // carry-less-multiply engines' H^1..H^16 in reflected form (all 256 B;
  // the aesni engine's 8-block stride reads H^1..H^8, the wide engine's
  // 16-block reduction all sixteen), or the portable engine's 4-bit
  // multiplication table (Shoup's method, all 256 B). The hardware engines
  // access it only as __m128i/__m512i, may_alias vector types. All three
  // engines compute the identical GF(2^128) product, so dispatch never
  // changes bytes. Every flow context holds an AesGcm, so this stays 256 B.
  alignas(16) std::array<std::array<std::uint64_t, 2>, 16> ghash_key_{};
};

}  // namespace smt::crypto
