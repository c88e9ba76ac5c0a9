// Fixed-width 256-bit unsigned integers and modular arithmetic helpers
// for the P-256 implementation.
//
// Representation: four 64-bit limbs, least-significant first. Not
// constant-time — acceptable for a research reproduction running inside a
// simulator (documented in DESIGN.md); a production deployment would swap
// in a hardened implementation behind the same interface.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace smt::crypto {

struct U256 {
  // limbs[0] is least significant.
  std::array<std::uint64_t, 4> limbs{};

  static U256 zero() noexcept { return U256{}; }
  static U256 one() noexcept { return from_u64(1); }

  static U256 from_u64(std::uint64_t v) noexcept {
    U256 r;
    r.limbs[0] = v;
    return r;
  }

  /// Parses a 32-byte big-endian buffer.
  static U256 from_bytes(ByteView be32) noexcept;

  /// Parses a big-endian hex string of up to 64 digits.
  static U256 from_hex(std::string_view hex) noexcept;

  /// Serialises to 32 bytes big-endian.
  std::array<std::uint8_t, 32> to_bytes() const noexcept;

  bool is_zero() const noexcept {
    return (limbs[0] | limbs[1] | limbs[2] | limbs[3]) == 0;
  }

  bool bit(int i) const noexcept {
    return (limbs[std::size_t(i) / 64] >> (std::size_t(i) % 64)) & 1;
  }

  /// Index of the highest set bit, or -1 if zero.
  int top_bit() const noexcept;

  friend bool operator==(const U256&, const U256&) = default;
};

/// a < b as unsigned 256-bit integers.
bool u256_less(const U256& a, const U256& b) noexcept;

/// r = a + b; returns the carry out.
std::uint64_t u256_add(const U256& a, const U256& b, U256& r) noexcept;

/// r = a - b; returns the borrow out.
std::uint64_t u256_sub(const U256& a, const U256& b, U256& r) noexcept;

/// Full 256x256 -> 512-bit product, 8 little-endian limbs.
struct U512 {
  std::array<std::uint64_t, 8> limbs{};
};

U512 u256_mul(const U256& a, const U256& b) noexcept;

/// Generic (slow) reduction of a 512-bit value modulo m. Used for the
/// curve order n where a handful of operations per signature suffice.
U256 u512_mod(const U512& v, const U256& m) noexcept;

/// Modular arithmetic modulo an arbitrary modulus m (slow path).
U256 mod_add(const U256& a, const U256& b, const U256& m) noexcept;
U256 mod_sub(const U256& a, const U256& b, const U256& m) noexcept;
U256 mod_mul(const U256& a, const U256& b, const U256& m) noexcept;
/// a^e mod m by square-and-multiply.
U256 mod_pow(const U256& a, const U256& e, const U256& m) noexcept;
/// a^-1 mod m for prime m (Fermat).
U256 mod_inv_prime(const U256& a, const U256& m) noexcept;

}  // namespace smt::crypto
