// NIST P-256 (secp256r1) elliptic-curve arithmetic: fast Solinas field
// reduction, Jacobian point operations, scalar multiplication, and ECDH.
//
// This backs the paper's key-exchange design (§4.5): TLS 1.3 uses ECDH on
// secp256r1 and ECDSA signatures with the secp256r1 signature algorithm.
#pragma once

#include <optional>

#include "common/bytes.hpp"
#include "crypto/bignum.hpp"

namespace smt::crypto {

/// Curve parameters (FIPS 186-4, D.1.2.3).
struct P256 {
  static const U256& p() noexcept;  // field prime
  static const U256& n() noexcept;  // group order
  static const U256& gx() noexcept;
  static const U256& gy() noexcept;
};

/// Affine point; infinity is represented by `infinity == true`.
struct AffinePoint {
  U256 x;
  U256 y;
  bool infinity = false;

  static AffinePoint at_infinity() noexcept { return AffinePoint{{}, {}, true}; }
  friend bool operator==(const AffinePoint&, const AffinePoint&) = default;
};

/// Field arithmetic modulo p with fast Solinas reduction.
U256 fp_add(const U256& a, const U256& b) noexcept;
U256 fp_sub(const U256& a, const U256& b) noexcept;
U256 fp_mul(const U256& a, const U256& b) noexcept;
U256 fp_sqr(const U256& a) noexcept;
U256 fp_inv(const U256& a) noexcept;

/// Reduces a 512-bit product modulo p (exposed for tests).
U256 fp_reduce(const U512& v) noexcept;

/// Scalar multiplication k * P. Returns infinity for k == 0 (mod n).
AffinePoint scalar_mul(const U256& k, const AffinePoint& point) noexcept;

/// k * G for the standard base point.
AffinePoint scalar_mul_base(const U256& k) noexcept;

/// Point addition (affine interface; handles doubling and infinity).
AffinePoint point_add(const AffinePoint& a, const AffinePoint& b) noexcept;

/// Validates that the point lies on the curve and is not infinity.
bool is_on_curve(const AffinePoint& pt) noexcept;

/// --- Wire encoding -------------------------------------------------------

/// Uncompressed SEC1 encoding: 0x04 || X || Y (65 bytes).
Bytes encode_point(const AffinePoint& pt);

/// Parses an uncompressed SEC1 point and validates curve membership.
std::optional<AffinePoint> decode_point(ByteView data);

/// --- ECDH ----------------------------------------------------------------

struct EcdhKeyPair {
  U256 private_key;       // scalar in [1, n-1]
  AffinePoint public_key; // private_key * G
};

/// Derives a key pair from 32 bytes of seed material (reduced into range).
EcdhKeyPair ecdh_keypair_from_seed(ByteView seed32);

/// ECDH shared secret: X coordinate of d * Q, 32 bytes big-endian.
/// Returns nullopt if the peer point is invalid.
std::optional<Bytes> ecdh_shared_secret(const U256& private_key,
                                        const AffinePoint& peer_public);

}  // namespace smt::crypto
