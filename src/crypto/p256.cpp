#include "crypto/p256.hpp"

#include <cassert>

namespace smt::crypto {

namespace {

const U256 kP = U256::from_hex(
    "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff");
const U256 kN = U256::from_hex(
    "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551");
const U256 kB = U256::from_hex(
    "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b");
const U256 kGx = U256::from_hex(
    "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296");
const U256 kGy = U256::from_hex(
    "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5");

/// Jacobian projective point: (X, Y, Z) with x = X/Z^2, y = Y/Z^3.
struct JacPoint {
  U256 x, y, z;
  bool infinity = true;
};

}  // namespace

const U256& P256::p() noexcept { return kP; }
const U256& P256::n() noexcept { return kN; }
const U256& P256::gx() noexcept { return kGx; }
const U256& P256::gy() noexcept { return kGy; }

U256 fp_add(const U256& a, const U256& b) noexcept { return mod_add(a, b, kP); }
U256 fp_sub(const U256& a, const U256& b) noexcept { return mod_sub(a, b, kP); }

U256 fp_reduce(const U512& v) noexcept {
  // FIPS 186-4 D.2.3 fast reduction for p256 = 2^256 - 2^224 + 2^192 + 2^96 - 1.
  // The 512-bit input is viewed as sixteen 32-bit words c[0..15].
  std::uint32_t c[16];
  for (int i = 0; i < 8; ++i) {
    c[2 * i] = static_cast<std::uint32_t>(v.limbs[std::size_t(i)]);
    c[2 * i + 1] = static_cast<std::uint32_t>(v.limbs[std::size_t(i)] >> 32);
  }

  // Accumulate the nine Solinas terms into signed per-word sums.
  // Terms are written most-significant word first, as in the standard.
  std::int64_t acc[8] = {};
  const auto add_term = [&](int coeff, std::uint32_t w7, std::uint32_t w6,
                            std::uint32_t w5, std::uint32_t w4,
                            std::uint32_t w3, std::uint32_t w2,
                            std::uint32_t w1, std::uint32_t w0) noexcept {
    acc[7] += std::int64_t(coeff) * w7;
    acc[6] += std::int64_t(coeff) * w6;
    acc[5] += std::int64_t(coeff) * w5;
    acc[4] += std::int64_t(coeff) * w4;
    acc[3] += std::int64_t(coeff) * w3;
    acc[2] += std::int64_t(coeff) * w2;
    acc[1] += std::int64_t(coeff) * w1;
    acc[0] += std::int64_t(coeff) * w0;
  };

  add_term(+1, c[7], c[6], c[5], c[4], c[3], c[2], c[1], c[0]);   // s1
  add_term(+2, c[15], c[14], c[13], c[12], c[11], 0, 0, 0);       // s2
  add_term(+2, 0, c[15], c[14], c[13], c[12], 0, 0, 0);           // s3
  add_term(+1, c[15], c[14], 0, 0, 0, c[10], c[9], c[8]);         // s4
  add_term(+1, c[8], c[13], c[15], c[14], c[13], c[11], c[10], c[9]);  // s5
  add_term(-1, c[10], c[8], 0, 0, 0, c[13], c[12], c[11]);        // s6
  add_term(-1, c[11], c[9], 0, 0, c[15], c[14], c[13], c[12]);    // s7
  add_term(-1, c[12], 0, c[10], c[9], c[8], c[15], c[14], c[13]); // s8
  add_term(-1, c[13], 0, c[11], c[10], c[9], 0, c[15], c[14]);    // s9

  // Carry-propagate the signed word sums into a signed multiple-of-p offset.
  // Each acc word is within +/- 6 * 2^32, so a 64-bit signed carry chain works.
  std::int64_t carry = 0;
  std::uint32_t words[8];
  for (int i = 0; i < 8; ++i) {
    std::int64_t cur = acc[i] + carry;
    // Floor-divide by 2^32 so the remainder is non-negative.
    carry = cur >> 32;
    words[i] = static_cast<std::uint32_t>(cur & 0xffffffff);
  }

  U256 r;
  for (int i = 0; i < 4; ++i) {
    r.limbs[std::size_t(i)] =
        std::uint64_t(words[2 * i]) | (std::uint64_t(words[2 * i + 1]) << 32);
  }

  // `carry` is now the signed count of 2^256 to add, i.e. r_full = r + carry * 2^256.
  // Since 2^256 = p + (2^224 - 2^192 - 2^96 + 1), fold by adding/subtracting p.
  while (carry > 0) {
    U256 t;
    const std::uint64_t overflow = u256_sub(r, kP, t);
    if (overflow) {
      // r < p: borrow consumed one unit of carry.
      r = t;  // t = r - p + 2^256
      --carry;
    } else {
      r = t;
      // subtracting p from r did not consume the 2^256 carry
    }
  }
  while (carry < 0) {
    U256 t;
    const std::uint64_t overflow = u256_add(r, kP, t);
    r = t;
    if (overflow) ++carry;
  }
  // Final canonicalisation into [0, p).
  while (!u256_less(r, kP)) {
    U256 t;
    u256_sub(r, kP, t);
    r = t;
  }
  return r;
}

U256 fp_mul(const U256& a, const U256& b) noexcept {
  return fp_reduce(u256_mul(a, b));
}

U256 fp_sqr(const U256& a) noexcept { return fp_mul(a, a); }

U256 fp_inv(const U256& a) noexcept {
  // Fermat: a^(p-2) mod p, with the fast reduction.
  U256 e;
  u256_sub(kP, U256::from_u64(2), e);
  U256 result = U256::one();
  for (int i = e.top_bit(); i >= 0; --i) {
    result = fp_sqr(result);
    if (e.bit(i)) result = fp_mul(result, a);
  }
  return result;
}

namespace {

JacPoint to_jacobian(const AffinePoint& pt) noexcept {
  if (pt.infinity) return JacPoint{};
  return JacPoint{pt.x, pt.y, U256::one(), false};
}

AffinePoint to_affine(const JacPoint& pt) noexcept {
  if (pt.infinity) return AffinePoint::at_infinity();
  const U256 z_inv = fp_inv(pt.z);
  const U256 z_inv2 = fp_sqr(z_inv);
  const U256 z_inv3 = fp_mul(z_inv2, z_inv);
  return AffinePoint{fp_mul(pt.x, z_inv2), fp_mul(pt.y, z_inv3), false};
}

/// Point doubling in Jacobian coordinates (a = -3 optimisation).
JacPoint jac_double(const JacPoint& pt) noexcept {
  if (pt.infinity || pt.y.is_zero()) return JacPoint{};
  // delta = Z^2, gamma = Y^2, beta = X*gamma
  const U256 delta = fp_sqr(pt.z);
  const U256 gamma = fp_sqr(pt.y);
  const U256 beta = fp_mul(pt.x, gamma);
  // alpha = 3*(X - delta)*(X + delta)   [uses a = -3]
  const U256 t1 = fp_sub(pt.x, delta);
  const U256 t2 = fp_add(pt.x, delta);
  const U256 t3 = fp_mul(t1, t2);
  const U256 alpha = fp_add(fp_add(t3, t3), t3);

  JacPoint out;
  out.infinity = false;
  // X3 = alpha^2 - 8*beta
  const U256 beta2 = fp_add(beta, beta);
  const U256 beta4 = fp_add(beta2, beta2);
  const U256 beta8 = fp_add(beta4, beta4);
  out.x = fp_sub(fp_sqr(alpha), beta8);
  // Z3 = (Y + Z)^2 - gamma - delta
  const U256 yz = fp_add(pt.y, pt.z);
  out.z = fp_sub(fp_sub(fp_sqr(yz), gamma), delta);
  // Y3 = alpha*(4*beta - X3) - 8*gamma^2
  const U256 g2 = fp_sqr(gamma);
  const U256 g2_2 = fp_add(g2, g2);
  const U256 g2_4 = fp_add(g2_2, g2_2);
  const U256 g2_8 = fp_add(g2_4, g2_4);
  out.y = fp_sub(fp_mul(alpha, fp_sub(beta4, out.x)), g2_8);
  return out;
}

/// Mixed addition: Jacobian + affine (Z2 = 1).
JacPoint jac_add_affine(const JacPoint& a, const AffinePoint& b) noexcept {
  if (b.infinity) return a;
  if (a.infinity) return to_jacobian(b);

  const U256 z1z1 = fp_sqr(a.z);
  const U256 u2 = fp_mul(b.x, z1z1);
  const U256 s2 = fp_mul(fp_mul(b.y, z1z1), a.z);
  const U256 h = fp_sub(u2, a.x);
  const U256 r = fp_sub(s2, a.y);

  if (h.is_zero()) {
    if (r.is_zero()) return jac_double(a);
    return JacPoint{};  // P + (-P) = infinity
  }

  const U256 h2 = fp_sqr(h);
  const U256 h3 = fp_mul(h2, h);
  const U256 v = fp_mul(a.x, h2);

  JacPoint out;
  out.infinity = false;
  // X3 = r^2 - h^3 - 2v
  out.x = fp_sub(fp_sub(fp_sqr(r), h3), fp_add(v, v));
  // Y3 = r*(v - X3) - Y1*h^3
  out.y = fp_sub(fp_mul(r, fp_sub(v, out.x)), fp_mul(a.y, h3));
  // Z3 = Z1 * h
  out.z = fp_mul(a.z, h);
  return out;
}

}  // namespace

AffinePoint scalar_mul(const U256& k, const AffinePoint& point) noexcept {
  if (k.is_zero() || point.infinity) return AffinePoint::at_infinity();
  JacPoint acc{};  // infinity
  for (int i = k.top_bit(); i >= 0; --i) {
    acc = jac_double(acc);
    if (k.bit(i)) acc = jac_add_affine(acc, point);
  }
  return to_affine(acc);
}

AffinePoint scalar_mul_base(const U256& k) noexcept {
  return scalar_mul(k, AffinePoint{kGx, kGy, false});
}

AffinePoint point_add(const AffinePoint& a, const AffinePoint& b) noexcept {
  if (a.infinity) return b;
  return to_affine(jac_add_affine(to_jacobian(a), b));
}

bool is_on_curve(const AffinePoint& pt) noexcept {
  if (pt.infinity) return false;
  if (!u256_less(pt.x, kP) || !u256_less(pt.y, kP)) return false;
  // y^2 == x^3 - 3x + b
  const U256 y2 = fp_sqr(pt.y);
  const U256 x3 = fp_mul(fp_sqr(pt.x), pt.x);
  const U256 three_x = fp_add(fp_add(pt.x, pt.x), pt.x);
  const U256 rhs = fp_add(fp_sub(x3, three_x), kB);
  return y2 == rhs;
}

Bytes encode_point(const AffinePoint& pt) {
  assert(!pt.infinity && "cannot encode the point at infinity");
  Bytes out;
  out.reserve(65);
  out.push_back(0x04);
  const auto x = pt.x.to_bytes();
  const auto y = pt.y.to_bytes();
  out.insert(out.end(), x.begin(), x.end());
  out.insert(out.end(), y.begin(), y.end());
  return out;
}

std::optional<AffinePoint> decode_point(ByteView data) {
  if (data.size() != 65 || data[0] != 0x04) return std::nullopt;
  AffinePoint pt;
  pt.infinity = false;
  pt.x = U256::from_bytes(data.subspan(1, 32));
  pt.y = U256::from_bytes(data.subspan(33, 32));
  if (!is_on_curve(pt)) return std::nullopt;
  return pt;
}

EcdhKeyPair ecdh_keypair_from_seed(ByteView seed32) {
  assert(seed32.size() == 32);
  U256 d = U256::from_bytes(seed32);
  // Reduce into [1, n-1]. A zero scalar after reduction is vanishingly
  // unlikely; bump to 1 so the API has no failure mode.
  U512 wide{};
  for (int i = 0; i < 4; ++i) wide.limbs[std::size_t(i)] = d.limbs[std::size_t(i)];
  d = u512_mod(wide, kN);
  if (d.is_zero()) d = U256::one();
  return EcdhKeyPair{d, scalar_mul_base(d)};
}

std::optional<Bytes> ecdh_shared_secret(const U256& private_key,
                                        const AffinePoint& peer_public) {
  if (!is_on_curve(peer_public)) return std::nullopt;
  const AffinePoint shared = scalar_mul(private_key, peer_public);
  if (shared.infinity) return std::nullopt;
  const auto x = shared.x.to_bytes();
  return Bytes(x.begin(), x.end());
}

}  // namespace smt::crypto
