// Elliptic-curve group and Schnorr signatures over secp256k1 parameters.
//
// Implemented from scratch on top of u256: prime-field arithmetic with the
// fast reduction enabled by p = 2^256 - 2^32 - 977, Jacobian-coordinate
// point arithmetic, and a deterministic-nonce Schnorr signature scheme used
// to authorize UTXO spends in both the mainchain and the Latus sidechain.
// Signing takes k*G from a static fixed-base table, and verification
// computes s*G - e*P in one joint double-scalar pass; both must agree with
// the plain double-and-add ECPoint::mul. A batch of signatures is verified
// as one random linear combination of their equations (verify_batch).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/hash.hpp"
#include "crypto/u256.hpp"

namespace zendoo::crypto {

namespace secp256k1 {
/// Field prime p = 2^256 - 2^32 - 977.
extern const u256 kP;
/// Group order n.
extern const u256 kN;
/// Generator affine coordinates.
extern const u256 kGx;
extern const u256 kGy;
}  // namespace secp256k1

/// Arithmetic in GF(p) for the secp256k1 field prime p = 2^256 - kC,
/// kC = 2^32 + 977. Every value is canonical: below p.
///
/// add, sub, neg, mul and sqr are defined inline below, on four 64-bit
/// limbs held in locals. mul forms the 4x4 limb product row by row; sqr
/// forms the six cross products once, doubles them and adds the four
/// squares, 10 limb products instead of 16. Both fold the high half of the
/// 512-bit product into the low half as hi * kC, one single-limb product
/// per limb, instead of generic long division. add, sub and neg work on
/// p = 2^256 - kC directly, with one correction each. u256's addmod,
/// submod and mulmod are the tests' reference for all five.
struct Fp {
  u256 v;

  /// x mod p. Every 256-bit value is below 2p, so one conditional
  /// subtraction reduces it.
  static Fp from(const u256& x) {
    return Fp{x < secp256k1::kP ? x : x - secp256k1::kP};
  }
  static Fp zero() { return Fp{u256{}}; }
  static Fp one() { return Fp{u256{1}}; }

  [[nodiscard]] bool is_zero() const { return v.is_zero(); }

  friend bool operator==(const Fp&, const Fp&) = default;

  [[nodiscard]] Fp add(const Fp& o) const;
  [[nodiscard]] Fp sub(const Fp& o) const;
  [[nodiscard]] Fp mul(const Fp& o) const;
  [[nodiscard]] Fp sqr() const;
  /// Multiplicative inverse via Fermat's little theorem (v^(p-2)), by a
  /// fixed addition chain: 255 squarings and 15 multiplications.
  [[nodiscard]] Fp inv() const;
  [[nodiscard]] Fp neg() const;
};

/// The limb arithmetic under Fp's operations.
namespace field_kernel {
using u64 = std::uint64_t;
using u128 = unsigned __int128;

/// p = 2^256 - kC.
constexpr u64 kC = 0x1000003D1ULL;

/// a*b + t + c into one limb; the high limb goes back into c. The sum is
/// at most (2^64 - 1)^2 + 2(2^64 - 1) = 2^128 - 1, so it cannot wrap.
inline u64 mac(u64 a, u64 b, u64 t, u64& c) {
  const u128 r = static_cast<u128>(a) * b + t + c;
  c = static_cast<u64>(r >> 64);
  return static_cast<u64>(r);
}

/// x + y + carry into one limb; the carry out goes back into `carry`.
inline u64 adc(u64 x, u64 y, u64& carry) {
  const u128 r = static_cast<u128>(x) + y + carry;
  carry = static_cast<u64>(r >> 64);
  return static_cast<u64>(r);
}

/// x - y - borrow into one limb; the borrow out (0 or 1) goes back into
/// `borrow`.
inline u64 sbb(u64 x, u64 y, u64& borrow) {
  const u128 r = static_cast<u128>(x) - y - borrow;
  borrow = static_cast<u64>(r >> 64) & 1;
  return static_cast<u64>(r);
}

/// x mod p for x = wrap*2^256 + (x3..x0) below 2p. x >= p exactly when
/// x + kC reaches 2^256, and x - p is then x + kC less that 2^256: keep the
/// sum when x wraps already or the sum does. The choice is a mask, not a
/// branch, as Fp::add takes either side about half the time.
inline Fp reduce_once(u64 x0, u64 x1, u64 x2, u64 x3, u64 wrap) {
  u64 carry = 0;
  const u64 s0 = adc(x0, kC, carry);
  const u64 s1 = adc(x1, 0, carry);
  const u64 s2 = adc(x2, 0, carry);
  const u64 s3 = adc(x3, 0, carry);
  const u64 keep_sum = 0 - ((wrap | carry) & 1);
  return Fp{u256{x0 ^ ((x0 ^ s0) & keep_sum), x1 ^ ((x1 ^ s1) & keep_sum),
                 x2 ^ ((x2 ^ s2) & keep_sum), x3 ^ ((x3 ^ s3) & keep_sum)}};
}

/// The 512-bit t (t[0] least significant) mod p. t = hi*2^256 + lo is
/// lo + hi*kC mod p: four single-limb products fold hi in, leaving a carry
/// limb c <= kC. c*kC < 2^67 folds in the same way; if that wraps past
/// 2^256, what is left is below 2^67, and reduce_once adds the wrap's kC.
inline Fp reduce_wide(const u64 (&t)[8]) {
  u64 c = 0;
  u64 r0 = mac(t[4], kC, t[0], c);
  u64 r1 = mac(t[5], kC, t[1], c);
  u64 r2 = mac(t[6], kC, t[2], c);
  u64 r3 = mac(t[7], kC, t[3], c);
  u64 wrap = 0;
  r0 = mac(c, kC, r0, wrap);
  r1 = adc(r1, 0, wrap);
  r2 = adc(r2, 0, wrap);
  r3 = adc(r3, 0, wrap);
  return reduce_once(r0, r1, r2, r3, wrap);
}

}  // namespace field_kernel

// Each operation keeps its limbs in locals: where a caller inlines it,
// every intermediate stays in a register, and a call passes only its
// operands and result through memory.

inline Fp Fp::add(const Fp& o) const {
  using namespace field_kernel;
  const auto& a = v.limb;
  const auto& b = o.v.limb;
  u64 carry = 0;
  const u64 s0 = adc(a[0], b[0], carry);
  const u64 s1 = adc(a[1], b[1], carry);
  const u64 s2 = adc(a[2], b[2], carry);
  const u64 s3 = adc(a[3], b[3], carry);
  return reduce_once(s0, s1, s2, s3, carry);
}

inline Fp Fp::sub(const Fp& o) const {
  using namespace field_kernel;
  // a - b borrows exactly when a < b. Adding p back is subtracting kC
  // modulo 2^256, and a - b + 2^256 >= kC + 1, so that cannot borrow.
  const auto& a = v.limb;
  const auto& b = o.v.limb;
  u64 borrow = 0;
  u64 d0 = sbb(a[0], b[0], borrow);
  u64 d1 = sbb(a[1], b[1], borrow);
  u64 d2 = sbb(a[2], b[2], borrow);
  u64 d3 = sbb(a[3], b[3], borrow);
  const u64 correction = kC & (0 - borrow);
  borrow = 0;
  d0 = sbb(d0, correction, borrow);
  d1 = sbb(d1, 0, borrow);
  d2 = sbb(d2, 0, borrow);
  d3 = sbb(d3, 0, borrow);
  return Fp{u256{d0, d1, d2, d3}};
}

inline Fp Fp::neg() const { return zero().sub(*this); }

inline Fp Fp::mul(const Fp& o) const {
  using namespace field_kernel;
  // The 4x4 limb product, one row per limb of a.
  const auto& a = v.limb;
  const auto& b = o.v.limb;
  u64 t[8] = {};
  u64 c = 0;
  t[0] = mac(a[0], b[0], 0, c);
  t[1] = mac(a[0], b[1], 0, c);
  t[2] = mac(a[0], b[2], 0, c);
  t[3] = mac(a[0], b[3], 0, c);
  t[4] = c;
  c = 0;
  t[1] = mac(a[1], b[0], t[1], c);
  t[2] = mac(a[1], b[1], t[2], c);
  t[3] = mac(a[1], b[2], t[3], c);
  t[4] = mac(a[1], b[3], t[4], c);
  t[5] = c;
  c = 0;
  t[2] = mac(a[2], b[0], t[2], c);
  t[3] = mac(a[2], b[1], t[3], c);
  t[4] = mac(a[2], b[2], t[4], c);
  t[5] = mac(a[2], b[3], t[5], c);
  t[6] = c;
  c = 0;
  t[3] = mac(a[3], b[0], t[3], c);
  t[4] = mac(a[3], b[1], t[4], c);
  t[5] = mac(a[3], b[2], t[5], c);
  t[6] = mac(a[3], b[3], t[6], c);
  t[7] = c;
  return reduce_wide(t);
}

inline Fp Fp::sqr() const {
  using namespace field_kernel;
  // The six cross products a_i a_j (i < j) once, doubled, plus the four
  // squares a_i^2 at limb 2i: 10 limb products where mul takes 16.
  const auto& a = v.limb;
  u64 t[8] = {};
  u64 c = 0;
  t[1] = mac(a[0], a[1], 0, c);
  t[2] = mac(a[0], a[2], 0, c);
  t[3] = mac(a[0], a[3], 0, c);
  t[4] = c;
  c = 0;
  t[3] = mac(a[1], a[2], t[3], c);
  t[4] = mac(a[1], a[3], t[4], c);
  t[5] = c;
  c = 0;
  t[5] = mac(a[2], a[3], t[5], c);
  t[6] = c;
  t[7] = t[6] >> 63;
  t[6] = t[6] << 1 | t[5] >> 63;
  t[5] = t[5] << 1 | t[4] >> 63;
  t[4] = t[4] << 1 | t[3] >> 63;
  t[3] = t[3] << 1 | t[2] >> 63;
  t[2] = t[2] << 1 | t[1] >> 63;
  t[1] = t[1] << 1;
  c = 0;
  u128 sq = static_cast<u128>(a[0]) * a[0];
  t[0] = static_cast<u64>(sq);
  t[1] = adc(t[1], static_cast<u64>(sq >> 64), c);
  sq = static_cast<u128>(a[1]) * a[1];
  t[2] = adc(t[2], static_cast<u64>(sq), c);
  t[3] = adc(t[3], static_cast<u64>(sq >> 64), c);
  sq = static_cast<u128>(a[2]) * a[2];
  t[4] = adc(t[4], static_cast<u64>(sq), c);
  t[5] = adc(t[5], static_cast<u64>(sq >> 64), c);
  sq = static_cast<u128>(a[3]) * a[3];
  t[6] = adc(t[6], static_cast<u64>(sq), c);
  t[7] = adc(t[7], static_cast<u64>(sq >> 64), c);
  return reduce_wide(t);
}

/// A point on secp256k1 in Jacobian coordinates (X/Z^2, Y/Z^3).
/// Z == 0 encodes the point at infinity.
struct ECPoint {
  Fp X, Y, Z;

  static ECPoint infinity() { return {Fp::zero(), Fp::one(), Fp::zero()}; }
  static ECPoint generator();
  /// Build from affine coordinates; does not check curve membership.
  static ECPoint from_affine(const u256& x, const u256& y);

  [[nodiscard]] bool is_infinity() const { return Z.is_zero(); }

  [[nodiscard]] ECPoint dbl() const;
  [[nodiscard]] ECPoint add(const ECPoint& o) const;
  /// Scalar multiplication (double-and-add, MSB first).
  [[nodiscard]] ECPoint mul(const u256& scalar) const;

  /// Convert to affine (x, y). Must not be infinity.
  [[nodiscard]] std::pair<u256, u256> to_affine() const;

  /// Check y^2 = x^3 + 7 for the affine form (infinity counts as on-curve).
  [[nodiscard]] bool on_curve() const;

  /// Equality as group elements (compares affine forms).
  [[nodiscard]] bool equals(const ECPoint& o) const;
};

/// Schnorr signature (R, s): R = k*G, s = k + e*x mod n,
/// e = H(R || P || m) mod n.
struct Signature {
  u256 rx, ry;  ///< affine coordinates of the nonce point R
  u256 s;       ///< response scalar

  friend bool operator==(const Signature&, const Signature&) = default;
};

/// A keypair for the Schnorr scheme.
class KeyPair {
 public:
  /// Derive a keypair deterministically from a seed digest.
  static KeyPair from_seed(const Digest& seed);

  [[nodiscard]] const u256& secret() const { return sk_; }
  [[nodiscard]] const std::pair<u256, u256>& public_key() const { return pk_; }

  /// Address = domain-separated hash of the public key; used as the
  /// receiver identity in UTXOs on both chains.
  [[nodiscard]] Digest address() const;

  /// Sign a message digest with a deterministic (RFC6979-style) nonce.
  [[nodiscard]] Signature sign(const Digest& msg) const;

 private:
  u256 sk_;
  std::pair<u256, u256> pk_;
};

/// Verify a Schnorr signature against a public key and message digest:
/// s in [1, n), R and P on the curve (coordinates taken mod p), and
/// s*G == R + e*P.
[[nodiscard]] bool verify_signature(const std::pair<u256, u256>& public_key,
                                    const Digest& msg, const Signature& sig);

/// One Schnorr check: a public key, the digest it signed, the signature.
struct SignatureCheck {
  std::pair<u256, u256> pubkey;
  Digest msg;
  Signature sig;
};

/// (a * b) mod n for any 256-bit a and b. The high half of the product
/// folds into the low half as hi * (2^256 - n), which is below 2^129, until
/// nothing is left above 2^256.
[[nodiscard]] u256 mul_mod_n(const u256& a, const u256& b);

/// The weights verify_batch gives the checks of `batch`: 1 for the first,
/// and for each other a nonzero 128-bit value read from SHA-256 over the
/// whole batch, so they are a pure function of it.
[[nodiscard]] std::vector<u256> batch_weights(
    std::span<const SignatureCheck> batch);

/// True when every check of `batch` would pass verify_signature. It keeps
/// verify_signature's per-signature checks (s in [1, n), R and P on the
/// curve), then tests the weighted sum of the signatures' equations,
///   (sum a_i s_i) G + sum a_i (-R_i) + sum (a_i (n - e_i) mod n) P_i = O,
/// with the weights a_i of batch_weights, in one multi-scalar
/// multiplication that shares a single doubling chain across all terms. A
/// batch holding a bad signature passes with probability about 2^-128. A
/// batch of one is verify_signature; an empty batch passes. The verdict
/// names no culprit: a caller whose batch fails checks one by one.
[[nodiscard]] bool verify_batch(std::span<const SignatureCheck> batch);

/// Address corresponding to a raw public key.
[[nodiscard]] Digest address_of(const std::pair<u256, u256>& public_key);

}  // namespace zendoo::crypto
