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

/// Arithmetic in GF(p) for the secp256k1 field prime.
///
/// Multiplication uses the special form of p: the high half of the 512-bit
/// product folds into the low half as hi * (2^32 + 977), one single-limb
/// product per limb, instead of generic long division.
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
  [[nodiscard]] Fp sqr() const { return mul(*this); }
  /// Multiplicative inverse via Fermat's little theorem (v^(p-2)), by a
  /// fixed addition chain: 255 squarings and 15 multiplications.
  [[nodiscard]] Fp inv() const;
  [[nodiscard]] Fp neg() const;
};

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
