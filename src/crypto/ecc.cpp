#include "crypto/ecc.hpp"

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace zendoo::crypto {

namespace secp256k1 {
const u256 kP = u256::from_hex(
    "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
const u256 kN = u256::from_hex(
    "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141");
const u256 kGx = u256::from_hex(
    "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798");
const u256 kGy = u256::from_hex(
    "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8");
}  // namespace secp256k1

namespace {
// n = 2^256 - kNC, kNC < 2^129.
constexpr u256 kNC{0x402DA1732FC9BEBFULL, 0x4551231950B75FC4ULL, 1, 0};
}  // namespace

Fp Fp::inv() const {
  if (is_zero()) throw std::invalid_argument("Fp::inv of zero");
  // v^(p-2) by libsecp256k1's addition chain. From the top, p - 2 has
  // blocks of 223, 22, 1, 2 and 1 one bits, after each of which come 1, 4,
  // 1 and 1 zero bits. x_k = v^(2^k - 1) builds the blocks, and the tail
  // shifts each into place: 255 squarings and 15 multiplications, where
  // square-and-multiply takes about 505 operations.
  auto sqr_times = [](Fp x, int n) {
    for (int i = 0; i < n; ++i) x = x.sqr();
    return x;
  };
  const Fp& x1 = *this;
  const Fp x2 = sqr_times(x1, 1).mul(x1);
  const Fp x3 = sqr_times(x2, 1).mul(x1);
  const Fp x6 = sqr_times(x3, 3).mul(x3);
  const Fp x9 = sqr_times(x6, 3).mul(x3);
  const Fp x11 = sqr_times(x9, 2).mul(x2);
  const Fp x22 = sqr_times(x11, 11).mul(x11);
  const Fp x44 = sqr_times(x22, 22).mul(x22);
  const Fp x88 = sqr_times(x44, 44).mul(x44);
  const Fp x176 = sqr_times(x88, 88).mul(x88);
  const Fp x220 = sqr_times(x176, 44).mul(x44);
  const Fp x223 = sqr_times(x220, 3).mul(x3);
  Fp t = sqr_times(x223, 23).mul(x22);
  t = sqr_times(t, 5).mul(x1);
  t = sqr_times(t, 3).mul(x2);
  return sqr_times(t, 2).mul(x1);
}

ECPoint ECPoint::generator() {
  return from_affine(secp256k1::kGx, secp256k1::kGy);
}

ECPoint ECPoint::from_affine(const u256& x, const u256& y) {
  return {Fp::from(x), Fp::from(y), Fp::one()};
}

ECPoint ECPoint::dbl() const {
  if (is_infinity() || Y.is_zero()) return infinity();
  // Standard Jacobian doubling for a = 0 curves (secp256k1: y^2 = x^3 + 7).
  Fp a = X.sqr();                       // X^2
  Fp b = Y.sqr();                       // Y^2
  Fp c = b.sqr();                       // Y^4
  Fp d = X.add(b).sqr().sub(a).sub(c);  // 2*((X+B)^2 - A - C)
  d = d.add(d);
  Fp e = a.add(a).add(a);  // 3*X^2
  Fp f = e.sqr();          // E^2
  Fp x3 = f.sub(d.add(d));
  Fp c8 = c.add(c);
  c8 = c8.add(c8);
  c8 = c8.add(c8);
  Fp y3 = e.mul(d.sub(x3)).sub(c8);
  Fp z3 = Y.mul(Z);
  z3 = z3.add(z3);
  return {x3, y3, z3};
}

ECPoint ECPoint::add(const ECPoint& o) const {
  if (is_infinity()) return o;
  if (o.is_infinity()) return *this;
  // Jacobian addition.
  Fp z1z1 = Z.sqr();
  Fp z2z2 = o.Z.sqr();
  Fp u1 = X.mul(z2z2);
  Fp u2 = o.X.mul(z1z1);
  Fp s1 = Y.mul(z2z2).mul(o.Z);
  Fp s2 = o.Y.mul(z1z1).mul(Z);
  if (u1 == u2) {
    if (s1 == s2) return dbl();
    return infinity();
  }
  Fp h = u2.sub(u1);
  Fp i = h.add(h).sqr();
  Fp j = h.mul(i);
  Fp r = s2.sub(s1);
  r = r.add(r);
  Fp v = u1.mul(i);
  Fp x3 = r.sqr().sub(j).sub(v.add(v));
  Fp s1j = s1.mul(j);
  Fp y3 = r.mul(v.sub(x3)).sub(s1j.add(s1j));
  Fp z3 = Z.mul(o.Z).mul(h);
  z3 = z3.add(z3);
  return {x3, y3, z3};
}

ECPoint ECPoint::mul(const u256& scalar) const {
  u256 k = scalar.mod(secp256k1::kN);
  ECPoint result = infinity();
  int top = k.highest_bit();
  for (int i = top; i >= 0; --i) {
    result = result.dbl();
    if (k.bit(static_cast<unsigned>(i))) result = result.add(*this);
  }
  return result;
}

std::pair<u256, u256> ECPoint::to_affine() const {
  if (is_infinity()) {
    throw std::invalid_argument("ECPoint::to_affine of infinity");
  }
  Fp zinv = Z.inv();
  Fp zinv2 = zinv.sqr();
  Fp x = X.mul(zinv2);
  Fp y = Y.mul(zinv2).mul(zinv);
  return {x.v, y.v};
}

bool ECPoint::on_curve() const {
  if (is_infinity()) return true;
  auto [x, y] = to_affine();
  Fp fx = Fp{x}, fy = Fp{y};
  Fp lhs = fy.sqr();
  Fp rhs = fx.sqr().mul(fx).add(Fp{u256{7}});
  return lhs == rhs;
}

bool ECPoint::equals(const ECPoint& o) const {
  if (is_infinity() || o.is_infinity()) {
    return is_infinity() == o.is_infinity();
  }
  // Cross-multiplied comparison avoids inversions:
  // X1/Z1^2 == X2/Z2^2 and Y1/Z1^3 == Y2/Z2^3.
  Fp z1z1 = Z.sqr();
  Fp z2z2 = o.Z.sqr();
  if (!(X.mul(z2z2) == o.X.mul(z1z1))) return false;
  return Y.mul(z2z2).mul(o.Z) == o.Y.mul(z1z1).mul(Z);
}

namespace {

u256 digest_to_scalar(const Digest& d) {
  u256 v = d.as_u256().mod(secp256k1::kN);
  if (v.is_zero()) v = u256{1};
  return v;
}

u256 challenge(const u256& rx, const u256& ry,
               const std::pair<u256, u256>& pk, const Digest& msg) {
  Digest e = Hasher(Domain::kSignature)
                 .write(rx)
                 .write(ry)
                 .write(pk.first)
                 .write(pk.second)
                 .write(msg)
                 .finalize();
  return digest_to_scalar(e);
}

/// An affine point, never infinity: a generator-table entry, or a public
/// key or nonce point under verification.
struct Affine {
  Fp x, y;
};

bool on_curve(const Affine& p) {
  return p.y.sqr() == p.x.sqr().mul(p.x).add(Fp{u256{7}});
}

/// a + b for Jacobian a and affine b (Z_b = 1 saves four products over
/// ECPoint::add); the equal and opposite cases go the same way as there.
ECPoint add_affine(const ECPoint& a, const Affine& b) {
  if (a.is_infinity()) return {b.x, b.y, Fp::one()};
  Fp z1z1 = a.Z.sqr();
  Fp u2 = b.x.mul(z1z1);
  Fp s2 = b.y.mul(z1z1).mul(a.Z);
  if (a.X == u2) {
    if (a.Y == s2) return a.dbl();
    return ECPoint::infinity();
  }
  Fp h = u2.sub(a.X);
  Fp i = h.add(h).sqr();
  Fp j = h.mul(i);
  Fp r = s2.sub(a.Y);
  r = r.add(r);
  Fp v = a.X.mul(i);
  Fp x3 = r.sqr().sub(j).sub(v.add(v));
  Fp yj = a.Y.mul(j);
  Fp y3 = r.mul(v.sub(x3)).sub(yj.add(yj));
  Fp z3 = a.Z.mul(h);
  z3 = z3.add(z3);
  return {x3, y3, z3};
}

// Scalars are read in 4-bit windows: 64 digits, each selecting one of 15
// nonzero multiples of a point.
constexpr unsigned kWindows = 64;
constexpr unsigned kMultiples = 15;

/// 4-bit digit i of k, counted from the least significant.
unsigned nibble(const u256& k, unsigned i) {
  return static_cast<unsigned>(k.limb[i / 16] >> (4 * (i % 16))) & 0xF;
}

/// Fixed-base comb for G: row i holds d * 16^i * G for d = 1..15, affine.
/// k*G is then one table point per nonzero 4-bit digit of k with no
/// doublings, and row 0 is G's 4-bit window table in verification.
/// 64 x 15 points (60 KiB), built once and read-only afterwards, so the
/// CheckQueue workers that verify concurrently share it without locks.
class GeneratorTable {
 public:
  GeneratorTable();

  [[nodiscard]] const Affine& at(unsigned row, unsigned digit) const {
    return pts_[row][digit - 1];
  }

 private:
  Affine pts_[kWindows][kMultiples];
};

/// Every point of `jac` (none at infinity) in affine form, with one shared
/// inversion (Montgomery's trick): prefix[k] = Z_0 * ... * Z_{k-1}, and
/// one inversion of the whole product yields each 1/Z_k on the way back.
std::vector<Affine> to_affine_all(const std::vector<ECPoint>& jac) {
  std::vector<Fp> prefix(jac.size());
  Fp acc = Fp::one();
  for (std::size_t k = 0; k < jac.size(); ++k) {
    prefix[k] = acc;
    acc = acc.mul(jac[k].Z);
  }
  std::vector<Affine> out(jac.size());
  Fp inv = acc.inv();
  for (std::size_t k = jac.size(); k-- > 0;) {
    Fp zinv = inv.mul(prefix[k]);
    inv = inv.mul(jac[k].Z);
    Fp zinv2 = zinv.sqr();
    out[k] = {jac[k].X.mul(zinv2), jac[k].Y.mul(zinv2).mul(zinv)};
  }
  return out;
}

GeneratorTable::GeneratorTable() {
  std::vector<ECPoint> jac;
  jac.reserve(kWindows * kMultiples);
  ECPoint base = ECPoint::generator();
  for (unsigned row = 0; row < kWindows; ++row) {
    ECPoint multiple = base;
    for (unsigned d = 1; d <= kMultiples; ++d) {
      jac.push_back(multiple);
      multiple = multiple.add(base);
    }
    base = multiple;
  }
  const std::vector<Affine> affine = to_affine_all(jac);
  for (std::size_t k = 0; k < affine.size(); ++k) {
    pts_[k / kMultiples][k % kMultiples] = affine[k];
  }
}

const GeneratorTable& generator_table() {
  static const GeneratorTable table;
  return table;
}

/// k*G for k < n (infinity for k = 0).
ECPoint mul_generator(const u256& k) {
  const GeneratorTable& table = generator_table();
  ECPoint acc = ECPoint::infinity();
  for (unsigned i = 0; i < kWindows; ++i) {
    if (unsigned d = nibble(k, i)) acc = add_affine(acc, table.at(i, d));
  }
  return acc;
}

/// a*G + b*P in one pass over the 4-bit windows of both scalars, most
/// significant first (Strauss-Shamir): the doublings are shared, and each
/// window adds at most one entry of G's table and one of P's.
ECPoint mul_generator_add(const u256& a, const Affine& p, const u256& b) {
  ECPoint ptab[kMultiples];
  ptab[0] = {p.x, p.y, Fp::one()};
  for (unsigned d = 1; d < kMultiples; ++d) {
    ptab[d] = add_affine(ptab[d - 1], p);
  }
  const GeneratorTable& table = generator_table();
  ECPoint acc = ECPoint::infinity();
  for (unsigned i = kWindows; i-- > 0;) {
    acc = acc.dbl().dbl().dbl().dbl();
    if (unsigned d = nibble(a, i)) acc = add_affine(acc, table.at(0, d));
    if (unsigned d = nibble(b, i)) acc = acc.add(ptab[d - 1]);
  }
  return acc;
}

// Width-5 signed digits: k = sum of digit[i] * 2^i, every nonzero digit
// odd and in [-15, 15], and at most one nonzero digit in any 5 consecutive
// positions. A 256-bit scalar then costs about 256/6 additions from a
// table of 8 odd multiples (1, 3, ..., 15), whose negatives are free.
constexpr unsigned kWnafDigits = 257;
constexpr unsigned kOddMultiples = 8;
using Wnaf = std::array<std::int8_t, kWnafDigits>;

/// The 5 bits of k from bit i up (bits past 255 read as zero).
unsigned bits5(const u256& k, unsigned i) {
  if (i >= 256) return 0;
  const unsigned limb = i / 64, shift = i % 64;
  std::uint64_t v = k.limb[limb] >> shift;
  if (shift > 59 && limb < 3) v |= k.limb[limb + 1] << (64 - shift);
  return static_cast<unsigned>(v) & 31;
}

/// The width-5 signed digits of k, least significant first. A negative
/// digit d stands for the window value d + 32, and the 32 is carried into
/// the next window.
Wnaf wnaf5(const u256& k) {
  Wnaf digits{};
  unsigned carry = 0;
  for (unsigned i = 0; i < kWnafDigits;) {
    const unsigned bit = i < 256 && k.bit(i);
    if (bit == carry) {  // digit 0; a carry moves on to the next bit
      ++i;
      continue;
    }
    const unsigned word = bits5(k, i) + carry;  // odd, in [1, 31]
    carry = word >> 4;
    digits[i] = static_cast<std::int8_t>(static_cast<int>(word) -
                                         static_cast<int>(carry << 5));
    i += 5;
  }
  return digits;
}

/// sum of scalars[t] * bases[t] in one Strauss pass: a single chain of
/// doublings is shared by every term, and each term adds one entry of its
/// table of odd multiples per nonzero width-5 digit. The tables are built
/// in Jacobian form and made affine together, with one inversion.
ECPoint multi_mul(std::span<const Affine> bases,
                  std::span<const u256> scalars) {
  std::vector<ECPoint> jac;
  jac.reserve(bases.size() * kOddMultiples);
  for (const Affine& b : bases) {
    ECPoint multiple{b.x, b.y, Fp::one()};
    const ECPoint twice = multiple.dbl();
    jac.push_back(multiple);
    for (unsigned j = 1; j < kOddMultiples; ++j) {
      multiple = multiple.add(twice);
      jac.push_back(multiple);
    }
  }
  const std::vector<Affine> table = to_affine_all(jac);

  std::vector<Wnaf> digits;
  digits.reserve(scalars.size());
  for (const u256& k : scalars) digits.push_back(wnaf5(k));
  // One chain over every digit position, most significant first; until
  // the first addition it doubles infinity, which costs nothing.
  ECPoint acc = ECPoint::infinity();
  for (unsigned i = kWnafDigits; i-- > 0;) {
    acc = acc.dbl();
    for (std::size_t t = 0; t < digits.size(); ++t) {
      const int d = digits[t][i];
      if (d == 0) continue;
      const Affine& e = table[t * kOddMultiples + static_cast<unsigned>(
                                                      (d < 0 ? -d : d) / 2)];
      acc = add_affine(acc, d > 0 ? e : Affine{e.x, e.y.neg()});
    }
  }
  return acc;
}

}  // namespace

KeyPair KeyPair::from_seed(const Digest& seed) {
  KeyPair kp;
  Digest skd = Hasher(Domain::kSignatureNonce).write(seed).finalize();
  kp.sk_ = digest_to_scalar(skd);
  kp.pk_ = mul_generator(kp.sk_).to_affine();
  return kp;
}

Digest KeyPair::address() const { return address_of(pk_); }

Digest address_of(const std::pair<u256, u256>& public_key) {
  return Hasher(Domain::kAddress)
      .write(public_key.first)
      .write(public_key.second)
      .finalize();
}

Signature KeyPair::sign(const Digest& msg) const {
  // Deterministic nonce: k = H(sk || msg), reduced into [1, n).
  Digest kd =
      Hasher(Domain::kSignatureNonce).write(sk_).write(msg).finalize();
  u256 k = digest_to_scalar(kd);
  auto [rx, ry] = mul_generator(k).to_affine();
  u256 e = challenge(rx, ry, pk_, msg);
  u256 s = u256::addmod(k, mul_mod_n(e, sk_), secp256k1::kN);
  return Signature{rx, ry, s};
}

u256 mul_mod_n(const u256& a, const u256& b) {
  // hi*2^256 + lo == lo + hi*kNC (mod n). The first fold leaves a high
  // half below 2^129 + 1, the second one below 2^4, the third 0 or 1, and
  // a fourth, if needed, cannot carry. What is left is below 2^256 < 2n.
  auto [hi, lo] = u256::mul_wide(a, b);
  while (!hi.is_zero()) {
    auto [fold_hi, fold_lo] = u256::mul_wide(hi, kNC);
    const bool carry = u256::add_with_carry(fold_lo, lo, lo);
    hi = fold_hi + u256{carry ? 1u : 0u};
  }
  if (!(lo < secp256k1::kN)) lo = lo - secp256k1::kN;
  return lo;
}

bool verify_signature(const std::pair<u256, u256>& public_key,
                      const Digest& msg, const Signature& sig) {
  if (sig.s.is_zero() || !(sig.s < secp256k1::kN)) return false;
  const Affine r{Fp::from(sig.rx), Fp::from(sig.ry)};
  const Affine p{Fp::from(public_key.first), Fp::from(public_key.second)};
  if (!on_curve(r) || !on_curve(p)) return false;
  u256 e = challenge(sig.rx, sig.ry, public_key, msg);
  // s*G == R + e*P  <=>  s*G + (n-e)*P == R, as P has order n.
  ECPoint q = mul_generator_add(sig.s, p, secp256k1::kN - e);
  if (q.is_infinity()) return false;
  // ECPoint::equals against R with Z_R = 1.
  Fp zz = q.Z.sqr();
  return q.X == r.x.mul(zz) && q.Y == r.y.mul(zz).mul(q.Z);
}

std::vector<u256> batch_weights(std::span<const SignatureCheck> batch) {
  if (batch.empty()) return {};
  Hasher h(Domain::kSignature);
  h.write_str("batch").write_u64(batch.size());
  for (const SignatureCheck& c : batch) {
    h.write(c.pubkey.first).write(c.pubkey.second).write(c.msg);
    h.write(c.sig.rx).write(c.sig.ry).write(c.sig.s);
  }
  const Digest seed = h.finalize();
  std::vector<u256> weights(batch.size());
  weights[0] = u256{1};
  for (std::size_t i = 1; i < batch.size(); ++i) {
    u256 w = Hasher(Domain::kSignature).write(seed).write_u64(i).finalize()
                 .as_u256();
    w.limb[2] = w.limb[3] = 0;
    weights[i] = w.is_zero() ? u256{1} : w;
  }
  return weights;
}

bool verify_batch(std::span<const SignatureCheck> batch) {
  if (batch.size() == 1) {
    return verify_signature(batch[0].pubkey, batch[0].msg, batch[0].sig);
  }
  const std::vector<u256> weights = batch_weights(batch);
  // Signature i holds when s_i G - e_i P_i - R_i = O. Weighted by a_i and
  // summed: G's scalar is sum a_i s_i, R_i's is a_i (on -R_i, so that it
  // is a plain 128-bit scalar) and P_i's is a_i (n - e_i), all mod n.
  u256 g_scalar;
  std::vector<Affine> bases;
  std::vector<u256> scalars;
  bases.reserve(2 * batch.size());
  scalars.reserve(2 * batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& [pubkey, msg, sig] = batch[i];
    if (sig.s.is_zero() || !(sig.s < secp256k1::kN)) return false;
    const Affine r{Fp::from(sig.rx), Fp::from(sig.ry)};
    const Affine p{Fp::from(pubkey.first), Fp::from(pubkey.second)};
    if (!on_curve(r) || !on_curve(p)) return false;
    const u256 e = challenge(sig.rx, sig.ry, pubkey, msg);
    g_scalar = u256::addmod(g_scalar, mul_mod_n(weights[i], sig.s),
                            secp256k1::kN);
    bases.push_back({r.x, r.y.neg()});
    scalars.push_back(weights[i]);
    bases.push_back(p);
    scalars.push_back(mul_mod_n(weights[i], secp256k1::kN - e));
  }
  // G's term comes from the fixed-base comb, with no doublings.
  return multi_mul(bases, scalars).add(mul_generator(g_scalar)).is_infinity();
}

}  // namespace zendoo::crypto
